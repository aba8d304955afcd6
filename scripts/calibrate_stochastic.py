#!/usr/bin/env python3
"""Seeded parameter search around the stochastic duplex policy's defaults.

Targets (per-minute, from the reference self-chat behavior the simulator
stands in for): overlaps ~5.7 in [2.8, 8.6], backchannels ~2.1 in [1.0, 3.2],
pauses ~12.2 in [6.1, 18.3], avg gap ~393ms in [200, 590].

Searches each FINE_STEPS field of StochasticConfig's shipped defaults and
one step either side of it (243 points), evaluates each point over 5-min
runs of seeds 100-119, and prints the 25 best rows, those inside all four
windows first, each group ranked by distance to the target center. Then it
prints the shipped point's row and rank. scripts/calibration.txt is this
output, and CI requires a re-run to reproduce it byte for byte.
"""

import itertools
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dde.analytics import conversation_report
from dde.simulate import StochasticConfig, run_selfchat, stochastic_run

TARGETS = {"overlaps": 5.7, "backchannels": 2.1, "pauses": 12.2, "gap": 393.0}
WINDOWS = {
    "overlaps": (2.8, 8.6),
    "backchannels": (1.0, 3.2),
    "pauses": (6.1, 18.3),
    "gap": (200.0, 590.0),
}
SEEDS = range(100, 120)
DURATION_MS = 300000


def evaluate(cfg: StochasticConfig):
    sums = {k: 0.0 for k in TARGETS}
    for seed in SEEDS:
        trace = run_selfchat(stochastic_run(seed, DURATION_MS, cfg))
        rep = conversation_report(trace)
        sums["overlaps"] += rep.overlaps_per_min
        sums["backchannels"] += rep.backchannels_per_min
        sums["pauses"] += rep.pauses_per_min
        sums["gap"] += rep.avg_gap_ms if rep.avg_gap_ms is not None else 0.0
    return {k: v / len(SEEDS) for k, v in sums.items()}


def distance(means):
    return math.sqrt(
        sum(((means[k] - TARGETS[k]) / TARGETS[k]) ** 2 for k in TARGETS)
    )


def in_windows(means):
    return all(WINDOWS[k][0] <= means[k] <= WINDOWS[k][1] for k in TARGETS)


# step per searched field, applied once on each side of the default
FINE_STEPS = {
    "p_backchannel_per_tick": 0.001,
    "p_initiate_per_tick_after_gap": 0.02,
    "min_gap_ticks": 1,
    "p_stop_on_overlap_per_tick": 0.01,
    "pause_insertion_rate": 0.04,
}


def search_grid() -> dict:
    """Values to try per StochasticConfig field."""
    defaults = StochasticConfig()
    grid = {}
    for name, step in FINE_STEPS.items():
        value = getattr(defaults, name)
        grid[name] = [round(value - step, 6), value, round(value + step, 6)]
    return grid


def row(result):
    dist, ok, combo, means = result
    return (
        f"{'Y' if ok else 'n':<3} {dist:>6.3f}  "
        + " ".join(f"{v:>12}" for v in combo)
        + f"  {means['overlaps']:>6.2f} {means['backchannels']:>6.2f}"
        + f" {means['pauses']:>6.2f} {means['gap']:>6.0f}"
    )


def main():
    grid = search_grid()
    names = list(grid)
    shipped = tuple(getattr(StochasticConfig(), n) for n in names)
    results = []
    for combo in itertools.product(*(grid[n] for n in names)):
        cfg = StochasticConfig(**dict(zip(names, combo)))
        means = evaluate(cfg)
        results.append((distance(means), in_windows(means), combo, means))
    results.sort(key=lambda r: (not r[1], r[0]))
    print(f"{'ok':<3} {'dist':>6}  " + " ".join(f"{n[:12]:>12}" for n in names)
          + f"  {'ovl':>6} {'bc':>6} {'pause':>6} {'gap':>6}")
    for result in results[:25]:
        print(row(result))
    rank = next(i for i, r in enumerate(results, 1) if r[2] == shipped)
    print(f"shipped defaults, rank {rank} of {len(results)}:")
    print(row(results[rank - 1]))


if __name__ == "__main__":
    main()
