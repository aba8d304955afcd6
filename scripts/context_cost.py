#!/usr/bin/env python3
"""What reading Observation.context on every tick costs the self-chat engine.

Runs one stochastic self-chat of seed 1 at each of 1, 2, 4 and 8 minutes
with both agents wrapped in a policy that reads `obs.context` on every tick
and then decides as the stochastic policy does, and checks that each trace
is the one the plain policy makes. The shortest reading run goes once,
untimed, before any timed run. Prints the best of --repeats in µs of
CPU time per tick for each length, with and without the reads, and for each
the exponent of a least-squares fit of log run time against log length: 1
means the cost of a tick does not grow with the run.

    python3 scripts/context_cost.py [--repeats N]
"""

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dde.segments import TICK_MS
from dde.simulate import run_selfchat, stochastic_run

MINUTES = (1, 2, 4, 8)
SEED = 1


class ReadsContext:
    """`policy`, after reading the context it is given."""

    def __init__(self, policy):
        self.policy = policy

    def default_response(self):
        return self.policy.default_response()

    def decide(self, obs, state, mode):
        obs.context
        return self.policy.decide(obs, state, mode)


def fitted_exponent(xs, ys) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    plain = [stochastic_run(SEED, minutes * 60000) for minutes in MINUTES]
    reading = [dataclasses.replace(run, agents=tuple(map(ReadsContext, run.agents))) for run in plain]
    runs = reading + plain
    seconds, traces = [math.inf] * len(runs), [None] * len(runs)
    run_selfchat(runs[0])  # untimed: the process's first run pays its warm-up
    for _ in range(args.repeats):  # the runs interleave, so a slow spell spreads over all of them
        for i, run in enumerate(runs):
            t0 = time.process_time()
            traces[i] = run_selfchat(run)
            seconds[i] = min(seconds[i], time.process_time() - t0)
    n = len(MINUTES)
    for i, (minutes, run) in enumerate(zip(MINUTES, plain)):
        if traces[i].to_json() != traces[n + i].to_json():
            print(f"{minutes} min: the context read changed the trace", file=sys.stderr)
            return 1
        ticks = run.duration_ms // TICK_MS
        print(f"{minutes} min: {1e6 * seconds[i] / ticks:.1f} us/tick ({ticks} ticks)")
        print(f"{minutes} min, plain policy: {1e6 * seconds[n + i] / ticks:.1f} us/tick")
    print(f"exponent of run time against length: {fitted_exponent(MINUTES, seconds[:n]):.2f}")
    print(f"exponent of plain-policy run time against length: {fitted_exponent(MINUTES, seconds[n:]):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
