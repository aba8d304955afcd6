#!/usr/bin/env python3
"""A/B pairs of the pipeline benchmark: two commits, run alternately.

    python3 scripts/ab.py BASE [HEAD] --pairs N --workload W [--seed S] [--seconds T]

Exports the committed tree of each commit (HEAD by default) with `git
archive` into its own temp dir. The two dirs' paths have equal length,
because the length of a checkout's path moves end-to-end numbers by a few
percent. Then runs N pairs of untraced `pipebench/run.py` passes, one per
tree, the base first in even pairs and the head first in odd ones, and
removes both dirs.

For each end-to-end metric of BENCHMARK.json it prints both sides' median
and quartiles, the ratio of the medians and in how many pairs the head read
better (ties count for neither), with a verdict: `gain` when there were at
least 10 pairs, the head won at least 9 in 10 of them and its median is
better by more than the distance between the base's quartiles, `BROKEN` when its median is worse by more than
the metric's bound, `unresolved` when a side's quartiles lie further apart
than that bound, else `within bound`. A head whose operations fail more often
than the base's breaks the `failed_ratio` line. Exits 1 when a bound is
broken. Nothing under pipebench/ is edited; the trees are read as committed,
so uncommitted changes are not measured.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a gain needs this many pairs, and the head better in this share of them
GAIN_PAIRS, GAIN_SHARE = 10, 0.9


def quartiles(values):
    """(q1, median, q3) of values, taken inclusively."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(spec, pairs):
    """One row per end-to-end metric of the BENCHMARK.json document `spec`
    over `pairs`, a list of (base result, head result) as run.py prints
    them, and then a `failed_ratio` row."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        if sign * (hm - bm) < -bound * bm:
            verdict = "BROKEN"
        elif len(pairs) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(pairs) and sign * (hm - bm) > b3 - b1:
            verdict = "gain"
        elif b3 - b1 > bound * bm or h3 - h1 > bound * hm:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": metric["unit"], "base": (b1, bm, b3), "head": (h1, hm, h3),
                     "ratio": hm / bm, "wins": wins, "pairs": len(pairs), "verdict": verdict})
    failed = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in zip(*pairs)]
    rows.append({"name": "failed_ratio", "unit": "1", "base": (failed[0],) * 3, "head": (failed[1],) * 3,
                 "ratio": None, "wins": None, "pairs": len(pairs),
                 "verdict": "BROKEN" if failed[1] > failed[0] else "within bound"})
    return rows


def report(rows):
    """The rows as text lines, then `broken bounds: N` and the names."""
    lines = []
    for row in rows:
        base, head = ("{1:.4g} [{0:.4g}, {2:.4g}]".format(*row[side]) for side in ("base", "head"))
        ratio = "" if row["ratio"] is None else (
            f"ratio {row['ratio']:.3f}  head better in {row['wins']} of {row['pairs']}  ")
        lines.append(f"{row['name']} ({row['unit']}): base {base}  head {head}  {ratio}{row['verdict']}")
    broken = [row["name"] for row in rows if row["verdict"] == "BROKEN"]
    lines.append(f"broken bounds: {len(broken)}" + (f" ({', '.join(broken)})" if broken else ""))
    return lines


def export(commit, tree):
    """Write the committed tree of `commit` into the dir `tree`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        sys.exit(f"error: could not export {commit}")


def run(tree, args):
    """run.py's result line for one untraced run in `tree`."""
    argv = [sys.executable, "pipebench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    trees = []
    try:
        for commit, prefix in ((args.base, "ab-base-"), (args.head, "ab-head-")):
            trees.append(tempfile.mkdtemp(prefix=prefix))
            export(commit, trees[-1])
        spec = json.loads(Path(trees[0], "BENCHMARK.json").read_text())
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = {side: run(trees[side], args) for side in order}
            pairs.append((results[0], results[1]))
            values = ", ".join(f"{results[side]['metrics']['conv_min_per_s']['value']:.4g}" for side in (0, 1))
            print(f"pair {i + 1} of {args.pairs}: conv_min_per_s base, head {values}", file=sys.stderr)
    finally:
        for tree in trees:
            shutil.rmtree(tree)
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s a run: base {args.base}, head {args.head}")
    rows = summarize(spec, pairs)
    print("\n".join(report(rows)))
    return 1 if any(row["verdict"] == "BROKEN" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
