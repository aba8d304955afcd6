#!/usr/bin/env python3
"""Pipeline benchmark for dde: four CLI workloads with an outside-in trace.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload label --seed 1 --seconds 20 --trace 0

One caller, one process, one thread: a closed loop that issues each `dde`
command (in-process, through `dde.cli.main(argv)`) or library call when the
previous one returns. A pass is one run of the workload's operations; the
loop repeats passes for `--seconds` after one warm-up pass. An op's time is
its median over passes, and a pass's time is the sum of those medians.

With `--trace 0` the last stdout line reports the end-to-end metrics:
`conv_min_per_s` (conversation minutes of input per second of pass time),
`setup_s` (median of SETUP_REPS fresh `import dde` plus input generations)
and `peak_rss_mb`. Both times are rescaled to a reference machine speed (see
SpeedSampler); the record line keeps the wall-clock figures.
With `--trace 1` traced and untraced passes alternate; the last line reports
the per-layer metrics of the traced passes, the per-command timings of the
untraced ones, the tracing overhead and the three kernel cases. The line
before it is a JSON record of the environment, the seed, every timing and
the output digest. Spans are written to `.bench_out/`.

Every operation is checked: exit code, exception, an invariant of its output
(on the warm-up pass) and a SHA-256 digest of its outputs that must repeat on
every later pass, traced or not. Any of these failing counts the operation as
failed. Without `src/dde` next to this directory the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # import everything from source; leave the checkout as found

import argparse
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "segments", "labeler", "units", "simulate", "analytics", "vad", "_kernels")
SETUP_REPS = 5
REFERENCE_S = 0.010     # probe seconds that define the reference machine speed
PROBE_EVERY_S = 0.1     # wall time between two speed probes
MIN_PASSES = 2          # per kind (traced / untraced) in a run
COMMAND_METRICS = ("simulate_ms", "label_ms", "label_inline_ms", "tokenize_train_ms",
                   "tokenize_apply_ms", "uer_ms", "ingest_ms", "naturalness_ms")


def probe():
    """Seconds for a fixed piece of interpreter and numpy work with no dde
    code: a sample of the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(50_000):
        acc += i * i % 7
        table[i % 509] = table.get(i % 509, 0) + 1
    x = np.arange(480, dtype=np.float64)
    for _ in range(20):
        acc += int(np.correlate(x, x, mode="full")[479])
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the machine's speed while a pass runs.

    On a shared host the same work can take 30% more time from one second to
    the next. Speed is therefore sampled every PROBE_EVERY_S from a
    SIGALRM handler, so samples land inside long dde calls as well, and each
    call's time is rescaled by the probes taken before, during and after it.
    `now()` is a clock that leaves out the time spent in the handler.
    """

    def __init__(self):
        self.samples = []
        self._stolen = 0.0
        self._busy = False

    def now(self):
        return time.perf_counter() - self._stolen

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(probe())
        self._stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def call(self, fn, *args):
        """Run fn while sampling; returns (result, seconds, probe window)."""
        first = len(self.samples) - 1
        t0 = self.now()
        result = fn(*args)
        return result, self.now() - t0, (first, len(self.samples))

    def speed(self, window):
        """Mean probe seconds from the last probe before a call to the first
        one after it. Valid once the sampler has exited."""
        first, last = window
        return statistics.fmean(self.samples[first:last + 1])


def fresh_import():
    """Import the package from source, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "dde" or m.startswith("dde.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"dde.{name}") for name in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "dde":
        raise ImportError(f"dde imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def environment(mods):
    sha = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref
    has_numba = importlib.util.find_spec("numba") is not None
    return {
        "backend": mods["_kernels"].backend(),
        "numba": "installed" if has_numba else "not installed: the numba kernels could not be timed",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
    }


def digest(op, value):
    h = hashlib.sha256()
    h.update(json.dumps(value, sort_keys=True).encode())
    for path in op.outputs:
        h.update(path.encode())
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def execute(op, cli, tracer):
    """Run one op; returns (ok, value). Terminal output is captured, not shown."""
    try:
        if op.argv is None:
            return True, op.call()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli.main(op.argv)
                else:
                    with tracer.span(f"cli.{op.command}"):
                        rc = cli.main(op.argv)
            except SystemExit as exc:   # argparse rejects its argv this way
                rc = exc.code
    except Exception:   # a crash in the package is a failed operation
        return False, traceback.format_exc(limit=3)
    if rc != 0:
        return False, f"exit {rc}: {err.getvalue().strip()}"
    return True, out.getvalue()


class Runner:
    def __init__(self, workload, mods, sampler):
        self.workload = workload
        self.mods = mods
        self.sampler = sampler
        self.ops = workload.ops()
        self.reference = None       # per-op digests of the warm-up pass
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None):
        """One pass. Returns per op its seconds and the machine speed around it."""
        times, windows, digests = [], [], []
        with self.sampler as sampler:
            for i, op in enumerate(self.ops):
                (ok, value), seconds, window = sampler.call(
                    execute, op, self.mods["cli"], tracer)
                times.append(seconds)
                windows.append(window)
                self.attempted += 1
                if not ok:
                    self.failures.append(f"{op.metric}: {value}")
                    digests.append(None)
                    continue
                digests.append(digest(op, value))
                if self.reference is None:
                    message = self.workload.check(op, value)
                    if message:
                        self.failures.append(message)
                        digests[-1] = None
                elif digests[-1] != self.reference[i]:
                    self.failures.append(
                        f"{op.metric}: output digest differs from the warm-up pass")
        if self.reference is None:
            self.reference = digests
        return times, [self.sampler.speed(w) for w in windows]

    def pass_digest(self):
        return hashlib.sha256("".join(d or "-" for d in self.reference).encode()).hexdigest()


def kernel_cases(kernels, rng):
    """The three kernel micro-cases, median ms of several calls each,
    with their computed operation counts."""

    def timed(fn, *args, repeat):
        fn(*args)
        times = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn(*args)
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    a = rng.integers(0, 500, size=3000)
    b = rng.integers(0, 500, size=3000)
    x = rng.normal(size=16000 * 600)
    t = np.arange(16000 * 10) / 16000
    tone = np.sin(2 * np.pi * 180.0 * t) + 0.05 * rng.normal(size=t.size)
    f0_args = (tone, 16000, 320, 480, 40, 267)
    return {
        "kernel_case.levenshtein_3000x3000.ms": timed(kernels.levenshtein, a, b, repeat=5),
        "kernel_case.levenshtein_3000x3000.cells_computed": a.size * b.size,
        "kernel_case.frame_rms_10min.ms": timed(kernels.frame_rms, x, 320, repeat=5),
        "kernel_case.frame_rms_10min.samples_computed": x.size,
        "kernel_case.f0_frames_10s.ms": timed(kernels.f0_frames, *f0_args, repeat=3),
        "kernel_case.f0_frames_10s.frame_lags_computed": (tone.size // 320) * (267 - 40 + 1),
    }


def median_metrics(rows):
    """Key-wise median over passes; integer counts stay integers."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if all(isinstance(v, int) for v in values):
            out[key] = statistics.median_low(values)
        else:
            out[key] = statistics.median(values)
    return out


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def measure(args):
    def setup():
        mods = fresh_import()
        workload = WORKLOADS[args.workload](mods)
        workload.setup(np.random.default_rng(args.seed))
        return mods, workload

    sampler = SpeedSampler()
    setups = []     # (seconds, machine speed around the set-up)
    for _ in range(SETUP_REPS):
        with sampler:
            (mods, workload), seconds, window = sampler.call(setup)
        setups.append((seconds, sampler.speed(window)))
    runner = Runner(workload, mods, sampler)
    runner.run_pass()                                # warm-up; checks invariants
    tracer = spans.Tracer(mods, sampler.now) if args.trace else None
    plain, traced, layer_rows = [], [], []
    start = time.perf_counter()
    pass_id = 0
    while (time.perf_counter() - start < args.seconds
           or len(plain) < MIN_PASSES or (tracer and len(traced) < MIN_PASSES)):
        pass_id += 1
        if tracer is not None and pass_id % 2:
            tracer.pass_id = pass_id
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
            layer_rows.append(spans.pass_layers(tracer, pass_id))
        else:
            plain.append(runner.run_pass())

    def per_op(passes, normalise):
        """Median over passes of each op's seconds, wall or at the reference speed."""
        return [statistics.median(
                    t[i] * (REFERENCE_S / v[i] if normalise else 1.0) for t, v in passes)
                for i in range(len(runner.ops))]

    conv_min = workload.conv_min
    plain_s = sum(per_op(plain, True))
    setup_s = [wall * REFERENCE_S / speed for wall, speed in setups]
    commands = defaultdict(float)
    for op, seconds in zip(runner.ops, per_op(plain, False)):
        commands[op.metric] += seconds * 1000.0
    failed = len(runner.failures)
    spec = load_spec()
    record = {
        "workload": args.workload, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(mods),
        "passes": len(plain),
        "conv_min_per_pass": conv_min,
        "setup_wall_s": [wall for wall, _ in setups],
        "setup_ref_s": setup_s,
        "pass_wall_s": [sum(t) for t, _ in plain],
        "probe_s": [statistics.fmean(v) for _, v in plain],
        "conv_min_per_wall_s": conv_min / sum(per_op(plain, False)),
        "command_ms": commands,
        "digest": runner.pass_digest(),
        "failures": runner.failures[:20],
    }
    if tracer is None:
        metrics = {
            "conv_min_per_s": conv_min / plain_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
    else:
        traced_s = sum(per_op(traced, True))
        metrics = median_metrics(layer_rows)
        metrics.update({name: commands.get(name, 0.0) for name in COMMAND_METRICS})
        metrics["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
        metrics["failed_ratio"] = failed / runner.attempted
        metrics.update(kernel_cases(mods["_kernels"], np.random.default_rng(args.seed)))
        record["traced_pass_wall_s"] = [sum(t) for t, _ in traced]
        kind = "per_layer"
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dde" / "__init__.py").is_file():
        print(f"error: no dde sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)   # relative paths keep the outputs, and their digests, seed-determined
    try:
        result = measure(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
