#!/usr/bin/env python3
"""A/B pairs of the pipeline benchmark, or a diff of CLI outputs: two commits.

    python3 scripts/ab.py BASE [HEAD] --pairs N --workload W [--seed S] [--seconds T]
    python3 scripts/ab.py BASE [HEAD] --diff

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

With --diff, each tree instead runs one fixed corpus of `dde` invocations
through `dde.cli.main`, in one subprocess per tree, on the same scratch
paths: every subcommand and flag on inputs from pipebench/gen.py, seeded
run configs, and every input of tests/test_schema.py's CLI fuzz mutated at
each JSON path, truncated and broken by a 0xff byte. It compares each
invocation's exit code, stdout, stderr and output files, prints the
differing cases as JSON grouped by the first stderr line, with the count of
identical cases on stderr, and exits 1 when any case differs.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
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


def _module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class Corpus:
    """The --diff cases, written into `root`: each distinct input file once,
    as blobs/<sha256>, and cases.json, a list of {name, argv, files, config}.
    An argv item "@name" is the path of input or output `name` in the work
    dir, `files` maps each input's name there to its blob, and `config` says
    whether $DDE_CONFIG points at the input pipeline.json."""

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "blobs").mkdir(parents=True)
        self.cases = []

    def blob(self, content: bytes) -> str:
        digest = hashlib.sha256(content).hexdigest()
        (self.root / "blobs" / digest).write_bytes(content)
        return digest

    def add(self, name, argv, files, config=False):
        self.cases.append({"name": name, "argv": argv, "files": files, "config": config})

    def save(self):
        (self.root / "cases.json").write_text(json.dumps(self.cases))


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _flag_cases(corpus, scratch):
    """Every subcommand and flag on inputs from pipebench/gen.py."""
    import numpy as np

    gen = _module(ROOT / "pipebench" / "gen.py")
    rng = np.random.default_rng(1)
    lexicon = gen.Lexicon(rng, alphabet=50)
    traces = {"plain.json": gen.trace_dict(gen.conversation(rng, 60000), 60000)}
    for name in ("units.json", "units2.json"):
        traces[name] = gen.trace_dict(gen.conversation(rng, 30000), 30000, lexicon, rng)
    channels = gen.conversation(rng, 4000, min_sep_ms=200)
    pcm = gen.speech_audio(rng, channels, 4000, f0_hz=(120.0, 210.0))
    for name, chans in (("conv.wav", pcm), ("a.wav", pcm[:1]), ("b.wav", pcm[1:])):
        gen.write_wav(Path(scratch, name), chans)
    actions = ["SIL", "CON", "SPK", "STP"]
    samples = [[{"agent": "AB"[i % 2], "tick_index": i // 2, "action": actions[int(rng.integers(4))]}
                for i in range(40)] for _ in range(2)]
    sequences = [gen.dedup(lexicon.units(rng, 40)) * 2 for _ in range(4)]
    files = {name: corpus.blob(_json_bytes(doc)) for name, doc in traces.items()}
    files.update({name: corpus.blob(Path(scratch, name).read_bytes()) for name in ("conv.wav", "a.wav", "b.wav")})
    files["traces/c0.json"], files["traces/c1.json"] = files["plain.json"], files["units.json"]
    files["convs.jsonl"] = corpus.blob("".join(json.dumps(t) + "\n" for t in traces.values()).encode())
    files["vocab.json"] = corpus.blob(_json_bytes(lexicon.vocab(30)))
    files["ref.json"] = corpus.blob(_json_bytes(
        {"overlaps_per_min": 5.7, "backchannels_per_min": 2.1, "pauses_per_min": 12.2, "avg_gap_ms": 393}))
    files["gold.jsonl"], files["pred.jsonl"] = (
        corpus.blob("".join(json.dumps(r) + "\n" for r in side).encode()) for side in samples)
    # two-line JSON-lines inputs whose second line is bad: cut short, not an object, or a reversed segment
    first = json.dumps(traces["plain.json"]) + "\n"
    bad_lines = {"cut": first[:40], "list": "[1]",
                 "reversed": json.dumps({"duration_ms": 1000, "channels": [[{"start_ms": 5, "end_ms": 2}], []]})}
    for name, line in bad_lines.items():
        files[f"convs_{name}.jsonl"] = corpus.blob(f"{first}{line}\n".encode())
    first = json.dumps(samples[0][0]) + "\n"
    files["gold_cut.jsonl"] = corpus.blob(f"{first}{first[:20]}\n".encode())
    files["pipeline.json"] = corpus.blob(_json_bytes({
        "report_format": "json", "window_ms": 4000, "sim": {"seed": 3, "duration_ms": 20000, "policy": "stochastic"},
        "bpe": {"num_merges": 5, "base_alphabet_size": 50},
        "vad": {"energy_threshold_db": 8.0, "min_speech_ms": 60, "min_gap_ms": 40}}))
    stochastic, cascaded = {"kind": "stochastic"}, {"kind": "cascaded"}
    runs = {
        "stochastic": {"seed": 5, "duration_ms": 60000, "agents": [{"policy": stochastic}] * 2},
        "tuned": {"seed": 6, "duration_ms": 60000, "opening_speaker": "B", "window_ms": 4000, "agents": [
            {"policy": {**stochastic, "p_backchannel_per_tick": 0.02, "pause_insertion_rate": 0.2},
             "response": {"kind": "lognormal", "mean_ms": 2000.0, "sigma": 0.4}},
            {"policy": {"kind": "cascaded", "eot_silence_ms": 480},
             "response": {"kind": "uniform", "min_ms": 960, "max_ms": 3200}}]},
        "corpus": {"seed": 7, "duration_ms": 30000, "agents": [
            {"policy": stochastic, "response": {"kind": "corpus", "sequences": sequences}},
            {"policy": cascaded, "response": {"kind": "corpus", "sequences": sequences[:2]}}]},
        "scripted": {"seed": 8, "duration_ms": 8000, "agents": [
            {"policy": {"kind": "scripted", "steps": [[0, "SPK", 1600], [20, "SPK"], [30, "STP"]]}},
            {"policy": {"kind": "scripted", "steps": [[12, "SPK", 960], [24, "SPK", 4800]]}}]},
        "contract": {"seed": 1, "duration_ms": 1600, "agents": [
            {"policy": {"kind": "scripted", "steps": [[0, "CON"]]}}, {"policy": cascaded}]},
        "negative_corpus_id": {"seed": 1, "agents": [
            {"policy": stochastic, "response": {"kind": "corpus", "sequences": [[-1] * 8]}}, {"policy": cascaded}]},
        "negative_corpus_id_b": {"seed": 1, "duration_ms": 160, "agents": [
            {"policy": cascaded}, {"policy": cascaded, "response": {"kind": "corpus", "sequences": [[-1] * 8]}}]},
    }
    for name, doc in runs.items():
        files[f"run_{name}.json"] = corpus.blob(_json_bytes(doc))

    commands = [[cmd, "--help"] for cmd in ("simulate", "label", "analyze", "ingest", "eval-actions")]
    commands += [["tokenize", "train", "--help"], ["tokenize", "apply", "--help"], [], ["--help"], ["bogus"]]
    for policy in ("cascaded", "stochastic"):
        for seed in ("1", "2"):
            commands.append(["simulate", "--policy", policy, "--seed", seed, "--duration-s", "60", "--out", "@t.json"])
    commands.append(["simulate", "--out", "@t.json"])
    commands += [["simulate", "--run-config", f"@run_{name}.json", "--out", "@t.json"] for name in runs]
    for trace in ("plain.json", "units.json"):
        for speaker in ("A", "B", "both", None):
            for extra in ([], ["--window-ms", "4000"], ["--vocab", "@vocab.json"], ["--inline-context"],
                          ["--window-ms", "8000", "--vocab", "@vocab.json", "--inline-context"]):
                who = [] if speaker is None else ["--speaker", speaker]
                commands.append(["label", "--trace", f"@{trace}", *who, *extra, "--out", "@s.jsonl"])
    for trace in ("plain.json", "units.json", "traces", "convs.jsonl"):
        for fmt in ([], ["--format", "json"], ["--format", "table"]):
            for extra in ([], ["--compare", "@ref.json"], ["--out", "@report.txt"]):
                commands.append(["analyze", "--trace", f"@{trace}", *fmt, *extra])
    commands += [["analyze", "--trace", f"@convs_{name}.jsonl"] for name in bad_lines]
    for audio in (["--audio", "@conv.wav"], ["--audio-a", "@a.wav", "--audio-b", "@b.wav"]):
        for extra in ([], ["--energy-threshold-db", "6"], ["--min-speech-ms", "100"], ["--min-gap-ms", "200"]):
            commands.append(["ingest", *audio, *extra, "--out", "@t.json"])
    for merges in ([], ["--num-merges", "0"], ["--num-merges", "40"]):
        for alphabet in ([], ["--base-alphabet-size", "64"]):
            commands.append(["tokenize", "train", "--traces", "@units.json", "@units2.json", *merges, *alphabet,
                             "--out", "@v.json"])
    commands.append(["tokenize", "apply", "--vocab", "@vocab.json", "--traces", "@units.json", "@units2.json",
                     "--out", "@e.jsonl"])
    for fmt in ([], ["--format", "json"], ["--format", "table"]):
        commands.append(["eval-actions", "--gold", "@gold.jsonl", "--predicted", "@pred.jsonl", *fmt])
    commands.append(["eval-actions", "--gold", "@gold_cut.jsonl", "--predicted", "@pred.jsonl"])
    for i, argv in enumerate(commands):
        needed = {a[1:] for a in argv if a.startswith("@")}
        inputs = {n: b for n, b in files.items() if n in needed or n.split("/")[0] in needed}
        corpus.add(f"flags {i}", argv, inputs)
        if argv:
            corpus.add(f"flags {i} with $DDE_CONFIG", argv, {**inputs, "pipeline.json": files["pipeline.json"]}, True)


def _fuzz_cases(corpus):
    """tests/test_schema.py's CLI fuzz inputs, each mutated at every JSON path
    and, at 16 places per file, truncated or broken by a 0xff byte."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        fuzz = _module(ROOT / "tests" / "test_schema.py")
    finally:
        del sys.path[:2]
    clean = {name: fuzz._serialize(name, doc) for name, doc in fuzz.JSON_INPUTS.items()}
    clean.update(fuzz.WAV_INPUTS)
    variants = [(f"{name} {list(path)} = {json.dumps(value)}", name,
                 fuzz._serialize(name, fuzz._set(fuzz.JSON_INPUTS[name], path, value)))
                for name, path, value in fuzz.MUTATIONS]
    for name, content in clean.items():
        for at in range(0, len(content), -(-len(content) // 16)):
            variants.append((f"{name} cut at {at}", name, content[:at]))
            variants.append((f"{name} 0xff at {at}", name, content[:at] + b"\xff" + content[at + 1:]))
    blobs = {name: corpus.blob(content) for name, content in clean.items()}
    for label, name, content in variants:
        files = {**blobs, name: corpus.blob(content)}
        for argv in fuzz.COMMANDS:
            if name == "pipeline.json" or f"@{name}" in argv:
                corpus.add(f"{label}: {' '.join(argv[:2])}", argv, files, True)


def run_cases(corpus_dir, work, out):
    """Run every case of the corpus in `corpus_dir` through this process's
    `dde.cli.main`, each in the emptied dir `work`, and write one result per
    case to `out` as JSON: exit code, stdout, stderr and the sha256 of each
    file the case left in `work` that is not one of its inputs."""
    from dde.cli import main

    corpus_dir, work = Path(corpus_dir), Path(work)
    results = []
    for case in json.loads((corpus_dir / "cases.json").read_text()):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        for name, blob in case["files"].items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(corpus_dir / "blobs" / blob, work / name)
        os.environ.pop("DDE_CONFIG", None)
        if case["config"]:
            os.environ["DDE_CONFIG"] = str(work / "pipeline.json")
        argv = [str(work / a[1:]) if a.startswith("@") else a for a in case["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a result to compare too
                code = f"raised {type(exc).__name__}: {exc}"
        made = (p for p in sorted(work.rglob("*")) if p.is_file() and str(p.relative_to(work)) not in case["files"])
        outputs = {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in made}
        results.append({"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "outputs": outputs})
    Path(out).write_text(json.dumps(results))


def compare(cases, base, head):
    """The diff of two runs of `cases`, as `run_cases` wrote them: a count of
    cases and of identical ones, and each differing case with both results
    under the first line of the head's stderr (the base's when the head wrote
    none)."""
    groups = {}
    for case, b, h in zip(cases, base, head, strict=True):
        if b != h:
            first = (h["stderr"] or b["stderr"] or "(no stderr)").splitlines()[0]
            groups.setdefault(first, []).append({"case": case["name"], "argv": case["argv"], "base": b, "head": h})
    differing = sum(map(len, groups.values()))
    return {"cases": len(cases), "identical": len(cases) - differing, "differing": groups}


def diff(trees, scratch):
    """Build the corpus in `scratch`, run it in each tree and compare."""
    corpus = Corpus(Path(scratch, "corpus"))
    _flag_cases(corpus, scratch)
    _fuzz_cases(corpus)
    corpus.save()
    runner = "import sys; sys.path.insert(0, sys.argv[1]); import ab; ab.run_cases(*sys.argv[2:])"
    results = []
    for i, tree in enumerate(trees):
        out = Path(scratch, f"results{i}.json")
        argv = [sys.executable, "-c", runner, str(ROOT / "scripts"), str(corpus.root), str(Path(scratch, "work")),
                str(out)]
        env = {k: v for k, v in os.environ.items() if k not in ("DDE_CONFIG", "PYTHONPATH")}
        done = subprocess.run(argv, cwd=tree, env={**env, "PYTHONPATH": str(Path(tree, "src"))})
        if done.returncode:
            sys.exit(f"error: the corpus run in {tree} exited {done.returncode}")
        results.append(json.loads(out.read_text()))
    return compare(corpus.cases, *results)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--diff", action="store_true", help="compare CLI outputs instead of timing")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    if not args.diff and (args.pairs is None or args.workload is None):
        parser.error("--pairs and --workload are required without --diff")
    trees = []
    try:
        for commit, prefix in ((args.base, "ab-base-"), (args.head, "ab-head-")):
            trees.append(tempfile.mkdtemp(prefix=prefix))
            export(commit, trees[-1])
        if args.diff:
            trees.append(tempfile.mkdtemp(prefix="ab-diff-"))
            doc = {"base": args.base, "head": args.head, **diff(trees[:2], trees[2])}
            print(json.dumps(doc, indent=1))
            print(f"{doc['identical']} of {doc['cases']} cases identical "
                  f"({100 * doc['identical'] / doc['cases']:.1f}%)", file=sys.stderr)
            return 1 if doc["identical"] < doc["cases"] else 0
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
