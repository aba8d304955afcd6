"""Command-line surface: simulate, label, analyze, ingest, tokenize, eval-actions.

Defaults can come from a pipeline config file pointed at by $DDE_CONFIG;
explicit flags always win. All outputs are deterministic for identical inputs
and flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import analytics, labeler, segments, simulate, units, vad
from ._schema import expect_object, finite_float, number, one_of, read_field, read_json, section
from .errors import DuplexError, ValidationError

ENV_CONFIG = "DDE_CONFIG"


def _load_pipeline_config():
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    cfg = read_json(path, f"${ENV_CONFIG}")
    expect_object(cfg, f"${ENV_CONFIG}")
    return cfg


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _tick_ms_guard(value: str) -> int:
    ms = int(value)
    if ms != segments.TICK_MS:
        raise argparse.ArgumentTypeError(
            f"tick-ms is fixed at {segments.TICK_MS} (read-only)"
        )
    return ms


# ------------------------------------------------------------------ simulate

# --policy name -> the library's run builder; the first is the default
RUNS = {"cascaded": simulate.cascaded_run, "stochastic": simulate.stochastic_run}


def _make_run(args, cfg) -> simulate.SimRun:
    """The --run-config run, or RUNS[policy](seed, duration_ms) from flags, else `sim`."""
    sim_cfg = section(cfg, "sim")
    if args.run_config:
        run = simulate.read_run_config(args.run_config)
        return run if args.seed is None else dataclasses.replace(run, seed=args.seed)
    seed = args.seed if args.seed is not None else read_field(sim_cfg, "seed", "sim", default=0)
    duration_ms = (
        read_field(
            {"--duration-s": args.duration_s}, "--duration-s",
            convert=lambda s: int(finite_float(s) * 1000),
        )
        if args.duration_s is not None
        else read_field(sim_cfg, "duration_ms", "sim", default=simulate.SimRun.duration_ms)
    )
    policy = args.policy or read_field(sim_cfg, "policy", "sim", one_of(*RUNS), next(iter(RUNS)))
    return RUNS[policy](seed, duration_ms)


def cmd_simulate(args, cfg) -> int:
    run = _make_run(args, cfg)
    trace = simulate.run_selfchat(run)
    out = Path(args.out)
    segments.write_trace(trace, out)
    speech = [trace.total_speech_ms(i) for i in (0, 1)]
    print(
        f"wrote {out}: {trace.duration_ms}ms, "
        f"speech A={speech[0]}ms B={speech[1]}ms, seed={run.seed}"
    )
    return 0


# --------------------------------------------------------------------- label

def cmd_label(args, cfg) -> int:
    trace = segments.read_trace(args.trace)
    vocab = None
    if args.vocab:
        vocab = units.BpeVocab.from_dict(read_json(args.vocab, "vocab JSON"))
    window_ms = (
        args.window_ms
        if args.window_ms is not None
        else read_field(cfg, "window_ms", default=segments.WINDOW_MS)
    )
    speakers = [0, 1] if args.speaker == "both" else [segments.speaker_index(args.speaker)]
    all_samples = []
    for sp in speakers:
        all_samples.extend(
            labeler.build_samples(trace, sp, window_ms=window_ms, vocab=vocab)
        )
    context_mode = "inline" if args.inline_context else "ref"
    labeler.write_samples_jsonl(
        all_samples,
        args.out,
        context_mode=context_mode,
        trace_path=args.trace,
    )
    hist = labeler.action_histogram(all_samples)
    print(f"wrote {args.out}: {len(all_samples)} samples")
    print(" ".join(f"{name}={count}" for name, count in hist.items()))
    return 0


# ------------------------------------------------------------------- analyze

def _trace_paths(arg: str):
    p = Path(arg)
    if p.is_dir():
        paths = sorted(p.glob("*.json"))
        if not paths:
            raise DuplexError(f"no *.json traces in {p}")
        return paths
    return [p]


def _mean_report(reports):
    gap_values = [r.avg_gap_ms for r in reports if r.avg_gap_ms is not None]
    return analytics.ConversationReport(
        duration_ms=sum(r.duration_ms for r in reports),
        overlaps_per_min=sum(r.overlaps_per_min for r in reports) / len(reports),
        backchannels_per_min=sum(r.backchannels_per_min for r in reports) / len(reports),
        pauses_per_min=sum(r.pauses_per_min for r in reports) / len(reports),
        avg_gap_ms=sum(gap_values) / len(gap_values) if gap_values else None,
    )


def cmd_analyze(args, cfg) -> int:
    fmt = args.format or read_field(cfg, "report_format", "", one_of("json", "table"), "table")
    paths = _trace_paths(args.trace)
    rows = []
    for path in paths:
        if path.suffix == ".jsonl":  # one conversation per line
            for i, trace in enumerate(segments.read_traces_jsonl(path)):
                rows.append((f"{path.stem}:{i}", analytics.conversation_report(trace)))
        else:
            trace = segments.read_trace(path)
            rows.append((path.stem, analytics.conversation_report(trace)))
    if len(rows) > 1:
        rows.append(("mean", _mean_report([r for _, r in rows])))
    if args.compare:
        ref = read_json(args.compare, "compare report")
        expect_object(ref, "compare")
        rows.append(
            (
                Path(args.compare).stem,
                analytics.ConversationReport(
                    duration_ms=read_field(ref, "duration_ms", default=0),
                    overlaps_per_min=read_field(ref, "overlaps_per_min", convert=number),
                    backchannels_per_min=read_field(ref, "backchannels_per_min", convert=number),
                    pauses_per_min=read_field(ref, "pauses_per_min", convert=number),
                    avg_gap_ms=read_field(ref, "avg_gap_ms", convert=number, default=None),
                ),
            )
        )
    if fmt == "json":
        payload = {name: rep.to_dict() for name, rep in rows}
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = analytics.format_report_table(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
            fp.write("\n")
    return 0


# -------------------------------------------------------------------- ingest

def cmd_ingest(args, cfg) -> int:
    vad_cfg_data = dict(section(cfg, "vad"))
    unknown = sorted(set(vad_cfg_data) - {f.name for f in dataclasses.fields(vad.VadConfig)})
    if unknown:
        raise ValidationError(f"vad.{unknown[0]}: unknown field")
    for key, value in (
        ("energy_threshold_db", args.energy_threshold_db),
        ("min_speech_ms", args.min_speech_ms),
        ("min_gap_ms", args.min_gap_ms),
    ):
        if value is not None:
            vad_cfg_data[key] = value
    vad_cfg = vad.VadConfig.from_dict(vad_cfg_data, "vad")
    if args.audio:
        a, b = vad.load_conversation_audio(stereo_path=args.audio)
    else:
        if not (args.audio_a and args.audio_b):
            raise DuplexError("give --audio or both --audio-a and --audio-b")
        a, b = vad.load_conversation_audio(mono_paths=(args.audio_a, args.audio_b))
    trace = vad.vad_from_samples((a, b), vad_cfg)
    segments.write_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.duration_ms}ms, "
        f"{len(trace.channels[0])}+{len(trace.channels[1])} segments"
    )
    return 0


# ------------------------------------------------------------------ tokenize

def _collect_unit_sequences(paths):
    seqs = []
    for path in paths:
        trace = segments.read_trace(path)
        for ch in trace.channels:
            for seg in ch:
                if seg.units is not None:
                    seqs.append(units.dedup(seg.units))
    return seqs


def cmd_tokenize_train(args, cfg) -> int:
    bpe_cfg = section(cfg, "bpe")
    num_merges = (
        args.num_merges
        if args.num_merges is not None
        else read_field(bpe_cfg, "num_merges", "bpe", default=0)
    )
    base = (
        args.base_alphabet_size
        if args.base_alphabet_size is not None
        else read_field(bpe_cfg, "base_alphabet_size", "bpe", default=500)
    )
    paths = [p for arg in args.traces for p in _trace_paths(arg)]
    corpus = _collect_unit_sequences(paths)
    if not corpus:
        raise DuplexError("no unit-annotated segments found in the given traces")
    vocab = units.bpe_train(corpus, num_merges=num_merges, base_alphabet_size=base)
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.write(vocab.to_json(indent=2))
        fp.write("\n")
    print(
        f"wrote {args.out}: {len(vocab.merges)} merges over alphabet {base} "
        f"({len(corpus)} sequences)"
    )
    return 0


def cmd_tokenize_apply(args, cfg) -> int:
    vocab = units.BpeVocab.from_dict(read_json(args.vocab, "vocab JSON"))
    paths = [p for arg in args.traces for p in _trace_paths(arg)]
    n = 0
    with open(args.out, "w", encoding="utf-8") as out:
        for path in paths:
            trace = segments.read_trace(path)
            for ci, ch in enumerate(trace.channels):
                for si, seg in enumerate(ch):
                    if seg.units is None:
                        continue
                    encoded = units.bpe_encode(vocab, units.dedup(seg.units))
                    out.write(
                        json.dumps(
                            {
                                "trace": str(path),
                                "speaker": "AB"[ci],
                                "segment_index": si,
                                "start_ms": seg.start_ms,
                                "tokens": list(encoded),
                            },
                            sort_keys=True,
                        )
                    )
                    out.write("\n")
                    n += 1
    print(f"wrote {args.out}: {n} encoded sequences")
    return 0


# -------------------------------------------------------------- eval-actions

def cmd_eval_actions(args, cfg) -> int:
    gold = labeler.read_actions_jsonl(args.gold)
    pred = labeler.read_actions_jsonl(args.predicted)
    missing = sorted(set(gold) - set(pred))
    if missing:
        raise DuplexError(
            f"predictions missing for {len(missing)} keys, first {missing[0]}"
        )
    keys = sorted(gold)
    report = analytics.classification_report(
        [gold[k] for k in keys], [pred[k] for k in keys]
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(analytics.format_class_report(report))
    return 0


# ---------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dde",
        description="Full-duplex dialogue engine: simulate, label, tokenize, analyze.",
    )
    parser.add_argument(
        "--tick-ms",
        type=_tick_ms_guard,
        default=segments.TICK_MS,
        help="decision interval; fixed at 160 (read-only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a seeded self-chat and write the trace")
    p.add_argument("--policy", choices=list(RUNS))
    p.add_argument("--seed", type=int)
    p.add_argument("--duration-s", type=float)
    p.add_argument(
        "--run-config",
        help="JSON SimRun file; replaces --policy and --duration-s, --seed still applies",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("label", help="build per-tick training samples from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--speaker", default="both", help="A, B, or both")
    p.add_argument("--window-ms", type=int, default=None)
    p.add_argument("--vocab", help="BPE vocab JSON for SPK targets")
    p.add_argument("--inline-context", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("analyze", help="conversation report for trace file(s)")
    p.add_argument("--trace", required=True, help="trace JSON or a directory of them")
    p.add_argument("--format", choices=["json", "table"])
    p.add_argument("--compare", help="reference report JSON for a side-by-side row")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ingest", help="WAV -> trace via energy VAD")
    p.add_argument("--audio", help="stereo WAV (one channel per speaker)")
    p.add_argument("--audio-a", help="mono WAV for speaker A")
    p.add_argument("--audio-b", help="mono WAV for speaker B")
    p.add_argument("--energy-threshold-db", type=float)
    p.add_argument("--min-speech-ms", type=int)
    p.add_argument("--min-gap-ms", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tokenize", help="train or apply unit BPE")
    tok = p.add_subparsers(dest="tokenize_command", required=True)
    t = tok.add_parser("train", help="learn merges from unit-annotated traces")
    t.add_argument("--traces", nargs="+", required=True)
    t.add_argument("--num-merges", type=int)
    t.add_argument("--base-alphabet-size", type=int)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_tokenize_train)
    t = tok.add_parser("apply", help="dedup+encode unit-annotated segments")
    t.add_argument("--vocab", required=True)
    t.add_argument("--traces", nargs="+", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_tokenize_apply)

    p = sub.add_parser("eval-actions", help="score predicted actions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--format", choices=["json", "table"], default="table")
    p.set_defaults(func=cmd_eval_actions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_pipeline_config()
        return args.func(args, cfg)
    except (DuplexError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
