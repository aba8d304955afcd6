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
from functools import cache
from pathlib import Path

from . import analytics, labeler, segments, simulate, units, vad
from ._schema import at_least, expect_known_keys, expect_object, finite_float, integer
from ._schema import number, one_of, read_field, read_json, read_value, section, shown
from .errors import DuplexError, ValidationError

ENV_CONFIG = "DDE_CONFIG"


def _load_pipeline_config():
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    cfg = read_json(path, f"${ENV_CONFIG}")
    expect_object(cfg, f"${ENV_CONFIG}")
    expect_known_keys(cfg, CONFIG_KEYS)
    for key, known in CONFIG_KEYS.items():
        if known and isinstance(cfg.get(key), dict):  # a non-object fails where it is read
            expect_known_keys(cfg[key], known, key)
    return cfg


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _setting(args, flag, cfg, key, read=integer, default=None, read_flag=None):
    """--flag's value, through read_flag or else `read`, when given; else the
    value at the dotted $DDE_CONFIG path `key` (None for a flag with no key)
    through `read`; else `default`. Errors name the flag or the path; a
    section on the path must always be an object."""
    parent, _, name = (key or "").rpartition(".")
    data = section(cfg, parent) if parent else cfg
    value = getattr(args, flag)
    if value is None:
        return read_field(data, name, parent, read, default) if key else default
    return read_value(value, f"--{flag.replace('_', '-')}", read_flag or read)


def _float_flag(text: str) -> float:
    """A float flag's value. Text that spells a float, "nan" and "inf" too, is
    read as that float, so the error shows NaN or Infinity; other text is
    named as written."""
    try:
        value = float(text)
    except ValueError:
        value = text
    return finite_float(value)


# ------------------------------------------------------------------ simulate

# --policy name -> the library's run builder; the first is the default
RUNS = {"cascaded": simulate.cascaded_run, "stochastic": simulate.stochastic_run}

# $DDE_CONFIG's keys: each section's own keys, or None for a plain value
CONFIG_KEYS = {
    "sim": ("seed", "duration_ms", "policy"),
    "bpe": ("num_merges", "base_alphabet_size"),
    "vad": tuple(f.name for f in dataclasses.fields(vad.VadConfig)),
    "window_ms": None,
    "report_format": None,
}


def _make_run(args, cfg) -> simulate.SimRun:
    """The --run-config run with --seed applied, else RUNS[policy](seed, duration_ms)."""
    if args.run_config:
        for flag, value in (("--policy", args.policy), ("--duration-s", args.duration_s)):
            if value is not None:
                raise ValidationError(f"{flag}: replaced by --run-config")
        section(cfg, "sim")  # must be an object even though the run config wins
        run = simulate.read_run_config(args.run_config)
        if args.seed is None:
            return run
        return dataclasses.replace(run, seed=_setting(args, "seed", cfg, "sim.seed"))
    seed = _setting(args, "seed", cfg, "sim.seed", default=0)
    duration_ms = _setting(
        args, "duration_s", cfg, "sim.duration_ms", default=simulate.SimRun.duration_ms,
        read_flag=lambda s: int(_float_flag(s) * 1000),
    )
    policy = _setting(args, "policy", cfg, "sim.policy", one_of(*RUNS), next(iter(RUNS)))
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

def _speakers(text):
    """The channels --speaker names: both, or the one speaker_index reads."""
    try:
        return (0, 1) if text == "both" else (segments.speaker_index(text),)
    except ValidationError:  # its text names the JSON forms, 0/1 too
        raise ValidationError(f"expected A, B or both, got {shown(text, repr)}") from None


def cmd_label(args, cfg) -> int:
    trace = segments.read_trace(args.trace)
    vocab = None
    if args.vocab:
        vocab = units.BpeVocab.from_dict(read_json(args.vocab, "vocab JSON"))
    window_ms = _setting(args, "window_ms", cfg, "window_ms", at_least(1), segments.WINDOW_MS)
    speakers = _setting(args, "speaker", cfg, None, _speakers, (0, 1))
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
    fmt = _setting(args, "format", cfg, "report_format", one_of("json", "table"), "table")
    paths = _trace_paths(args.trace)
    rows = []
    for path in paths:
        if path.suffix == ".jsonl":  # one conversation per line
            for i, trace in enumerate(segments.read_traces_jsonl(path)):
                rows.append((f"{path.stem}:{i}", analytics.conversation_report(trace)))
        else:
            trace = segments.read_trace(path)
            rows.append((path.stem, analytics.conversation_report(trace)))
    if not rows:  # a .jsonl file with no conversations
        raise DuplexError(f"no traces in {args.trace}")
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
    resolved = {
        "energy_threshold_db": _setting(
            args, "energy_threshold_db", cfg, "vad.energy_threshold_db", finite_float,
            read_flag=_float_flag,
        ),
        **{name: _setting(args, name, cfg, f"vad.{name}") for name in ("min_speech_ms", "min_gap_ms")},
    }
    vad_cfg = vad.VadConfig.from_dict(resolved, "vad")
    mono = (args.audio_a, args.audio_b)
    if args.audio and not any(mono):
        a, b = vad.load_conversation_audio(stereo_path=args.audio)
    elif all(mono) and not args.audio:
        a, b = vad.load_conversation_audio(mono_paths=mono)
    else:
        raise DuplexError("give --audio or both --audio-a and --audio-b")
    trace = vad.vad_from_samples((a, b), vad_cfg)
    segments.write_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.duration_ms}ms, "
        f"{len(trace.channels[0])}+{len(trace.channels[1])} segments"
    )
    return 0


# ------------------------------------------------------------------ tokenize

def _unit_segments(trace_args):
    """(path, speaker letter, segment index, segment) per unit-annotated segment
    of the --traces files, read one at a time once every argument is expanded."""
    paths = [p for arg in trace_args for p in _trace_paths(arg)]
    for path in paths:
        for ci, ch in enumerate(segments.read_trace(path).channels):
            for si, seg in enumerate(ch):
                if seg.units is not None:
                    yield path, segments.SPEAKER_NAMES[ci], si, seg


def cmd_tokenize_train(args, cfg) -> int:
    num_merges = _setting(args, "num_merges", cfg, "bpe.num_merges", at_least(0), 0)
    base = _setting(args, "base_alphabet_size", cfg, "bpe.base_alphabet_size", at_least(1), 500)
    corpus = [units.dedup(seg.units) for *_, seg in _unit_segments(args.traces)]
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
    """Encode every trace before opening --out, so an error leaves it untouched."""
    vocab = units.BpeVocab.from_dict(read_json(args.vocab, "vocab JSON"))
    lines = []
    for path, speaker, si, seg in _unit_segments(args.traces):
        tokens = list(units.bpe_encode(vocab, units.dedup(seg.units)))
        record = {"trace": str(path), "speaker": speaker, "segment_index": si,
                  "start_ms": seg.start_ms, "tokens": tokens}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    with open(args.out, "w", encoding="utf-8") as out:
        out.writelines(lines)
    print(f"wrote {args.out}: {len(lines)} encoded sequences")
    return 0


# -------------------------------------------------------------- eval-actions

def cmd_eval_actions(args, cfg) -> int:
    fmt = _setting(args, "format", cfg, None, one_of("json", "table"), "table")
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
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(analytics.format_class_report(report))
    return 0


# ---------------------------------------------------------------------- main

@cache
def build_parser() -> argparse.ArgumentParser:
    """The `dde` parser, built on first use and shared by every later main()
    call in the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dde",
        description="Full-duplex dialogue engine: simulate, label, tokenize, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a seeded self-chat and write the trace")
    p.add_argument("--policy", help=" or ".join(RUNS))
    p.add_argument("--seed")
    p.add_argument("--duration-s")
    p.add_argument(
        "--run-config",
        help="JSON SimRun file; replaces --policy and --duration-s, --seed still applies",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("label", help="build per-tick training samples from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--speaker", help="A, B, or both (the default)")
    p.add_argument("--window-ms")
    p.add_argument("--vocab", help="BPE vocab JSON for SPK targets")
    p.add_argument("--inline-context", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("analyze", help="conversation report for trace file(s)")
    p.add_argument("--trace", required=True, help="trace JSON or a directory of them")
    p.add_argument("--format", help="json or table")
    p.add_argument("--compare", help="reference report JSON for a side-by-side row")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ingest", help="WAV -> trace via energy VAD")
    p.add_argument("--audio", help="stereo WAV (one channel per speaker)")
    p.add_argument("--audio-a", help="mono WAV for speaker A")
    p.add_argument("--audio-b", help="mono WAV for speaker B")
    p.add_argument("--energy-threshold-db")
    p.add_argument("--min-speech-ms")
    p.add_argument("--min-gap-ms")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("tokenize", help="train or apply unit BPE")
    tok = p.add_subparsers(dest="tokenize_command", required=True)
    t = tok.add_parser("train", help="learn merges from unit-annotated traces")
    t.add_argument("--traces", nargs="+", required=True)
    t.add_argument("--num-merges")
    t.add_argument("--base-alphabet-size")
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
    p.add_argument("--format", help="json or table (the default)")
    p.set_defaults(func=cmd_eval_actions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_pipeline_config()
        code = args.func(args, cfg)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does: exit 1 quietly, with
        # stdout on /dev/null so that the flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (DuplexError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
