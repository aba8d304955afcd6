"""The four pipeline workloads: inputs, the operations of one pass, and checks.

A workload's `setup(rng)` writes its inputs into the current directory with
the benchmark's own generators. `ops()` lists the operations of one pass in
the order a closed loop issues them: a `dde` command run in-process through
`cli.main(argv)`, or a library call made through its module. `check(op,
value)` tests one operation's output against an invariant that holds for any
seed, and returns a message when it breaks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import gen

TICK_MS = 160


@dataclass
class Op:
    metric: str                            # per-command timing this op adds to
    argv: list | None = None               # a dde command ...
    call: object = None                    # ... or a library call
    outputs: list = field(default_factory=list)  # files hashed into the digest
    key: object = None                     # what `check` needs to know

    @property
    def command(self):
        """`cli.<command>` span name for a CLI op."""
        if self.argv[0] == "tokenize":
            return f"tokenize_{self.argv[1]}"
        return self.argv[0].replace("-", "_")


def _samples_per_agent(path):
    per_agent = {"A": 0, "B": 0}
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            per_agent[json.loads(line)["agent"]] += 1
    return per_agent


class SelfChat:
    """simulate -> analyze over a block of seeds: the paper's evaluation loop."""

    n_seeds = 20
    duration_s = 300

    def __init__(self, mods):
        self.mods = mods

    def setup(self, rng):
        base = int(rng.integers(0, 2**31 - self.n_seeds))
        self.seeds = [base + i for i in range(self.n_seeds)]
        os.makedirs("sims", exist_ok=True)
        self.conv_min = 2 * self.n_seeds * self.duration_s / 60

    def ops(self):
        ops = []
        for i, seed in enumerate(self.seeds):
            for policy in ("stochastic", "cascaded"):
                out = f"sims/{policy}_{i:02d}.json"
                ops.append(Op("simulate_ms", argv=[
                    "simulate", "--policy", policy, "--duration-s", str(self.duration_s),
                    "--seed", str(seed), "--out", out], outputs=[out]))
        ops.append(Op("analyze_ms", argv=["analyze", "--trace", "sims", "--format", "json"]))
        return ops

    def check(self, op, value):
        if op.argv[0] != "analyze":
            return None
        rows = json.loads(value)
        if len(rows) != 2 * self.n_seeds + 1:
            return f"analyze reported {len(rows)} rows"
        for name, rep in rows.items():
            if name.startswith("cascaded_") and (
                rep["overlaps_per_min"], rep["backchannels_per_min"],
                rep["pauses_per_min"], rep["avg_gap_ms"]) != (0.0, 0.0, 0.0, 800.0):
                return f"cascaded report {name} is not 0/0/0 per min with an 800ms gap"
        return None


class Label:
    """dde label (ref and inline) and eval-actions on unit-annotated conversations."""

    short_ms = 60_000
    long_ms = 240_000        # 4x the short length, to fit the scaling exponent

    def __init__(self, mods):
        self.mods = mods

    def setup(self, rng):
        lexicon = gen.Lexicon(rng, alphabet=500)
        gen.write_json("vocab.json", lexicon.vocab(200))
        self.durations = {}
        for name, duration in (("short_a", self.short_ms), ("short_b", self.short_ms),
                               ("long", self.long_ms)):
            channels = gen.conversation(rng, duration)
            gen.write_json(f"{name}.json", gen.trace_dict(channels, duration, lexicon, rng))
            self.durations[name] = duration
        self.conv_min = sum(self.durations.values()) / 60000

    def _label(self, metric, name, inline):
        out = f"{'inline' if inline else 'ref'}_{name}.jsonl"
        argv = ["label", "--trace", f"{name}.json", "--speaker", "both",
                "--vocab", "vocab.json", "--out", out]
        if inline:
            argv.insert(-2, "--inline-context")
        return Op(metric, argv=argv, outputs=[out], key=(name, out))

    def ops(self):
        return [
            self._label("label_ms", "short_a", False),
            self._label("label_ms", "short_b", False),
            self._label("label_ms", "long", False),
            self._label("label_inline_ms", "short_a", True),
            self._label("label_inline_ms", "short_b", True),
            Op("eval_actions_ms", argv=["eval-actions", "--gold", "ref_short_a.jsonl",
                                        "--predicted", "ref_short_b.jsonl", "--format", "json"]),
        ]

    def check(self, op, value):
        if op.argv[0] == "eval-actions":
            report = json.loads(value)
            support = sum(c["support"] for c in report["classes"].values())
            if support != 2 * (self.short_ms // TICK_MS):
                return f"eval-actions scored {support} samples"
            return None
        name, out = op.key
        ticks = self.durations[name] // TICK_MS
        counts = _samples_per_agent(out)
        if counts != {"A": ticks, "B": ticks}:
            return f"{out}: {counts} samples per speaker, expected {ticks}"
        return None


class Units:
    """tokenize train/apply over unit corpora, then unit_error_rate scoring."""

    # three corpora of two conversations: three train and apply rounds a pass,
    # so the long training call is sampled three times as often
    n_corpora = 3
    traces_per_corpus = 2
    trace_ms = 180_000
    # shorter IPUs than the label workload's: more, shorter unit sequences
    style = gen.TurnStyle(ipu_ms=(300, 1800), overlap_share=0.1, backchannel_share=0.1)
    uer_lengths = (250, 500, 1000, 2000, 3000)

    def __init__(self, mods):
        self.mods = mods

    def setup(self, rng):
        lexicon = gen.Lexicon(rng, alphabet=500, run_probs=(0.5, 0.3, 0.2))
        self.segments = [{} for _ in range(self.n_corpora)]
        for c, segments in enumerate(self.segments):
            os.makedirs(f"corpus_{c}", exist_ok=True)
            for i in range(self.traces_per_corpus):
                path = f"corpus_{c}/conv_{i}.json"
                channels = gen.conversation(rng, self.trace_ms, self.style)
                payload = gen.trace_dict(channels, self.trace_ms, lexicon, rng)
                gen.write_json(path, payload)
                for ci, segs in enumerate(payload["channels"]):
                    for si, seg in enumerate(segs):
                        segments[(path, "AB"[ci], si)] = gen.dedup(seg["units"])
        self.pairs = [gen.edit_pair(rng, n, 500, 0.15) for n in self.uer_lengths]
        self.conv_min = self.n_corpora * self.traces_per_corpus * self.trace_ms / 60000

    def ops(self):
        ops = []
        for c in range(self.n_corpora):
            ops.append(Op("tokenize_train_ms", key=c, outputs=[f"vocab_{c}.json"], argv=[
                "tokenize", "train", "--traces", f"corpus_{c}", "--num-merges", "200",
                "--base-alphabet-size", "500", "--out", f"vocab_{c}.json"]))
            ops.append(Op("tokenize_apply_ms", key=c, outputs=[f"applied_{c}.jsonl"], argv=[
                "tokenize", "apply", "--vocab", f"vocab_{c}.json", "--traces", f"corpus_{c}",
                "--out", f"applied_{c}.jsonl"]))
        units = self.mods["units"]
        for i, (ref, hyp, _) in enumerate(self.pairs):
            ops.append(Op("uer_ms", call=lambda r=ref, h=hyp: units.unit_error_rate(r, h),
                          key=i))
        return ops

    def check(self, op, value):
        units = self.mods["units"]
        if op.argv is None:
            ref, hyp, n_edits = self.pairs[op.key]
            if not abs(len(ref) - len(hyp)) / len(ref) <= value <= n_edits / len(ref):
                return f"UER {value} outside the bounds of pair {op.key}'s edits"
            return None
        with open(f"vocab_{op.key}.json", encoding="utf-8") as fp:
            vocab = units.BpeVocab.from_json(fp.read())
        if op.argv[1] == "train":
            return None if len(vocab.merges) == 200 else f"{len(vocab.merges)} merges learned"
        segments = self.segments[op.key]
        seen = 0
        with open(f"applied_{op.key}.jsonl", encoding="utf-8") as fp:
            for line in fp:
                rec = json.loads(line)
                key = (rec["trace"], rec["speaker"], rec["segment_index"])
                if list(units.bpe_decode(vocab, rec["tokens"])) != segments[key]:
                    return f"bpe_decode(bpe_encode(x)) != dedup(x) for {key}"
                seen += 1
        if seen != len(segments):
            return f"apply encoded {seen} of {len(segments)} sequences"
        return None


class Audio:
    """dde ingest on stereo WAVs, then conversation_report with audio."""

    n_files = 2
    duration_ms = 60_000
    f0_hz = (120.0, 210.0)
    style = gen.TurnStyle(overlap_share=0.3, backchannel_share=0.4)

    def __init__(self, mods):
        self.mods = mods

    def setup(self, rng):
        self.expected = []
        self.inputs = []
        for i in range(self.n_files):
            # VAD bridges silences under 100ms: keep same-speaker gaps wider
            channels = gen.conversation(rng, self.duration_ms, self.style, min_sep_ms=200)
            pcm = gen.speech_audio(rng, channels, self.duration_ms, f0_hz=self.f0_hz)
            gen.write_wav(f"conv_{i}.wav", pcm)
            payload = gen.trace_dict(channels, self.duration_ms)
            trace = self.mods["segments"].ConversationTrace.from_dict(payload)
            self.expected.append(channels)
            self.inputs.append((trace, pcm))
        self.conv_min = self.n_files * self.duration_ms / 60000

    def ops(self):
        analytics = self.mods["analytics"]
        ops = []
        for i in range(self.n_files):
            out = f"ingested_{i}.json"
            ops.append(Op("ingest_ms", argv=["ingest", "--audio", f"conv_{i}.wav",
                                             "--out", out], outputs=[out], key=i))
        for i, (trace, pcm) in enumerate(self.inputs):
            ops.append(Op("naturalness_ms", key=i, call=lambda t=trace, p=pcm: (
                analytics.conversation_report(t, audio=p).to_dict())))
        return ops

    def check(self, op, value):
        if op.argv is None:
            f0 = value["naturalness"]["mean_f0_hz"]
            if not 0.9 * self.f0_hz[0] <= f0 <= 1.1 * self.f0_hz[1]:
                return f"mean F0 {f0} outside the synthesised range"
            return None
        with open(f"ingested_{op.key}.json", encoding="utf-8") as fp:
            found = json.load(fp)["channels"]
        for ch, (segs, spans) in enumerate(zip(found, self.expected[op.key])):
            if len(segs) != len(spans):
                return f"file {op.key} channel {ch}: {len(segs)} segments, synthesised {len(spans)}"
            for seg, (start, end) in zip(segs, spans):
                if abs(seg["start_ms"] - start) > 20 or abs(seg["end_ms"] - end) > 20:
                    return f"file {op.key} channel {ch}: VAD boundary off by more than 20ms"
        return None


WORKLOADS = {"selfchat": SelfChat, "label": Label, "units": Units, "audio": Audio}
