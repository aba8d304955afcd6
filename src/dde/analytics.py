"""Conversation-structure metrics for two-speaker traces.

Terminology used throughout:
  IPU    - one continuous speech segment from a speaker.
  Turn   - consecutive same-speaker IPUs whose separating silences are under
           400ms, after backchannel IPUs are set aside.
  Pause  - a silence longer than 200ms between IPUs of the same turn.
  Overlap     - a maximal interval where both speakers are active.
  Backchannel - an IPU under 1000ms lying wholly inside the other speaker's
                turn span (computed before backchannel exclusion).
  Gap    - positive silence between a turn's end and the next turn from the
           other speaker; a turn starting before the previous one ends makes
           overlap instead of a gap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple, dataclass, field

import numpy as np

from . import _kernels
from ._schema import Record
from .errors import ValidationError
from .labeler import Action
from .segments import ConversationTrace, EventCounts, frame_grid, join_spans, speaker_index
from .vad import FRAME_SAMPLES, SAMPLE_RATE, active_runs

TURN_JOIN_MS = 400       # silences under this merge IPUs into one turn
PAUSE_MIN_MS = 200       # within-turn silences over this count as pauses
BACKCHANNEL_MAX_MS = 1000

PITCH_FMIN_HZ = 60.0
PITCH_FMAX_HZ = 400.0
PITCH_WINDOW_MS = 30     # autocorrelation analysis window per 20ms frame
VOICING_THRESHOLD = 0.6
_PCM_SCALE = 32768.0


@dataclass(frozen=True)
class TurnStructure:
    """Per-speaker IPU/turn/pause decomposition of one channel."""

    ipus: tuple[tuple[int, int], ...]
    turns: tuple[tuple[int, int], ...]
    pauses: tuple[tuple[int, int], ...]
    backchannel_ipus: tuple[tuple[int, int], ...]


def turn_structure(trace: ConversationTrace, speaker) -> TurnStructure:
    """Decompose a speaker's channel into turns, pauses and backchannels.

    Backchannel IPUs are detected against the other speaker's raw turn spans
    (IPUs grouped before any exclusion) and removed before this speaker's own
    turns are formed, so brief acknowledgments do not fragment gap statistics.
    """
    si = speaker_index(speaker)
    own = list(trace.bounds(si).spans())
    other_spans = join_spans(trace.bounds(1 - si).spans(), TURN_JOIN_MS)
    # the other's turn spans are sorted and disjoint, so only the last one
    # starting at or before an IPU can contain it; own IPUs come in start order
    backchannels, main = [], []
    j = 0
    for s, e in own:
        while j < len(other_spans) and other_spans[j][0] <= s:
            j += 1
        if e - s < BACKCHANNEL_MAX_MS and j and e <= other_spans[j - 1][1]:
            backchannels.append((s, e))
        else:
            main.append((s, e))
    turns = join_spans(main, TURN_JOIN_MS)
    pauses = []
    for prev, cur in zip(main, main[1:]):
        gap = cur[0] - prev[1]
        if PAUSE_MIN_MS < gap < TURN_JOIN_MS:
            pauses.append((prev[1], cur[0]))
    return TurnStructure(
        ipus=tuple(own),
        turns=tuple(turns),
        pauses=tuple(pauses),
        backchannel_ipus=tuple(backchannels),
    )


def _overlap_intervals(trace: ConversationTrace):
    """Maximal intervals of simultaneous speech, via a two-pointer sweep."""
    a, b = trace.bounds(0), trace.bounds(1)
    out = []
    i = j = 0
    while i < len(a.starts) and j < len(b.starts):
        lo = max(a.starts[i], b.starts[j])
        hi = min(a.ends[i], b.ends[j])
        if lo < hi:
            out.append((lo, hi))
        if a.ends[i] <= b.ends[j]:
            i += 1
        else:
            j += 1
    return out


def cross_channel_events(trace: ConversationTrace, *, structures=None) -> dict:
    """Overlaps, backchannels and gaps between the two speakers.

    Gaps pair each turn with the latest-ending earlier turn: positive silence
    after a different speaker's turn is a gap (from, to, duration); anything
    else (same speaker resuming, or a turn swallowed by a longer one) is not.
    `structures`, both speakers' TurnStructures, is computed when not given.
    """
    if structures is None:
        structures = turn_structure(trace, 0), turn_structure(trace, 1)
    backchannels = sorted(
        [(sp, iv) for sp in (0, 1) for iv in structures[sp].backchannel_ipus],
        key=lambda x: x[1],
    )
    timeline = sorted(
        [(start, end, sp) for sp in (0, 1) for start, end in structures[sp].turns]
    )
    gaps = []
    latest_end = None
    latest_speaker = None
    for start, end, sp in timeline:
        if latest_end is not None and sp != latest_speaker and start > latest_end:
            gaps.append((start - latest_end, latest_speaker, sp))
        if latest_end is None or end >= latest_end:
            latest_end, latest_speaker = end, sp
    return {
        "overlaps": _overlap_intervals(trace),
        "backchannels": backchannels,
        "gaps": gaps,
        "pauses": [(sp, iv) for sp in (0, 1) for iv in structures[sp].pauses],
    }


@dataclass(frozen=True)
class NaturalnessStats(Record):
    """Speech-style statistics; fields stay None without their inputs."""

    wpm: float | None = None          # words per minute of annotated speech
    fwpm: float | None = None         # filler words per minute
    rpm: float | None = None          # repetitions per minute
    lpm: float | None = None          # laughs per minute
    bpm: float | None = None          # breaths per minute
    spm_s: float | None = None        # within-turn silence, seconds per minute
    mean_pause_s: float | None = None # mean length of >200ms pauses
    pstd_hz: float | None = None      # F0 standard deviation over voiced frames
    mean_f0_hz: float | None = None
    estd: float | None = None         # frame-RMS standard deviation over speech

    def all_absent(self) -> bool:
        return all(v is None for v in self.__dict__.values())


@dataclass(frozen=True)
class ConversationReport(Record):
    """Per-minute conversational dynamics of one trace."""

    duration_ms: int
    overlaps_per_min: float
    backchannels_per_min: float
    pauses_per_min: float
    avg_gap_ms: float | None
    counts: dict = field(default_factory=dict)
    naturalness: NaturalnessStats | None = None


def _annotation_rates(trace: ConversationTrace):
    """Words per minute of word-annotated speech, and fillers, repetitions,
    laughs and breaths per minute of event-annotated speech; None without any."""
    word_ms = words = event_ms = 0
    events = EventCounts()
    for ch in trace.channels:
        for seg in ch:
            if seg.words is not None:
                words += seg.words
                word_ms += seg.duration_ms
            if seg.events is not None:
                events += seg.events
                event_ms += seg.duration_ms

    def per_min(count, ms):
        return count * 60000.0 / ms if ms else None

    return per_min(words, word_ms), [per_min(n, event_ms) for n in astuple(events)]


def _silence_stats(structures):
    """Total within-turn silence and pause lengths, across both speakers.

    A turn spans its main (non-backchannel) IPUs, so its silence is its span
    minus their speech: all IPU speech less the backchannels'.
    """
    spans = sum(e - s for ts in structures for s, e in ts.turns)
    speech = sum(e - s for ts in structures for s, e in ts.ipus)
    backchannel = sum(e - s for ts in structures for s, e in ts.backchannel_ipus)
    pause_lengths = [e - s for ts in structures for s, e in ts.pauses]
    any_turn = any(ts.turns for ts in structures)
    return any_turn, spans - speech + backchannel, pause_lengths


def _audio_stats(trace: ConversationTrace, audio):
    if len(audio) != 2:
        raise ValidationError("audio must hold one sample array per speaker")
    grid = frame_grid(trace)
    lag_min = int(SAMPLE_RATE / PITCH_FMAX_HZ)
    lag_max = int(math.ceil(SAMPLE_RATE / PITCH_FMIN_HZ))
    window_len = SAMPLE_RATE * PITCH_WINDOW_MS // 1000
    per_ms = SAMPLE_RATE // 1000
    rms_all = []
    f0_all = []
    for ch, samples in enumerate(audio):
        n_frames = min(len(samples) // FRAME_SAMPLES, grid.n_frames)
        # energy and pitch on speech only: a run's slice yields exactly its frames,
        # each with the window (clipped at the signal end) the whole channel gives it
        for start, end in active_runs(grid.frames[ch, :n_frames]):
            x = samples[start * per_ms : end * per_ms + window_len - FRAME_SAMPLES]
            x = np.asarray(x, dtype=np.float64) / _PCM_SCALE
            rms_all.append(_kernels.frame_rms(x[: (end - start) * per_ms], FRAME_SAMPLES))
            f0, strength = _kernels.f0_frames(
                x, SAMPLE_RATE, FRAME_SAMPLES, window_len, lag_min, lag_max
            )
            f0_all.append(f0[(strength >= VOICING_THRESHOLD) & (f0 > 0)])
    estd = pstd = mean_f0 = None
    if rms_all:  # f0_all too: each run appends to both
        estd = float(np.std(np.concatenate(rms_all)))
        pooled = np.concatenate(f0_all)
        if pooled.size:
            pstd = float(np.std(pooled))
            mean_f0 = float(np.mean(pooled))
    return estd, pstd, mean_f0


def naturalness_report(
    trace: ConversationTrace, audio=None, *, structures=None
) -> NaturalnessStats:
    """Compute whichever naturalness metrics the available inputs allow.

    Word/event rates need segment annotations; pitch/energy spread needs the
    per-speaker audio. `structures`, both speakers' TurnStructures, is
    computed when not given.
    """
    if structures is None:
        structures = turn_structure(trace, 0), turn_structure(trace, 1)
    wpm, (fwpm, rpm, lpm, bpm) = _annotation_rates(trace)
    any_turn, silence_ms, pause_lengths = _silence_stats(structures)
    spm_s = None
    mean_pause_s = None
    if any_turn:
        spm_s = (silence_ms / 1000.0) * 60000.0 / trace.duration_ms
        if pause_lengths:
            mean_pause_s = sum(pause_lengths) / len(pause_lengths) / 1000.0
    estd = pstd = mean_f0 = None
    if audio is not None:
        estd, pstd, mean_f0 = _audio_stats(trace, audio)
    return NaturalnessStats(
        wpm=wpm,
        fwpm=fwpm, rpm=rpm, lpm=lpm, bpm=bpm,
        spm_s=spm_s,
        mean_pause_s=mean_pause_s,
        pstd_hz=pstd,
        mean_f0_hz=mean_f0,
        estd=estd,
    )


def conversation_report(trace: ConversationTrace, audio=None) -> ConversationReport:
    """Overlap/backchannel/pause rates per minute plus average gap latency."""
    if trace.duration_ms <= 0:
        raise ValidationError("cannot analyze a zero-duration trace")
    structures = turn_structure(trace, 0), turn_structure(trace, 1)
    events = cross_channel_events(trace, structures=structures)
    per_min = 60000.0 / trace.duration_ms
    gaps = events["gaps"]
    naturalness = naturalness_report(trace, audio, structures=structures)
    return ConversationReport(
        duration_ms=trace.duration_ms,
        overlaps_per_min=len(events["overlaps"]) * per_min,
        backchannels_per_min=len(events["backchannels"]) * per_min,
        pauses_per_min=len(events["pauses"]) * per_min,
        avg_gap_ms=(sum(g[0] for g in gaps) / len(gaps)) if gaps else None,
        counts={
            "overlaps": len(events["overlaps"]),
            "backchannels": len(events["backchannels"]),
            "pauses": len(events["pauses"]),
            "gaps": len(gaps),
        },
        naturalness=None if naturalness.all_absent() else naturalness,
    )


@dataclass(frozen=True)
class ClassMetrics:
    support: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClassReport:
    """Per-action precision/recall/F1 plus overall accuracy."""

    per_class: dict
    accuracy: float

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "classes": {
                a.name: vars(m).copy() for a, m in self.per_class.items()
            },
        }


def f1_score(precision: float, recall: float) -> float:
    return 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def classification_report(gold, predicted) -> ClassReport:
    """Standard multi-class report over the four dialogue actions."""
    gold = [Action(a) for a in gold]
    predicted = [Action(a) for a in predicted]
    if len(gold) != len(predicted):
        raise ValidationError(
            f"gold and predicted lengths differ: {len(gold)} vs {len(predicted)}"
        )
    if not gold:
        raise ValidationError("cannot score empty label lists")
    pairs = Counter(zip(gold, predicted))  # (gold, predicted) -> count
    per_class = {}
    for action in Action:
        tp = pairs[action, action]
        support = sum(n for (g, _), n in pairs.items() if g == action)
        called = sum(n for (_, p), n in pairs.items() if p == action)
        precision = tp / called if called else 0.0
        recall = tp / support if support else 0.0
        per_class[action] = ClassMetrics(support, precision, recall, f1_score(precision, recall))
    correct = sum(pairs[a, a] for a in Action)
    return ClassReport(per_class=per_class, accuracy=correct / len(gold))


def _fmt(value) -> str:
    if value is None:
        return "-"
    return f"{value:.1f}".rstrip("0").rstrip(".")


def format_report_table(rows) -> str:
    """Aligned text table of (name, ConversationReport) rows."""
    header = ("conversation", "overlaps/min", "backchannels/min", "pauses/min", "avg_gap_ms")
    table = [header]
    for name, rep in rows:
        table.append(
            (
                str(name),
                _fmt(rep.overlaps_per_min),
                _fmt(rep.backchannels_per_min),
                _fmt(rep.pauses_per_min),
                _fmt(rep.avg_gap_ms),
            )
        )
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


def format_class_report(report: ClassReport) -> str:
    lines = [
        f"{'action':<8}{'support':>8}{'precision':>11}{'recall':>8}{'f1':>7}"
    ]
    for action in Action:
        m = report.per_class[action]
        lines.append(
            f"{action.name:<8}{m.support:>8}{m.precision:>11.3f}{m.recall:>8.3f}{m.f1:>7.3f}"
        )
    lines.append(f"accuracy {report.accuracy:.3f}")
    return "\n".join(lines)
