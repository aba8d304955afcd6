"""Two-speaker conversation traces: time-aligned speech segments on a 20ms frame grid.

All timestamps are integer milliseconds, intervals are half-open [start, end).
A trace holds exactly two channels (speaker A = 0, speaker B = 1); segments in
a channel are sorted, non-overlapping and separated by at least 1ms.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from ._schema import (
    Record, UnitIds, expect_object, items, non_negative, read_field, read_json, read_json_lines, read_value,
    shown, unit_ids,
)
from .errors import ValidationError

FRAME_MS = 20      # atomic activity/audio frame
TICK_MS = 160      # decision interval (8 frames)
WINDOW_MS = 20000  # default trailing context window
MAX_DURATION_MS = 24 * 3600 * 1000  # longest trace or run: one day

SPEAKER_NAMES = ("A", "B")


def check_duration(duration_ms) -> None:
    """Reject a trace or run longer than MAX_DURATION_MS."""
    if duration_ms > MAX_DURATION_MS:
        raise ValidationError(f"duration_ms: at most {MAX_DURATION_MS}, got {shown(duration_ms, str)}")


def speaker_index(speaker) -> int:
    """Map 'A'/'B' or 0/1 to a channel index. Numbers read as integers do:
    1.0 is 1, and true or 0.5 is no speaker."""
    if isinstance(speaker, str):
        s = speaker.strip().upper()
        if s in SPEAKER_NAMES:
            return SPEAKER_NAMES.index(s)
    elif not isinstance(speaker, bool) and speaker in (0, 1):
        return int(speaker)
    raise ValidationError(f"unknown speaker {shown(speaker, repr)}, expected A/B or 0/1")


@dataclass(frozen=True)
class EventCounts(Record):
    """Per-segment counts of annotated speech events."""

    fillers: int = 0
    repetitions: int = 0
    laughs: int = 0
    breaths: int = 0

    def __post_init__(self):
        for name, n in vars(self).items():
            if n < 0:
                raise ValidationError(f"{name} must be non-negative, got {n}")

    def __add__(self, other: "EventCounts") -> "EventCounts":
        return EventCounts(**{name: n + getattr(other, name) for name, n in vars(self).items()})


@dataclass(frozen=True)
class SpeechSegment(Record):
    """One continuous stretch of speech from a single speaker."""

    start_ms: int                          # inclusive
    end_ms: int                            # exclusive
    units: tuple[int, ...] | None = None   # raw unit ids, one per 20ms frame
    words: int | None = None               # annotated word count
    events: EventCounts | None = None      # annotated filler/repetition/laugh/breath counts

    def __post_init__(self):
        if self.start_ms < 0:
            raise ValidationError(f"segment start {self.start_ms} < 0")
        if self.end_ms <= self.start_ms:
            raise ValidationError(
                f"segment end {self.end_ms} must exceed start {self.start_ms}"
            )
        if self.units is not None:
            if not isinstance(self.units, UnitIds):  # made in code, or read with a negative id or through integer()
                object.__setattr__(self, "units", read_value(self.units, "units", unit_ids))
            if self.start_ms % FRAME_MS or self.end_ms % FRAME_MS:
                raise ValidationError(
                    "unit-annotated segments must be 20ms-aligned: "
                    f"[{self.start_ms},{self.end_ms})"
                )
            n_frames = (self.end_ms - self.start_ms) // FRAME_MS
            if len(self.units) != n_frames:
                raise ValidationError(
                    f"{len(self.units)} units for a {n_frames}-frame segment"
                )
            non_negative(self.units)
        if self.words is not None and self.words < 0:
            raise ValidationError("word count must be non-negative")

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms

    def to_dict(self):
        """Like Record.to_dict, but an absent annotation is left out, not null."""
        d = {"start_ms": self.start_ms, "end_ms": self.end_ms}
        if self.units is not None:
            d["units"] = list(self.units)
        if self.words is not None:
            d["words"] = self.words
        if self.events is not None:
            d["events"] = self.events.to_dict()
        return d


@dataclass(frozen=True)
class ConversationTrace(Record):
    """Two channels of disjoint speech segments over [0, duration_ms)."""

    channels: tuple[tuple[SpeechSegment, ...], tuple[SpeechSegment, ...]]
    duration_ms: int

    def __post_init__(self):
        if len(self.channels) != 2:
            raise ValidationError(f"expected 2 channels, got {len(self.channels)}")
        object.__setattr__(
            self, "channels", tuple(tuple(ch) for ch in self.channels)
        )
        if self.duration_ms < 0:
            raise ValidationError("duration must be non-negative")
        check_duration(self.duration_ms)
        for ci, ch in enumerate(self.channels):
            prev_end = None
            for seg in ch:
                if prev_end is not None and seg.start_ms <= prev_end:
                    raise ValidationError(
                        f"channel {ci}: segment at {seg.start_ms} overlaps or "
                        f"touches previous segment ending at {prev_end}"
                    )
                if seg.end_ms > self.duration_ms:
                    raise ValidationError(
                        f"channel {ci}: segment ends at {seg.end_ms} past "
                        f"duration {self.duration_ms}"
                    )
                prev_end = seg.end_ms

    @cached_property
    def _bounds(self) -> tuple[ChannelBounds, ChannelBounds]:
        return tuple(ChannelBounds(ch) for ch in self.channels)

    @cached_property
    def _json_parts(self):
        """Each segment's start, end and fixed JSON parts, for window_json."""
        return tuple([(s.start_ms, s.end_ms, *_fixed_json(s)) for s in ch] for ch in self.channels)

    def bounds(self, speaker) -> ChannelBounds:
        """The speaker's boundary index, built once per trace."""
        return self._bounds[speaker_index(speaker)]

    def active_at(self, speaker, t_ms: int) -> bool:
        """True iff the speaker's channel has a segment containing instant t_ms."""
        return self.bounds(speaker).active_at(t_ms)

    def total_speech_ms(self, speaker) -> int:
        return sum(s.duration_ms for s in self.channels[speaker_index(speaker)])

    @classmethod
    def from_dict(cls, data, path="trace") -> "ConversationTrace":
        expect_object(data, path)
        chans = data.get("channels")
        if not isinstance(chans, list) or len(chans) != 2:
            raise ValidationError("trace JSON needs a 2-element 'channels' list")
        channels = (items(ch, f"channels[{ci}]", SpeechSegment.from_dict) for ci, ch in enumerate(chans))
        return cls(channels=tuple(channels), duration_ms=read_field(data, "duration_ms"))


class ChannelBounds:
    """One channel's segment starts and ends (both sorted), for O(log n) queries."""

    def __init__(self, segments):
        self.starts = [s.start_ms for s in segments]
        self.ends = [s.end_ms for s in segments]

    def spans(self):
        """(start_ms, end_ms) of each segment, in order."""
        return zip(self.starts, self.ends)

    def onset_index_in(self, t0: int, t1: int):
        """Index of the first segment starting in [t0, t1), or None."""
        i = bisect_left(self.starts, t0)
        if i < len(self.starts) and self.starts[i] < t1:
            return i
        return None

    def offset_in(self, t0: int, t1: int):
        """The unique offset instant in (t0, t1], or None."""
        i = bisect_right(self.ends, t0)
        if i < len(self.ends) and self.ends[i] <= t1:
            return self.ends[i]
        return None

    def active_at(self, t: int) -> bool:
        """Speech covers instant t (start <= t < end)."""
        i = bisect_right(self.starts, t) - 1
        return i >= 0 and self.ends[i] > t

    def active_inside(self, t: int) -> bool:
        """Speech strictly surrounds instant t (start < t < end)."""
        i = bisect_left(self.starts, t) - 1
        return i >= 0 and self.ends[i] > t

    def overlapping(self, t0: int, t1: int) -> tuple[int, int]:
        """lo, hi such that segments lo..hi-1 are those overlapping [t0, t1):
        ends > t0 and starts < t1."""
        return bisect_right(self.ends, t0), bisect_left(self.starts, t1)


def join_spans(spans, gap_ms: int) -> list[tuple[int, int]]:
    """Sorted, disjoint (start_ms, end_ms) spans with every silence shorter
    than gap_ms between consecutive ones bridged."""
    joined = []
    for start, end in spans:
        if joined and start - joined[-1][1] < gap_ms:
            joined[-1] = (joined[-1][0], end)
        else:
            joined.append((start, end))
    return joined


def _combine(a: SpeechSegment, b: SpeechSegment) -> SpeechSegment:
    """Union of two same-channel segments with b.start <= a.end (sorted input).

    Annotations survive only when they stay exact: touching segments concatenate
    units and sum counts; a segment swallowed whole keeps the outer annotations;
    partial overlaps drop them.
    """
    start = a.start_ms
    end = max(a.end_ms, b.end_ms)
    units = None
    words = None
    events = None
    if b.start_ms == a.end_ms:  # clean touch
        if a.units is not None and b.units is not None:
            units = a.units + b.units
        if a.words is not None and b.words is not None:
            words = a.words + b.words
        if a.events is not None and b.events is not None:
            events = a.events + b.events
    elif b.end_ms <= a.end_ms:  # b fully inside a
        units, words, events = a.units, a.words, a.events
    return SpeechSegment(start, end, units=units, words=words, events=events)


def push_segment(merged: list[SpeechSegment], seg: SpeechSegment) -> None:
    """Append seg to one channel's merged segments, or merge it into the last one it touches."""
    if merged and seg.start_ms <= merged[-1].end_ms:
        seg = _combine(merged.pop(), seg)
    merged.append(seg)


def build_trace(events, duration_ms: int) -> ConversationTrace:
    """Assemble a validated trace from (speaker, SpeechSegment) pairs in any
    order, as library callers and tests hold them: each channel's segments
    sorted, and those that overlap or touch merged into their union.
    Cross-channel overlap is legal."""
    per_channel = ([], [])
    for speaker, seg in events:
        per_channel[speaker_index(speaker)].append(seg)
    merged = ([], [])
    for ch, out in zip(per_channel, merged):
        for seg in sorted(ch, key=lambda s: (s.start_ms, s.end_ms)):
            push_segment(out, seg)
    return ConversationTrace(merged, duration_ms)


@dataclass(frozen=True)
class FrameGrid:
    """Boolean per-channel activity at 20ms resolution."""

    frames: np.ndarray  # bool, shape (2, n_frames)

    def __post_init__(self):
        self.frames.setflags(write=False)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]


def frame_grid(trace: ConversationTrace) -> FrameGrid:
    """Quantize a trace onto the 20ms grid.

    A frame counts as active when a speech segment covers at least half of it
    (>= 10ms intersection). So a segment [s, e) of at least half a frame
    activates exactly the frames f with s - 10 <= 20f <= e - 10.
    """
    half = FRAME_MS // 2
    frames = np.zeros((2, trace.duration_ms // FRAME_MS), dtype=bool)
    for ci, b in enumerate(trace._bounds):
        for s, e in b.spans():
            if e - s >= half:
                frames[ci, (s + half - 1) // FRAME_MS : (e + half) // FRAME_MS] = True
    return FrameGrid(frames=frames)


def _window_cuts(trace: ConversationTrace, end_ms: int, width_ms: int):
    """Which segments window(trace, end_ms, width_ms) keeps and how each is
    cut: the window's left edge, its duration, whether its whole segments
    keep their units, and per channel (head, whole, tail). `whole` slices
    out the segments kept uncut; `head` and `tail` are the first and the
    last kept segment as (index, start, end, frames) when the window cuts
    it, else None. Start and end are re-based to the window.

    Segments are sorted and disjoint, so only the first kept segment can
    start before the left edge and only the last can end after end_ms:
    every other one is whole, shifted left by `left` with its words and
    events. A whole segment keeps its units iff its re-based start lies on
    the 20ms grid; a unit-annotated segment starts on the grid, so that is
    iff `left` does. A cut segment loses its words and events, and `frames`
    is the slice of its 20ms units that survives, or None unless both cut
    points and the re-based start lie on the grid.
    """
    if not 0 < end_ms <= trace.duration_ms:
        raise ValidationError(f"window end {end_ms} outside (0, {trace.duration_ms}]")
    if width_ms <= 0:
        raise ValidationError("window width must be positive")
    left = max(0, end_ms - width_ms)

    def cut(b, k):
        start, end = b.starts[k], b.ends[k]
        ns, ne = max(start, left), min(end, end_ms)
        a, z = ns - start, ne - start
        frames = None
        if a % FRAME_MS == z % FRAME_MS == (ns - left) % FRAME_MS == 0:
            frames = slice(a // FRAME_MS, z // FRAME_MS)
        return k, ns - left, ne - left, frames

    channels = []
    for b in trace._bounds:
        lo, hi = b.overlapping(left, end_ms)
        head = tail = None
        if lo < hi and b.starts[lo] < left:
            head = cut(b, lo)
            lo += 1
        if lo < hi and b.ends[hi - 1] > end_ms:
            hi -= 1
            tail = cut(b, hi)
        channels.append((head, slice(lo, hi), tail))
    return left, end_ms - left, left % FRAME_MS == 0, channels


def _cut_segment(ch, k, start, end, frames) -> SpeechSegment:
    """Segment ch[k] as a window cuts it (see _window_cuts)."""
    units = ch[k].units
    return SpeechSegment(start, end, units=None if units is None or frames is None else units[frames])


def window(trace: ConversationTrace, end_ms: int, width_ms: int = WINDOW_MS) -> ConversationTrace:
    """Sliding context window: the last `width_ms` of history before `end_ms`.

    Returns the trace restricted to [max(0, end_ms - width_ms), end_ms), with
    timestamps re-based so the window starts at 0. Segments straddling either
    edge are truncated.
    """
    left, duration, whole_units, cuts = _window_cuts(trace, end_ms, width_ms)
    channels = []
    for ch, (head, whole, tail) in zip(trace.channels, cuts):
        kept = [_cut_segment(ch, *head)] if head else []
        for s in ch[whole]:
            kept.append(SpeechSegment(
                s.start_ms - left, s.end_ms - left, units=s.units if whole_units else None,
                words=s.words, events=s.events,
            ))
        if tail:
            kept.append(_cut_segment(ch, *tail))
        channels.append(tuple(kept))
    return ConversationTrace(channels=tuple(channels), duration_ms=duration)


def _fixed_json(seg: SpeechSegment, nl=""):
    """The pieces of seg's JSON text that do not move with a window, laid out
    as json.dumps(..., sort_keys=True) lays them out: compact, or, with `nl`
    a newline and the indent of seg's items, as with indent=2. They are: what
    lies between the end time and the start time (the events item and the
    start_ms key), the units item, in the compact layout where in it each
    unit id starts and one separator past the last (else None), and the
    words item with the closing brace. window_json cuts a segment's ids out
    of its units item at those offsets; joining the kept ids again instead
    made `dde label` about 15% slower on a 2-core x86 host."""
    sep = "," + (nl or " ")
    inner = nl and nl + "  "  # indent=2: one level in from seg's items
    inner_sep = "," + (inner or " ")
    events = ""
    if seg.events is not None:
        counts = inner_sep.join(f'"{k}": {json.dumps(n)}' for k, n in sorted(seg.events.to_dict().items()))
        events = f'{sep}"events": {{{inner}{counts}{nl}}}'
    units, at = "", None
    if seg.units is not None:
        ids = [str(u) for u in seg.units]  # units are ints, whose JSON is str(u)
        units = f'{sep}"units": [{inner}'
        at = None if nl else list(accumulate([len(i) + len(inner_sep) for i in ids], initial=len(units)))
        units += f"{inner_sep.join(ids)}{nl}]"
    words = "" if seg.words is None else f'{sep}"words": {json.dumps(seg.words)}'
    return f'{events}{sep}"start_ms": ', units, at, words + nl[:-2] + "}"


def _cut_json(parts, k, start, end, frames) -> str:
    """The JSON text of the segment whose start, end and fixed parts are
    parts[k], as a window cuts it (see _window_cuts)."""
    _, _, _, units, at, _ = parts[k]
    if at is None or frames is None:
        units = ""
    else:  # the ids of the kept frames, without the separator after the last
        units = f', "units": [{units[at[frames.start]:at[frames.stop] - 2]}]'
    return f'{{"end_ms": {end}, "start_ms": {start}{units}}}'


def window_json(trace: ConversationTrace, end_ms: int, width_ms: int) -> str:
    """window(trace, end_ms, width_ms) as sorted-key JSON text, the same bytes
    as json.dumps(window(...).to_dict(), sort_keys=True), written from the
    same cuts and each segment's fixed JSON parts: no segment or trace is
    built per window, and a whole segment only has its times shifted."""
    left, duration, whole_units, cuts = _window_cuts(trace, end_ms, width_ms)
    channels = []
    for parts, (head, whole, tail) in zip(trace._json_parts, cuts):
        texts = [_cut_json(parts, *head)] if head else []
        for s, e, mid, units, _, close in parts[whole]:
            texts.append(f'{{"end_ms": {e - left}{mid}{s - left}{units if whole_units else ""}{close}')
        if tail:
            texts.append(_cut_json(parts, *tail))
        channels.append(", ".join(texts))
    return f'{{"channels": [[{channels[0]}], [{channels[1]}]], "duration_ms": {duration}}}'


def read_trace(path) -> ConversationTrace:
    return ConversationTrace.from_dict(read_json(path, "trace JSON"))


def write_trace(trace: ConversationTrace, path) -> None:
    """trace.to_json(indent=2) and a newline, each segment written from its
    fixed JSON parts: with an indent, json.dumps runs in pure Python."""
    nl = "\n" + " " * 8  # a trace's segments nest 3 levels deep
    channels = []
    for ch in trace.channels:
        texts = []
        for s in ch:
            mid, units, _, close = _fixed_json(s, nl)
            texts.append(f'{{{nl}"end_ms": {s.end_ms}{mid}{s.start_ms}{units}{close}')
        channels.append("[\n      " + ",\n      ".join(texts) + "\n    ]" if texts else "[]")
    with open(path, "w", encoding="utf-8") as fp:
        fp.write('{\n  "channels": [\n    ' + ",\n    ".join(channels)
                 + f'\n  ],\n  "duration_ms": {trace.duration_ms}\n}}\n')


def read_traces_jsonl(path) -> list[ConversationTrace]:
    """One conversation per line; a bad one is an error naming its file and line."""
    return [trace for _, trace in read_json_lines(path, "trace JSON", ConversationTrace.from_dict)]
