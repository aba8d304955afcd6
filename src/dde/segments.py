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

import numpy as np

from ._schema import (
    Record, expect_object, items, loads, read_field, read_json, read_json_lines, read_record, unit_ids,
)
from .errors import ValidationError

FRAME_MS = 20      # atomic activity/audio frame
TICK_MS = 160      # decision interval (8 frames)
WINDOW_MS = 20000  # default trailing context window
MAX_DURATION_MS = 24 * 3600 * 1000  # longest trace or run: one day

SPEAKER_NAMES = ("A", "B")


def speaker_index(speaker) -> int:
    """Map 'A'/'B' or 0/1 to a channel index. Numbers read as integers do:
    1.0 is 1, and true or 0.5 is no speaker."""
    if isinstance(speaker, str):
        s = speaker.strip().upper()
        if s in SPEAKER_NAMES:
            return SPEAKER_NAMES.index(s)
    elif not isinstance(speaker, bool) and speaker in (0, 1):
        return int(speaker)
    raise ValidationError(f"unknown speaker {speaker!r}, expected A/B or 0/1")


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
        return EventCounts(
            self.fillers + other.fillers,
            self.repetitions + other.repetitions,
            self.laughs + other.laughs,
            self.breaths + other.breaths,
        )


@dataclass(frozen=True)
class SpeechSegment:
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
            try:
                object.__setattr__(self, "units", unit_ids(self.units))
            except ValueError as exc:
                raise ValidationError(f"units: {exc}") from None
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
            if min(self.units) < 0:  # non-empty: n_frames >= 1
                raise ValidationError("unit ids must be non-negative")
        if self.words is not None and self.words < 0:
            raise ValidationError("word count must be non-negative")

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms

    def to_dict(self):
        d = {"start_ms": self.start_ms, "end_ms": self.end_ms}
        if self.units is not None:
            d["units"] = list(self.units)
        if self.words is not None:
            d["words"] = self.words
        if self.events is not None:
            d["events"] = self.events.to_dict()
        return d

    @classmethod
    def from_dict(cls, data, path="segment") -> "SpeechSegment":
        return read_record(cls, data, path)


@dataclass(frozen=True)
class ConversationTrace:
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
        if self.duration_ms > MAX_DURATION_MS:
            raise ValidationError(f"duration_ms: at most {MAX_DURATION_MS}, got {self.duration_ms}")
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
        """Each segment's fixed JSON parts, for window_json."""
        return tuple([_fixed_json(s) for s in ch] for ch in self.channels)

    def bounds(self, speaker) -> ChannelBounds:
        """The speaker's boundary index, built once per trace."""
        return self._bounds[speaker_index(speaker)]

    def active_at(self, speaker, t_ms: int) -> bool:
        """True iff the speaker's channel has a segment containing instant t_ms."""
        return self.bounds(speaker).active_at(t_ms)

    def total_speech_ms(self, speaker) -> int:
        return sum(s.duration_ms for s in self.channels[speaker_index(speaker)])

    def to_dict(self):
        return {
            "duration_ms": self.duration_ms,
            "channels": [[s.to_dict() for s in ch] for ch in self.channels],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data) -> "ConversationTrace":
        expect_object(data, "trace")
        chans = data.get("channels")
        if not isinstance(chans, list) or len(chans) != 2:
            raise ValidationError("trace JSON needs a 2-element 'channels' list")
        channels = (items(ch, f"channels[{ci}]", SpeechSegment.from_dict) for ci, ch in enumerate(chans))
        return cls(channels=tuple(channels), duration_ms=read_field(data, "duration_ms"))

    @classmethod
    def from_json(cls, text: str) -> "ConversationTrace":
        return cls.from_dict(loads(text, "trace JSON"))


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
    """Assemble a validated trace from (speaker, SpeechSegment) pairs.

    Segments are sorted per channel; same-channel segments that overlap or touch
    are merged into their union. Cross-channel overlap is legal.
    """
    per_channel: tuple[list[SpeechSegment], list[SpeechSegment]] = ([], [])
    for speaker, seg in events:
        per_channel[speaker_index(speaker)].append(seg)
    merged_channels = []
    for ch in per_channel:
        ch.sort(key=lambda s: (s.start_ms, s.end_ms))
        merged: list[SpeechSegment] = []
        for seg in ch:
            push_segment(merged, seg)
        merged_channels.append(tuple(merged))
    return ConversationTrace(channels=tuple(merged_channels), duration_ms=duration_ms)


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
    (>= 10ms intersection).
    """
    n_frames = trace.duration_ms // FRAME_MS
    frames = np.zeros((2, n_frames), dtype=bool)
    for ci, ch in enumerate(trace.channels):
        for seg in ch:
            f_lo = seg.start_ms // FRAME_MS
            f_hi = min((seg.end_ms + FRAME_MS - 1) // FRAME_MS, n_frames)
            f = np.arange(f_lo, f_hi)
            lo = np.maximum(seg.start_ms, f * FRAME_MS)
            hi = np.minimum(seg.end_ms, f * FRAME_MS + FRAME_MS)
            frames[ci, f_lo:f_hi] |= (hi - lo) >= FRAME_MS // 2
    return FrameGrid(frames=frames)


def _window_cuts(trace: ConversationTrace, end_ms: int, width_ms: int):
    """Which segments window(trace, end_ms, width_ms) keeps and how each is
    cut: the window's duration and, per channel, (index, start, end, frames,
    whole) for each kept segment, start and end re-based to the window.

    `frames` is the slice of the segment's 20ms units that survives, or None
    unless both cut points and the re-based start lie on the 20ms grid; word
    and event counts survive iff the segment is `whole`, i.e. nothing is cut.
    """
    if not 0 < end_ms <= trace.duration_ms:
        raise ValidationError(f"window end {end_ms} outside (0, {trace.duration_ms}]")
    if width_ms <= 0:
        raise ValidationError("window width must be positive")
    left = max(0, end_ms - width_ms)
    channels = []
    for b in trace._bounds:
        lo, hi = b.overlapping(left, end_ms)
        cuts = []
        for k in range(lo, hi):
            start, end = b.starts[k], b.ends[k]
            ns, ne = max(start, left), min(end, end_ms)
            a, z = ns - start, ne - start
            frames = None
            if a % FRAME_MS == z % FRAME_MS == (ns - left) % FRAME_MS == 0:
                frames = slice(a // FRAME_MS, z // FRAME_MS)
            cuts.append((k, ns - left, ne - left, frames, (ns, ne) == (start, end)))
        channels.append(cuts)
    return end_ms - left, channels


def window(trace: ConversationTrace, end_ms: int, width_ms: int = WINDOW_MS) -> ConversationTrace:
    """Sliding context window: the last `width_ms` of history before `end_ms`.

    Returns the trace restricted to [max(0, end_ms - width_ms), end_ms), with
    timestamps re-based so the window starts at 0. Segments straddling either
    edge are truncated.
    """
    duration, cuts = _window_cuts(trace, end_ms, width_ms)
    channels = []
    for ch, ch_cuts in zip(trace.channels, cuts):
        kept = []
        for k, start, end, frames, whole in ch_cuts:
            s = ch[k]
            kept.append(SpeechSegment(
                start, end, units=None if s.units is None or frames is None else s.units[frames],
                words=s.words if whole else None, events=s.events if whole else None,
            ))
        channels.append(tuple(kept))
    return ConversationTrace(channels=tuple(channels), duration_ms=duration)


def _fixed_json(seg: SpeechSegment):
    """The pieces of seg's JSON that do not move with a window: the events
    item, the unit ids as strings, the whole units item and the words item
    with the closing brace."""
    events = "" if seg.events is None else (
        ', "events": ' + json.dumps(seg.events.to_dict(), sort_keys=True))
    ids, units = None, ""
    if seg.units is not None:
        ids = [str(u) for u in seg.units]  # units are ints, whose JSON is str(u)
        units = ', "units": [' + ", ".join(ids) + "]"
    words = "" if seg.words is None else ', "words": ' + json.dumps(seg.words)
    return events, ids, units, words + "}"


def window_json(trace: ConversationTrace, end_ms: int, width_ms: int) -> str:
    """window(trace, end_ms, width_ms) as sorted-key JSON text, the same bytes
    as json.dumps(window(...).to_dict(), sort_keys=True), written from the
    same cuts and each segment's fixed JSON parts: no segment or trace is
    built per window."""
    duration, cuts = _window_cuts(trace, end_ms, width_ms)
    channels = []
    for parts, ch_cuts in zip(trace._json_parts, cuts):
        texts = []
        for k, start, end, frames, whole in ch_cuts:
            events, ids, units, tail = parts[k]
            if ids is None or frames is None:
                units = ""
            elif not whole:
                units = ', "units": [' + ", ".join(ids[frames]) + "]"
            if not whole:
                events, tail = "", "}"
            texts.append(f'{{"end_ms": {end}{events}, "start_ms": {start}{units}{tail}')
        channels.append(", ".join(texts))
    return f'{{"channels": [[{channels[0]}], [{channels[1]}]], "duration_ms": {duration}}}'


def read_trace(path) -> ConversationTrace:
    return ConversationTrace.from_dict(read_json(path, "trace JSON"))


def write_trace(trace: ConversationTrace, path, indent=2) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(trace.to_json(indent=indent))
        fp.write("\n")


def read_traces_jsonl(path) -> list[ConversationTrace]:
    """One conversation per line."""
    return [ConversationTrace.from_dict(doc) for _, doc in read_json_lines(path, "trace JSON")]
