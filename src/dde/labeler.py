"""Next-action labels and training samples at every 160ms tick.

Each complete tick [160i, 160(i+1)) of a trace yields one action label per
speaker, decided from that speaker's activity inside the tick:

  1. a speech onset inside the tick            -> SPK (initiate speaking)
  2. else a speech offset inside the tick with
     the other speaker active at that instant  -> STP (stop speaking)
  3. else speech covering the tick-end instant -> CON (keep speaking)
  4. else                                      -> SIL (remain silent)

Onsets count when they lie in [160i, 160(i+1)); offsets when they lie in
(160i, 160(i+1)], so a segment ending exactly on a tick boundary belongs to
the tick it closes. When several rules match (e.g. a sub-160ms utterance),
the earlier rule wins: initiations are the rarest, most valuable events.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum

from ._schema import at_least, expect_object, one_of, read_field, read_json_lines, shown
from .errors import ValidationError
from .segments import SPEAKER_NAMES, TICK_MS, WINDOW_MS, ChannelBounds, ConversationTrace
from .segments import speaker_index, window, window_json
from .units import BpeVocab, bpe_encode, dedup

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNIT_ID_OFFSET = 7  # unit u occupies vocabulary slot u + 7


class Action(IntEnum):
    """Dialogue-manager actions; enum values are the target-vocabulary ids."""

    SIL = 3
    CON = 4
    SPK = 5
    STP = 6

    @classmethod
    def from_name(cls, name: str) -> "Action":
        try:
            return cls[name.strip().upper()]
        except (AttributeError, KeyError):  # AttributeError: name is not a string
            raise ValidationError(f"unknown action {shown(name, repr)}") from None


_SINGLE_TARGETS = {a: (int(a),) for a in Action if a is not Action.SPK}  # every action's target but SPK's


@dataclass(frozen=True)
class TrainingSample:
    """One (context, next action) pair for a speaker at a tick boundary."""

    trace: ConversationTrace = field(repr=False)  # the whole source trace, shared
    agent: int                      # channel whose action is labeled
    tick_index: int
    action: Action
    target_tokens: tuple[int, ...] | None = None
    window_ms: int = WINDOW_MS

    @property
    def context(self) -> ConversationTrace:
        """Trailing window ending at 160*(tick_index+1), built on each read."""
        return window(self.trace, TICK_MS * (self.tick_index + 1), self.window_ms)


def _label(own: ChannelBounds, other: ChannelBounds, tick_index: int) -> Action:
    t0 = tick_index * TICK_MS
    t1 = t0 + TICK_MS
    if own.onset_index_in(t0, t1) is not None:
        return Action.SPK
    offset = own.offset_in(t0, t1)
    if offset is not None and other.active_at(offset):
        return Action.STP
    # strict interior: an utterance starting exactly at t1 belongs to the next
    # tick's SPK, not to this one as a continuation
    if own.active_inside(t1):
        return Action.CON
    return Action.SIL


def label_tick(trace: ConversationTrace, agent, tick_index: int) -> Action:
    """Next-action label for one speaker at one complete tick."""
    if tick_index < 0 or TICK_MS * (tick_index + 1) > trace.duration_ms:
        raise ValidationError(
            f"tick {tick_index} not fully inside a {trace.duration_ms}ms trace"
        )
    ai = speaker_index(agent)
    return _label(trace.bounds(ai), trace.bounds(1 - ai), tick_index)


def label_sequence(trace: ConversationTrace, agent) -> list[Action]:
    """Labels for every complete tick of the trace (no contexts built)."""
    ai = speaker_index(agent)
    own, other = trace.bounds(ai), trace.bounds(1 - ai)
    return [_label(own, other, i) for i in range(trace.duration_ms // TICK_MS)]


def encode_target(action: Action, bpe_unit_ids=None) -> tuple[int, ...]:
    """Target token sequence for an action.

    SPK wraps the (BPE-encoded) unit ids between the SPK token and EOS, with
    every unit id shifted past the 7 reserved special/action slots. The other
    actions encode as their single token.
    """
    action = Action(action)
    if action is Action.SPK:
        if bpe_unit_ids is None:
            raise ValidationError("SPK targets need a unit sequence")
        return (int(Action.SPK), *(int(u) + UNIT_ID_OFFSET for u in bpe_unit_ids), EOS_ID)
    if bpe_unit_ids is not None:
        raise ValidationError(f"{action.name} targets take no units")
    return _SINGLE_TARGETS[action]


def build_samples(
    trace: ConversationTrace,
    agent,
    window_ms: int = WINDOW_MS,
    vocab: BpeVocab | None = None,
) -> list[TrainingSample]:
    """One training sample per complete tick for the given speaker.

    SPK samples carry the deduplicated (and, when a vocab is given,
    BPE-encoded) units of the segment that starts inside the tick; segments
    without unit annotations leave target_tokens unset. Other actions encode
    as their single action token. Contexts are built only when read.
    """
    if window_ms <= 0:
        raise ValidationError("window width must be positive")
    ai = speaker_index(agent)
    own = trace.bounds(ai)
    samples = []
    for i, action in enumerate(label_sequence(trace, ai)):
        target = _SINGLE_TARGETS.get(action)
        if action is Action.SPK:
            seg = trace.channels[ai][own.onset_index_in(i * TICK_MS, (i + 1) * TICK_MS)]
            if seg.units is not None:
                ids = dedup(seg.units)
                if vocab is not None:
                    ids = bpe_encode(vocab, ids)
                target = encode_target(Action.SPK, ids)
        samples.append(TrainingSample(trace, ai, i, action, target, window_ms))
    return samples


def action_histogram(samples) -> dict[str, int]:
    """Samples per action, every action in Action order, zero counts included."""
    counts = Counter(s.action for s in samples)
    return {a.name: counts[a] for a in Action}


def write_samples_jsonl(samples, path, context_mode="ref", trace_path=None) -> None:
    """One JSON line per sample, as json.dumps with sorted keys writes it: its
    (agent, action) head and its target's tail, each formatted once per call,
    around its context. In "inline" mode that is the sample's context, written
    by window_json; in "ref" mode a context_ref to trace_path. Any other mode
    is an error."""
    if context_mode not in ("inline", "ref"):
        raise ValidationError(f"context_mode: expected inline or ref, got {context_mode!r}")
    inline = context_mode == "inline"
    key = "context" if inline else "context_ref"
    ref_trace = json.dumps(None if trace_path is None else str(trace_path))
    heads = {(agent, a): f'{{"action": "{a.name}", "agent": "{name}", "{key}": '
             for agent, name in enumerate(SPEAKER_NAMES) for a in Action}
    tails = {None: ', "tick_index": '}
    with open(path, "w", encoding="utf-8") as fp:
        for s in samples:
            end_ms = TICK_MS * (s.tick_index + 1)
            if inline:
                context = window_json(s.trace, end_ms, s.window_ms)
            else:
                context = f'{{"end_ms": {end_ms}, "trace": {ref_trace}, "window_ms": {s.window_ms}}}'
            target = s.target_tokens
            if type(target) is list:  # a list has no hash; its tuple has the same tail
                target = tuple(target)
            tail = tails.get(target)
            if tail is None:
                tail = tails[target] = f', "target_tokens": [{", ".join(map(str, target))}], "tick_index": '
            fp.write(f"{heads[s.agent, s.action]}{context}{tail}{s.tick_index}}}\n")


def read_actions_jsonl(path) -> dict[tuple[str, int], Action]:
    """(agent, tick_index) -> action, as needed for prediction scoring. A
    second line for the same (agent, tick_index) is an error."""
    out, first = {}, {}
    agents, ticks = one_of(*SPEAKER_NAMES), at_least(0)
    for n, rec in read_json_lines(path, "samples line"):
        where = f"{path}:{n}"
        expect_object(rec, where)
        key = (read_field(rec, "agent", where, agents), read_field(rec, "tick_index", where, ticks))
        if key in first:
            raise ValidationError(
                f"{where}: duplicate sample for agent {key[0]} at tick {key[1]} (first at line {first[key]})"
            )
        first[key] = n
        out[key] = read_field(rec, "action", where, Action.from_name)
    return out
