"""Seeded self-chat simulator: two policy-driven agents on a 160ms tick loop.

Every tick each agent observes the conversation so far (a trailing 20s
window) and emits one action. A Listening agent may stay silent or initiate
speech (SPK); a Speaking agent may continue (CON) or stop mid-utterance
(STP). The engine enforces that contract, materializes speech as trace
segments, and is bit-reproducible for a given (config, seed) pair: each agent
draws from its own generator spawned from the run seed via SeedSequence.

Speech always starts on a tick boundary, and generator-drawn response
durations are quantized to whole ticks, which is what makes the
fixed-silence baseline's turn gaps land exactly on its threshold. Scripted
policies may schedule arbitrary-millisecond durations.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields

import numpy as np

from ._schema import Record, expect_known_keys, expect_object, integer, items, read_field, read_json, unit_ids
from .analytics import BACKCHANNEL_MAX_MS, PAUSE_MIN_MS, TURN_JOIN_MS
from .errors import PolicyContractViolation, ValidationError
from .labeler import Action
from .segments import (
    FRAME_MS,
    MAX_DURATION_MS,
    TICK_MS,
    WINDOW_MS,
    ConversationTrace,
    SpeechSegment,
    build_trace,
    push_segment,
    speaker_index,
    window,
)

PAUSE_TICKS = PAUSE_MIN_MS // TICK_MS + 1  # the shortest counted pause; 320ms < TURN_JOIN_MS
MIN_BURST_TICKS = BACKCHANNEL_MAX_MS // TICK_MS + 1  # split bursts stay over the backchannel cutoff
SELF_RESUME_MS = math.ceil(TURN_JOIN_MS / TICK_MS) * TICK_MS  # sooner would join one's own turn
FRAMES_PER_TICK = TICK_MS // FRAME_MS


def _quantize_ms(ms: float) -> int:
    """Round a duration to whole ticks, at least one."""
    return max(1, int(round(ms / TICK_MS))) * TICK_MS


def _spoken(start_ms: int, end_ms: int, units) -> SpeechSegment:
    """[start_ms, end_ms) of an utterance; its units survive, trimmed, only on the frame grid."""
    n, off_grid = divmod(end_ms - start_ms, FRAME_MS)
    return SpeechSegment(start_ms, end_ms, units=None if units is None or off_grid else units[:n])


# ------------------------------------------------------------ config records

class _Record(Record):
    """A frozen config dataclass whose JSON form is its `kind` plus its fields.
    A policy record's decide(obs, state, mode) returns (action, payload), an
    SPK's payload being (duration_ms, units or None), drawn by state.response."""

    def to_dict(self):
        return {"kind": self.kind, **super().to_dict()}


def _from_kind(records, data, path):
    """The record of the class whose `kind` data names; other keys must be its fields."""
    expect_object(data, path)
    kind = data.get("kind")
    if not (isinstance(kind, str) and kind in records):
        raise ValidationError(f"{path}.kind: unknown kind {kind!r}, expected {sorted(records)}")
    cls = records[kind]
    expect_known_keys(data, ["kind", *(f.name for f in fields(cls))], path)
    return cls.from_dict(data, path)


# ------------------------------------------------------------ response draws

@dataclass(frozen=True)
class UniformResponse(_Record):
    """Uniform response duration, tick-quantized."""

    min_ms: int = 1600
    max_ms: int = 4000

    kind = "uniform"

    def __post_init__(self):
        if not 0 < self.min_ms <= self.max_ms:
            raise ValidationError(f"need 0 < min_ms <= max_ms, got {self.min_ms} and {self.max_ms}")

    def draw(self, rng):
        return _quantize_ms(rng.uniform(self.min_ms, self.max_ms)), None


@dataclass(frozen=True)
class LogNormalResponse(_Record):
    """Log-normal response duration with a configurable mean, tick-quantized.

    min_ms floors the draw; the default keeps full responses above the 1s
    backchannel cutoff so only deliberate backchannels register as such.
    """

    mean_ms: float = 2800.0
    sigma: float = 0.6
    min_ms: int = MIN_BURST_TICKS * TICK_MS
    max_ms: int = 15000

    kind = "lognormal"

    def __post_init__(self):
        if self.mean_ms <= 0 or self.sigma < 0 or not 0 < self.min_ms <= self.max_ms:
            raise ValidationError("bad log-normal response parameters")

    def draw(self, rng):
        mu = math.log(self.mean_ms) - self.sigma**2 / 2.0
        ms = min(max(float(rng.lognormal(mu, self.sigma)), float(self.min_ms)), float(self.max_ms))
        return _quantize_ms(ms), None


@dataclass(frozen=True)
class CorpusResponse(_Record):
    """Sample raw unit sequences; duration follows the sampled sequence."""

    sequences: tuple[tuple[int, ...], ...]

    kind = "corpus"

    def __post_init__(self):
        try:
            seqs = items(self.sequences, read=unit_ids)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sequences: {exc}") from None
        usable = tuple(
            seq[: len(seq) - len(seq) % FRAMES_PER_TICK]
            for seq in seqs
            if len(seq) >= FRAMES_PER_TICK
        )
        if not usable:
            raise ValidationError(
                f"corpus needs sequences of at least {FRAMES_PER_TICK} frames"
            )
        object.__setattr__(self, "sequences", usable)

    def draw(self, rng):
        seq = self.sequences[int(rng.integers(len(self.sequences)))]
        return FRAME_MS * len(seq), seq


_RESPONSES = {cls.kind: cls for cls in (UniformResponse, LogNormalResponse, CorpusResponse)}


# ----------------------------------------------------------------- policies

@dataclass(frozen=True)
class CascadedConfig(_Record):
    """Fixed-silence-threshold turn taking: answer once the line has been
    quiet long enough; never barge in, never stop early."""

    eot_silence_ms: int = 800

    kind = "cascaded"

    def __post_init__(self):
        if self.eot_silence_ms < 0:
            raise ValidationError("eot_silence_ms must be non-negative")

    def default_response(self):
        return UniformResponse()

    def decide(self, obs: Observation, state: AgentState, mode: str):
        if mode == "Speaking":
            return Action.CON, None
        if state.is_opener and obs.mutual_silence_ms is None:
            return Action.SPK, state.response.draw(state.rng)
        if (
            obs.other_has_spoken
            and obs.mutual_silence_ms is not None
            and obs.mutual_silence_ms >= self.eot_silence_ms
            and obs.other_last_end_ms != state.answered_end_ms
        ):
            state.answered_end_ms = obs.other_last_end_ms
            return Action.SPK, state.response.draw(state.rng)
        return Action.SIL, None


@dataclass(frozen=True)
class StochasticConfig(_Record):
    """Duplex-style behavior: backchannels while listening, probabilistic
    initiation after short mutual silence, stop-on-overlap, and mid-response
    pause insertion. Defaults were frozen from a seeded calibration run
    (scripts/calibrate_stochastic.py)."""

    p_backchannel_per_tick: float = 0.007
    backchannel_ms: int = 480
    p_initiate_per_tick_after_gap: float = 0.25
    min_gap_ticks: int = 1
    p_stop_on_overlap_per_tick: float = 0.03
    pause_insertion_rate: float = 0.46

    kind = "stochastic"

    def __post_init__(self):
        for name in (
            "p_backchannel_per_tick",
            "p_initiate_per_tick_after_gap",
            "p_stop_on_overlap_per_tick",
            "pause_insertion_rate",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {p}")
        if self.backchannel_ms <= 0 or self.min_gap_ticks < 0:
            raise ValidationError("bad stochastic policy durations")

    def default_response(self):
        return LogNormalResponse()

    def _plan(self, state: AgentState, tick_index: int):
        """Draw a response and split it into bursts separated by 320ms pauses.

        Returns the first burst and queues the rest as (start tick, burst):
        each starts PAUSE_TICKS after the previous one ends unless cancelled.
        Cut points keep every burst at least MIN_BURST_TICKS long, so split
        bursts never masquerade as backchannels.
        """
        total_ms, units = state.response.draw(state.rng)
        n_ticks = total_ms // TICK_MS
        cuts = [0]
        for k in range(MIN_BURST_TICKS, n_ticks - MIN_BURST_TICKS + 1):
            if k - cuts[-1] >= MIN_BURST_TICKS and state.rng.random() < self.pause_insertion_rate:
                cuts.append(k)
        cuts.append(n_ticks)
        bursts = []
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            burst_units = None if units is None else units[lo * FRAMES_PER_TICK : hi * FRAMES_PER_TICK]
            bursts.append((tick_index + lo + i * PAUSE_TICKS, ((hi - lo) * TICK_MS, burst_units)))
        state.pending_bursts = bursts[1:]
        return bursts[0][1]

    def decide(self, obs: Observation, state: AgentState, mode: str):
        if mode == "Speaking":
            if obs.other_speaking and state.rng.random() < self.p_stop_on_overlap_per_tick:
                state.pending_bursts = []
                return Action.STP, None
            return Action.CON, None
        tick_index = obs.now_ms // TICK_MS
        if state.pending_bursts:  # mid-response pause
            if obs.other_speaking:  # floor was taken mid-pause: yield
                state.pending_bursts = []
                return Action.SIL, None
            start_tick, burst = state.pending_bursts[0]
            if tick_index < start_tick:
                return Action.SIL, None
            del state.pending_bursts[0]
            return Action.SPK, burst
        if state.is_opener and obs.mutual_silence_ms is None:
            return Action.SPK, self._plan(state, tick_index)
        if state.planned_end_ms is not None and state.planned_end_ms > obs.now_ms:
            return Action.SIL, None  # own utterance tail still in flight
        if obs.other_speaking and state.rng.random() < self.p_backchannel_per_tick:
            return Action.SPK, (_quantize_ms(self.backchannel_ms), None)
        gate_ms = self.min_gap_ticks * TICK_MS
        long_enough = obs.mutual_silence_ms is None or obs.mutual_silence_ms >= gate_ms
        # taking the floor: wait long enough after one's own turn that the new
        # utterance cannot read as a continuation of it
        floor_open = (
            obs.own_last_end_ms is None
            or obs.now_ms - obs.own_last_end_ms >= SELF_RESUME_MS
        )
        if long_enough and floor_open and state.rng.random() < self.p_initiate_per_tick_after_gap:
            return Action.SPK, self._plan(state, tick_index)
        return Action.SIL, None


def _step(raw, path):
    """(step, (tick, (action, duration_ms or None))) of [tick, action(, duration_ms)]."""
    try:
        step = items(raw)
        if len(step) not in (2, 3):
            raise ValueError("expected [tick, action] or [tick, action, duration_ms]")
        tick = integer(step[0])
        dur = integer(step[2]) if len(step) == 3 and step[2] is not None else None
        if tick < 0:
            raise ValueError(f"tick must be non-negative, got {tick}")
        if dur is not None and dur <= 0:
            raise ValueError(f"duration_ms must be positive, got {dur}")
        return step, (tick, (Action.from_name(step[1]), dur))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ScriptedConfig(_Record):
    """Explicit tick -> action table; unlisted ticks take the idle action
    (SIL when listening, CON when speaking). SPK entries carry a duration."""

    steps: tuple  # of (tick, action_name, duration_ms or None)

    kind = "scripted"

    def __post_init__(self):
        steps = items(self.steps, "steps", _step)
        object.__setattr__(self, "steps", tuple(step for step, _ in steps))
        object.__setattr__(self, "_table", dict(entry for _, entry in steps))

    def default_response(self):
        return UniformResponse()

    def decide(self, obs: Observation, state: AgentState, mode: str):
        entry = self._table.get(obs.now_ms // TICK_MS)
        if entry is None:
            return (Action.CON if mode == "Speaking" else Action.SIL), None
        action, dur = entry
        if action is Action.SPK:
            if dur is None:
                return Action.SPK, state.response.draw(state.rng)
            return Action.SPK, (dur, None)  # scripted durations verbatim
        return action, None


_POLICIES = {cls.kind: cls for cls in (CascadedConfig, StochasticConfig, ScriptedConfig)}


@dataclass
class Observation:
    """What one agent sees at a tick: cheap summaries of the conversation so
    far, plus the trailing context window at the tick start, to be read
    inside decide: a read after the tick raises ValidationError."""

    now_ms: int
    other_speaking: bool          # other's utterance covers the instant now_ms
    other_has_spoken: bool        # other has at least one finished segment
    other_last_end_ms: int | None # end of other's latest finished segment
    own_last_end_ms: int | None   # end of own latest finished segment
    mutual_silence_ms: int | None # trailing silence on both channels; None = nothing yet
    _chat: object = None          # the SelfChat that builds the context

    @property
    def context(self) -> ConversationTrace:
        return self._chat._context(self.now_ms)


@dataclass
class AgentState:
    """Engine-visible agent state plus policy scratch space."""

    rng: np.random.Generator
    is_opener: bool = False
    utterance_start_ms: int | None = None
    planned_end_ms: int | None = None
    utterance_units: tuple[int, ...] | None = None
    # policy scratch
    answered_end_ms: int | None = None     # cascaded: other-turn already answered
    pending_bursts: list = field(default_factory=list)  # stochastic: queued (start tick, burst)
    response: object = None                # the agent's response generator (draw(rng))

    def mode(self, tick_index: int) -> str:
        """Speaking while the planned utterance extends strictly past the
        tick's end; the final covered chunk already counts as Listening.
        The labeler does not always agree: tests/test_simulate.py::
        TestLabelLegality names and counts the labels illegal in this mode,
        most of them STP for the tick in which an utterance ends while the
        other agent speaks."""
        covers = (
            self.planned_end_ms is not None
            and self.planned_end_ms > TICK_MS * (tick_index + 1)
        )
        return "Speaking" if covers else "Listening"


_LEGAL = {"Listening": (Action.SIL, Action.SPK), "Speaking": (Action.CON, Action.STP)}


# -------------------------------------------------------------------- engine

def _agent(entry, path):
    """(policy, response or None) of a run config's `agents` entry."""
    expect_object(entry, path)
    expect_known_keys(entry, ("policy", "response"), path)
    resp = entry.get("response")
    return (
        _from_kind(_POLICIES, entry.get("policy"), f"{path}.policy"),
        None if resp is None else _from_kind(_RESPONSES, resp, f"{path}.response"),
    )


@dataclass(frozen=True)
class SimRun:
    """Everything that determines one self-chat run."""

    seed: int
    duration_ms: int = 30000
    agents: tuple = (CascadedConfig(), CascadedConfig())
    responses: tuple = (None, None)          # None -> policy default
    opening_speaker: int | None = None       # who seeds the conversation
    window_ms: int = WINDOW_MS

    def __post_init__(self):
        if self.duration_ms < TICK_MS:
            raise ValidationError(
                f"duration must cover at least one {TICK_MS}ms tick"
            )
        if self.duration_ms > MAX_DURATION_MS:
            raise ValidationError(f"duration_ms: at most {MAX_DURATION_MS}, got {self.duration_ms}")
        if len(self.agents) != 2 or len(self.responses) != 2:
            raise ValidationError("a run needs exactly two agents")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.window_ms <= 0:
            raise ValidationError(f"window_ms must be positive, got {self.window_ms}")

    def to_dict(self):
        return {
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "opening_speaker": None
            if self.opening_speaker is None
            else "AB"[self.opening_speaker],
            "window_ms": self.window_ms,
            "agents": [
                {
                    "policy": cfg.to_dict(),
                    "response": None if resp is None else resp.to_dict(),
                }
                for cfg, resp in zip(self.agents, self.responses)
            ],
        }

    @classmethod
    def from_dict(cls, data) -> "SimRun":
        """Absent or null fields take the defaults declared above."""
        expect_object(data, "run")
        expect_known_keys(data, ("seed", "duration_ms", "opening_speaker", "window_ms", "agents"))
        entries = data.get("agents")
        pairs = tuple(zip(cls.agents, cls.responses)) if entries is None else items(entries, "agents", _agent)
        return cls(
            seed=read_field(data, "seed"),
            duration_ms=read_field(data, "duration_ms", default=cls.duration_ms),
            agents=tuple(policy for policy, _ in pairs),
            responses=tuple(response for _, response in pairs),
            opening_speaker=read_field(data, "opening_speaker", "", speaker_index, cls.opening_speaker),
            window_ms=read_field(data, "window_ms", default=cls.window_ms),
        )


class SelfChat:
    """Lock-step tick loop over two agents; deterministic for a given run."""

    def __init__(self, run: SimRun):
        self.run = run
        streams = np.random.SeedSequence(run.seed).spawn(2)
        self.states = tuple(
            AgentState(
                rng=np.random.default_rng(streams[i]),
                is_opener=(run.opening_speaker == i),
                response=run.responses[i] or run.agents[i].default_response(),
            )
            for i in (0, 1)
        )
        self.history: tuple[list[SpeechSegment], list[SpeechSegment]] = ([], [])
        self.actions: tuple[list, list] = ([], [])
        self.tick = 0
        self._last_context = 0, ConversationTrace(((), ()), 0)  # (tick start, its context)

    @property
    def n_ticks(self) -> int:
        return self.run.duration_ms // TICK_MS

    def _context(self, now_ms: int) -> ConversationTrace:
        """The window at the tick start now_ms, built once for both agents, of the segments
        ending at or after its start or after the start of a live utterance they merge with."""
        if now_ms != self.tick * TICK_MS:
            raise ValidationError(f"context of the tick at {now_ms}ms read after that tick")
        if self._last_context[0] != now_ms:
            channels = []
            for history, st in zip(self.history, self.states):
                live = st.utterance_start_ms is not None
                start = min(now_ms - self.run.window_ms, st.utterance_start_ms if live else now_ms)
                recent = history[bisect_left(history, start, key=lambda s: s.end_ms):]
                if live:
                    push_segment(recent, _spoken(st.utterance_start_ms, now_ms, st.utterance_units))
                channels.append(recent)
            self._last_context = now_ms, window(ConversationTrace(channels, now_ms), now_ms, self.run.window_ms)
        return self._last_context[1]

    def _commit_if_done(self, agent: int, now_ms: int) -> None:
        st = self.states[agent]
        if st.planned_end_ms is not None and st.planned_end_ms <= now_ms:
            history = self.history[agent]
            push_segment(history, _spoken(st.utterance_start_ms, st.planned_end_ms, st.utterance_units))
            st.utterance_start_ms = None
            st.planned_end_ms = None
            st.utterance_units = None

    def step(self):
        """Advance one tick, both agents deciding on its start state; returns (action A, action B)."""
        tick, run = self.tick, self.run
        now = tick * TICK_MS
        tick_end = now + TICK_MS
        if tick_end > run.duration_ms:  # tick >= n_ticks
            raise ValidationError("run already finished")
        self._commit_if_done(0, now)
        self._commit_if_done(1, now)
        # Both agents' views at the start of this tick, after _commit_if_done:
        # every live utterance then began at an earlier tick and ends after now.
        live_a = self.states[0].utterance_start_ms is not None
        live_b = self.states[1].utterance_start_ms is not None
        a, b = self.history
        end_a = a[-1].end_ms if a else None
        end_b = b[-1].end_ms if b else None
        if live_a or live_b:
            mutual_silence = 0
        else:  # a segment ends after 0ms, so a last end of 0 means nothing yet
            last = max(end_a or 0, end_b or 0)
            mutual_silence = now - last if last else None
        observations = (
            Observation(now, live_b, end_b is not None, end_b, end_a, mutual_silence, self),
            Observation(now, live_a, end_a is not None, end_a, end_b, mutual_silence, self),
        )
        changes = []
        try:
            for agent, policy in enumerate(run.agents):
                state = self.states[agent]
                mode = state.mode(tick)
                action, payload = policy.decide(observations[agent], state, mode)
                if type(action) is not Action:
                    action = Action(action)
                if action not in _LEGAL[mode]:
                    raise PolicyContractViolation(tick, "AB"[agent], mode, action)
                if action is Action.SPK or action is Action.STP:
                    changes.append((agent, action, payload))
                self.actions[agent].append(action)
        finally:  # a logged action takes effect even when the other agent's decision raises
            for agent, action, payload in changes:
                state = self.states[agent]
                if action is Action.SPK:
                    self._commit_if_done(agent, tick_end)  # flush any finishing tail
                    dur_ms, units = payload
                    state.utterance_start_ms = now
                    state.planned_end_ms = min(now + dur_ms, run.duration_ms)
                    state.utterance_units = units
                else:  # STP
                    state.planned_end_ms = tick_end
        self.tick = tick + 1
        return self.actions[0][-1], self.actions[1][-1]

    def finish(self) -> ConversationTrace:
        for agent in (0, 1):
            self._commit_if_done(agent, self.run.duration_ms)
        return build_trace([(a, s) for a in (0, 1) for s in self.history[a]], self.run.duration_ms)


def run_selfchat(run: SimRun) -> ConversationTrace:
    """Run the whole tick loop and return the realized conversation."""
    chat = SelfChat(run)
    for _ in range(chat.n_ticks):
        chat.step()
    return chat.finish()


def cascaded_run(seed: int, duration_ms: int = SimRun.duration_ms) -> SimRun:
    """Both sides on the fixed-silence baseline, speaker A opening."""
    return SimRun(
        seed=seed,
        duration_ms=duration_ms,
        agents=(CascadedConfig(), CascadedConfig()),
        opening_speaker=0,
    )


def stochastic_run(
    seed: int, duration_ms: int = SimRun.duration_ms, cfg: StochasticConfig | None = None
) -> SimRun:
    cfg = cfg or StochasticConfig()
    return SimRun(
        seed=seed,
        duration_ms=duration_ms,
        agents=(cfg, cfg),
        opening_speaker=None,
    )


def read_run_config(path) -> SimRun:
    return SimRun.from_dict(read_json(path, "run config"))
