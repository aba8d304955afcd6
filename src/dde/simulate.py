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
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from ._schema import Record, expect_known_keys, expect_object, integer, read_field, read_json, unit_ids
from .analytics import BACKCHANNEL_MAX_MS, PAUSE_MIN_MS, TURN_JOIN_MS
from .errors import PolicyContractViolation, ValidationError
from .labeler import Action
from .segments import (
    FRAME_MS,
    TICK_MS,
    WINDOW_MS,
    ConversationTrace,
    SpeechSegment,
    build_trace,
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
            raise ValidationError("need 0 < min_ms <= max_ms")

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
            seqs = [unit_ids(seq) for seq in self.sequences]
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
    response_min_ms: int = 1600
    response_max_ms: int = 4000

    kind = "cascaded"

    def __post_init__(self):
        if self.eot_silence_ms < 0:
            raise ValidationError("eot_silence_ms must be non-negative")
        if not 0 < self.response_min_ms <= self.response_max_ms:
            raise ValidationError(
                "need 0 < response_min_ms <= response_max_ms, got "
                f"{self.response_min_ms} and {self.response_max_ms}"
            )

    def default_response(self):
        return UniformResponse(self.response_min_ms, self.response_max_ms)

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


@dataclass(frozen=True)
class ScriptedConfig(_Record):
    """Explicit tick -> action table; unlisted ticks take the idle action
    (SIL when listening, CON when speaking). SPK entries carry a duration."""

    steps: tuple  # of (tick, action_name, duration_ms or None)

    kind = "scripted"

    def __post_init__(self):
        if not isinstance(self.steps, (list, tuple)):
            raise ValidationError("steps: expected a list")
        steps, table = [], {}  # table: tick -> (action, duration_ms or None)
        for i, raw in enumerate(self.steps):
            try:
                step = tuple(raw)
                if len(step) not in (2, 3):
                    raise ValueError("expected [tick, action] or [tick, action, duration_ms]")
                tick = integer(step[0])
                dur = integer(step[2]) if len(step) == 3 and step[2] is not None else None
                if tick < 0:
                    raise ValueError(f"tick must be non-negative, got {tick}")
                if dur is not None and dur <= 0:
                    raise ValueError(f"duration_ms must be positive, got {dur}")
                table[tick] = (Action.from_name(step[1]), dur)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"steps[{i}]: {exc}") from None
            steps.append(step)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "_table", table)

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
    far, plus the full trailing context window on demand."""

    now_ms: int
    other_speaking: bool          # other's utterance covers the instant now_ms
    other_has_spoken: bool        # other has at least one finished segment
    other_last_end_ms: int | None # end of other's latest finished segment
    own_last_end_ms: int | None   # end of own latest finished segment
    mutual_silence_ms: int | None # trailing silence on both channels; None = nothing yet
    _window: object = None        # lazy builder

    @property
    def context(self) -> ConversationTrace:
        return self._window()


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
        tick's end; the final covered chunk already counts as Listening, which
        keeps emitted actions aligned with the labeler's offset convention."""
        covers = (
            self.planned_end_ms is not None
            and self.planned_end_ms > TICK_MS * (tick_index + 1)
        )
        return "Speaking" if covers else "Listening"


_LEGAL = {"Listening": (Action.SIL, Action.SPK), "Speaking": (Action.CON, Action.STP)}


# -------------------------------------------------------------------- engine

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
        entries = read_field(data, "agents", "", tuple, None)
        if entries is None:
            agents, responses = cls.agents, cls.responses
        else:
            agents, responses = [], []
            for i, entry in enumerate(entries):
                path = f"agents[{i}]"
                expect_object(entry, path)
                expect_known_keys(entry, ("policy", "response"), path)
                agents.append(_from_kind(_POLICIES, entry.get("policy"), f"{path}.policy"))
                resp = entry.get("response")
                responses.append(None if resp is None else _from_kind(_RESPONSES, resp, f"{path}.response"))
        return cls(
            seed=read_field(data, "seed"),
            duration_ms=read_field(data, "duration_ms", default=cls.duration_ms),
            agents=tuple(agents),
            responses=tuple(responses),
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
        self.completed: tuple[list, list] = ([], [])
        self.actions: tuple[list, list] = ([], [])
        self.last_committed_end: list[int | None] = [None, None]
        self.tick = 0

    @property
    def n_ticks(self) -> int:
        return self.run.duration_ms // TICK_MS

    def _observations(self) -> tuple[Observation, Observation]:
        """Both agents' views at the start of this tick, after _commit_if_done:
        every live utterance then began at an earlier tick and ends after now."""
        now = self.tick * TICK_MS
        live = [st.utterance_start_ms is not None for st in self.states]
        ends = self.last_committed_end
        if any(live):
            mutual_silence = 0
        else:
            last = max((e for e in ends if e is not None), default=None)
            mutual_silence = None if last is None else now - last
        context = partial(self._context, now)
        return tuple(
            Observation(
                now_ms=now,
                other_speaking=live[1 - agent],
                other_has_spoken=ends[1 - agent] is not None,
                other_last_end_ms=ends[1 - agent],
                own_last_end_ms=ends[agent],
                mutual_silence_ms=mutual_silence,
                _window=context,
            )
            for agent in (0, 1)
        )

    def _context(self, now_ms: int) -> ConversationTrace:
        trace = self._trace_until(now_ms)
        return window(trace, now_ms, self.run.window_ms) if now_ms else trace

    def _trace_until(self, horizon_ms: int) -> ConversationTrace:
        """Committed and live speech cut at horizon_ms; units survive a cut
        only when it lies on the frame grid."""
        events = []
        for agent, st in enumerate(self.states):
            utterances = self.completed[agent]
            if st.utterance_start_ms is not None:
                live = (st.utterance_start_ms, st.planned_end_ms, st.utterance_units)
                utterances = [*utterances, live]
            for s, e, units in utterances:
                if s >= horizon_ms:
                    continue
                e = min(e, horizon_ms)
                if units is not None:
                    units = units[: (e - s) // FRAME_MS] if (e - s) % FRAME_MS == 0 else None
                events.append((agent, SpeechSegment(s, e, units=units)))
        return build_trace(events, horizon_ms)

    def _commit_if_done(self, agent: int, now_ms: int) -> None:
        st = self.states[agent]
        if st.planned_end_ms is not None and st.planned_end_ms <= now_ms:
            self.completed[agent].append(
                (st.utterance_start_ms, st.planned_end_ms, st.utterance_units)
            )
            prev = self.last_committed_end[agent]
            self.last_committed_end[agent] = (
                st.planned_end_ms if prev is None else max(prev, st.planned_end_ms)
            )
            st.utterance_start_ms = None
            st.planned_end_ms = None
            st.utterance_units = None

    def step(self):
        """Advance one tick; returns the (action A, action B) pair."""
        if self.tick >= self.n_ticks:
            raise ValidationError("run already finished")
        now = self.tick * TICK_MS
        tick_end = now + TICK_MS
        for agent in (0, 1):
            self._commit_if_done(agent, now)
        observations = self._observations()
        emitted = []
        for agent, policy in enumerate(self.run.agents):
            state = self.states[agent]
            mode = state.mode(self.tick)
            action, payload = policy.decide(observations[agent], state, mode)
            action = Action(action)
            if action not in _LEGAL[mode]:
                raise PolicyContractViolation(self.tick, "AB"[agent], mode, action)
            if action is Action.SPK:
                self._commit_if_done(agent, tick_end)  # flush any finishing tail
                dur_ms, units = payload
                state.utterance_start_ms = now
                state.planned_end_ms = min(now + dur_ms, self.run.duration_ms)
                state.utterance_units = units
            elif action is Action.STP:
                state.planned_end_ms = tick_end
            emitted.append(action)
            self.actions[agent].append(action)
        self.tick += 1
        return emitted[0], emitted[1]

    def finish(self) -> ConversationTrace:
        for agent in (0, 1):
            self._commit_if_done(agent, self.run.duration_ms)
        return self._trace_until(self.run.duration_ms)


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
