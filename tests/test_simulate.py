import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from dde import (
    FRAME_MS,
    Action,
    CascadedConfig,
    PolicyContractViolation,
    ScriptedConfig,
    SelfChat,
    SimRun,
    SpeechSegment,
    StochasticConfig,
    TICK_MS,
    ValidationError,
    build_samples,
    build_trace,
    cascaded_run,
    conversation_report,
    cross_channel_events,
    label_sequence,
    run_selfchat,
    stochastic_run,
    window,
)
from dde import simulate
from dde.analytics import BACKCHANNEL_MAX_MS, PAUSE_MIN_MS, TURN_JOIN_MS
from dde.simulate import (
    MIN_BURST_TICKS, PAUSE_TICKS, SELF_RESUME_MS, CorpusResponse, LogNormalResponse, UniformResponse,
)


def scripted_run(steps_a, steps_b=(), duration_ms=30000, seed=0):
    return SimRun(
        seed=seed,
        duration_ms=duration_ms,
        agents=(ScriptedConfig(steps=tuple(steps_a)), ScriptedConfig(steps=tuple(steps_b))),
    )


class _IntActions:
    """`policy`, returning each action as its plain int value (3 for SIL)."""

    def __init__(self, policy):
        self.policy = policy

    def default_response(self):
        return self.policy.default_response()

    def decide(self, obs, state, mode):
        action, payload = self.policy.decide(obs, state, mode)
        return int(action), payload


def _int_run(run):
    return dataclasses.replace(run, agents=tuple(map(_IntActions, run.agents)))


class TestEngineBasics:
    def test_silent_run_produces_empty_trace(self):
        trace = run_selfchat(scripted_run([], []))
        assert trace.channels == ((), ())

    def test_scripted_response_materializes(self):
        chat = SelfChat(scripted_run([(0, "SPK", 2000)], duration_ms=4800))
        actions = [chat.step()[0] for _ in range(chat.n_ticks)]
        trace = chat.finish()
        assert [(s.start_ms, s.end_ms) for s in trace.channels[0]] == [(0, 2000)]
        assert actions[0] is Action.SPK
        assert actions[1:12] == [Action.CON] * 11
        assert actions[12] is Action.SIL

    def test_stp_truncates_at_tick_end(self):
        chat = SelfChat(
            scripted_run([(0, "SPK", 3000), (5, "STP")], duration_ms=3200)
        )
        for _ in range(chat.n_ticks):
            chat.step()
        trace = chat.finish()
        assert [(s.start_ms, s.end_ms) for s in trace.channels[0]] == [(0, 960)]

    def test_step_after_the_last_tick_raises(self):
        chat = SelfChat(scripted_run([], duration_ms=320))
        chat.step()
        chat.step()
        with pytest.raises(ValidationError) as exc:
            chat.step()
        assert str(exc.value) == "run already finished"

    def test_illegal_action_raises(self):
        chat = SelfChat(scripted_run([(0, "CON")], duration_ms=1600))
        with pytest.raises(PolicyContractViolation) as err:
            chat.step()
        assert err.value.tick_index == 0
        assert err.value.agent == "A"

    def test_contract_violation_message_names_the_action(self):
        chat = SelfChat(scripted_run([(0, "CON")], duration_ms=1600))
        with pytest.raises(PolicyContractViolation) as err:
            chat.step()
        assert str(err.value) == "agent A emitted CON while Listening at tick 0"
        assert err.value.action is Action.CON

    def test_int_actions_are_logged_as_members(self):
        for run in (stochastic_run(3, 60000), cascaded_run(3, 60000)):
            member, plain = SelfChat(run), SelfChat(_int_run(run))
            for _ in range(member.n_ticks):
                member.step()
                assert all(type(a) is Action for a in plain.step())
            assert plain.actions == member.actions
            assert {Action.SIL, Action.SPK} <= set(plain.actions[0])
            assert plain.finish() == member.finish()

    def test_illegal_int_action_raises_as_its_member(self):
        chat = SelfChat(_int_run(scripted_run([(0, "CON")], duration_ms=1600)))
        with pytest.raises(PolicyContractViolation) as err:
            chat.step()
        assert str(err.value) == "agent A emitted CON while Listening at tick 0"
        assert err.value.action is Action.CON

    def test_illegal_stop_while_listening(self):
        chat = SelfChat(scripted_run([(3, "STP")], duration_ms=1600))
        with pytest.raises(PolicyContractViolation):
            for _ in range(chat.n_ticks):
                chat.step()

    def test_spk_while_speaking_rejected(self):
        chat = SelfChat(
            scripted_run([(0, "SPK", 2000), (2, "SPK", 2000)], duration_ms=1600)
        )
        with pytest.raises(PolicyContractViolation):
            for _ in range(chat.n_ticks):
                chat.step()

    def test_timing_constants_meet_the_analytics_definitions(self):
        assert (PAUSE_TICKS, MIN_BURST_TICKS, SELF_RESUME_MS) == (2, 7, 480)
        assert PAUSE_MIN_MS < PAUSE_TICKS * TICK_MS < TURN_JOIN_MS
        assert LogNormalResponse().min_ms == MIN_BURST_TICKS * TICK_MS > BACKCHANNEL_MAX_MS
        assert SELF_RESUME_MS >= TURN_JOIN_MS and SELF_RESUME_MS % TICK_MS == 0

    def test_duration_must_cover_a_tick(self):
        with pytest.raises(ValidationError):
            SimRun(seed=0, duration_ms=100)
        with pytest.raises(ValidationError):
            SimRun(seed=0, duration_ms=0)
        # trailing partial tick is allowed and stays silent
        trace = run_selfchat(scripted_run([(0, "SPK", 480)], duration_ms=1000))
        assert trace.duration_ms == 1000
        assert [(s.start_ms, s.end_ms) for s in trace.channels[0]] == [(0, 480)]

    def test_response_clipped_at_run_end(self):
        trace = run_selfchat(scripted_run([(0, "SPK", 99999)], duration_ms=1600))
        assert [(s.start_ms, s.end_ms) for s in trace.channels[0]] == [(0, 1600)]

    def test_observation_context_matches_window(self):
        seen = {}

        class Spy:
            def decide(self, obs, state, mode):
                seen[chat.tick] = obs.context.to_dict()
                return (Action.CON if mode == "Speaking" else Action.SIL), None

        run = scripted_run([(0, "SPK", 1600)], duration_ms=3200)
        chat = SelfChat(dataclasses.replace(
            run, agents=(run.agents[0], Spy()), responses=(None, UniformResponse()),
        ))
        for _ in range(chat.n_ticks):
            chat.step()
        assert seen[0] == {"duration_ms": 0, "channels": [[], []]}
        # at tick 12 the observation covers [0, 1920): A's utterance clipped
        assert seen[12]["channels"][0] == [{"start_ms": 0, "end_ms": 1600}]


POLICY_KINDS = ("cascaded", "stochastic", "scripted")


def _random_agent(rng, kind, n_ticks):
    """A (policy, response) pair of `kind` with random settings."""
    default = None
    if kind == "cascaded":
        lo = int(rng.integers(1, 3000))
        policy = CascadedConfig(int(rng.choice([0, 160, 800, 1200])))
        default = UniformResponse(lo, lo + int(rng.integers(0, 3000)))
    elif kind == "stochastic":
        def p():
            return float(rng.choice([0.0, 1.0, rng.random(), rng.random() / 10]))

        policy = StochasticConfig(p(), int(rng.integers(1, 1500)), p(), int(rng.integers(0, 4)), p(), p())
    else:
        steps = tuple(
            (
                int(rng.integers(0, n_ticks + 1)),
                str(rng.choice(["SPK", "SPK", "SPK", "SPK", "STP", "CON"])),
                None if rng.random() < 0.4 else int(rng.integers(1, 5000)),
            )
            for _ in range(int(rng.integers(0, 10)))
        )
        policy = ScriptedConfig(steps=steps)
    response = [
        default,
        UniformResponse(160, int(rng.integers(160, 4000))),
        LogNormalResponse(mean_ms=float(rng.uniform(300, 4000))),
        CorpusResponse(sequences=tuple(
            tuple(int(u) for u in rng.integers(0, 50, int(rng.integers(8, 250))))
            for _ in range(3)
        )),
    ][int(rng.integers(4))]
    return policy, response


class TestObservationOracle:
    """Every Observation equals a plain scan of the engine's history: the
    committed utterances plus the live (planned, uncommitted) ones. The
    committed ones are read from the engine's own merged history
    (SelfChat.history), so the cut at commit and the merge are the engine's
    and not derived here."""

    FIELDS = (
        "now_ms", "other_speaking", "other_has_spoken",
        "other_last_end_ms", "own_last_end_ms", "mutual_silence_ms",
    )

    @staticmethod
    def _scan(done, live, now, agent):
        said = [done[ch] + live[ch] for ch in (0, 1)]
        last_end = [max((e for _, e, _ in done[ch]), default=None) for ch in (0, 1)]
        heard_ends = [min(e, now) for ch in (0, 1) for s, e, _ in said[ch] if s < now]
        return {
            "now_ms": now,
            "other_speaking": any(s <= now < e for s, e, _ in said[1 - agent]),
            "other_has_spoken": bool(done[1 - agent]),
            "other_last_end_ms": last_end[1 - agent],
            "own_last_end_ms": last_end[agent],
            "mutual_silence_ms": now - max(heard_ends) if heard_ends else None,
        }

    @staticmethod
    def _heard(done, live, now, window_ms):
        """window(build_trace(everything begun before now, cut at now))."""
        events = []
        for ch in (0, 1):
            for s, e, units in done[ch] + live[ch]:
                if s < now:
                    e = min(e, now)
                    units = None if units is None else units[: (e - s) // FRAME_MS]
                    events.append((ch, SpeechSegment(s, e, units=units)))
        trace = build_trace(events, now)
        return window(trace, now, window_ms) if now else trace

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_observations_match_a_scan_of_the_history(self, kind):
        rng = np.random.default_rng(POLICY_KINDS.index(kind))
        oracle = self
        checked = contexts = 0

        class Checked:
            def __init__(self, policy, agent):
                self.policy, self.agent = policy, agent

            def default_response(self):
                return self.policy.default_response()

            def decide(self, obs, state, mode):
                nonlocal checked, contexts
                if history["now"] != obs.now_ms:  # A decides first: the state B observed too
                    history.update(
                        now=obs.now_ms,
                        done=[[(s.start_ms, s.end_ms, s.units) for s in h] for h in chat.history],
                        live=[
                            [] if st.utterance_start_ms is None
                            else [(st.utterance_start_ms, st.planned_end_ms, st.utterance_units)]
                            for st in chat.states
                        ],
                    )
                done, live, now = history["done"], history["live"], obs.now_ms
                assert {f: getattr(obs, f) for f in oracle.FIELDS} == oracle._scan(
                    done, live, now, self.agent
                )
                checked += 1
                if rng.random() < 0.3:
                    expected = oracle._heard(done, live, now, chat.run.window_ms)
                    assert obs.context.to_dict() == expected.to_dict()
                    contexts += 1
                return self.policy.decide(obs, state, mode)

        for _ in range(20):
            duration_ms = int(rng.integers(160, 16000))
            n_ticks = duration_ms // TICK_MS
            kinds = (kind, POLICY_KINDS[int(rng.integers(3))])
            pairs = [_random_agent(rng, k, n_ticks) for k in kinds]
            chat = SelfChat(SimRun(
                seed=int(rng.integers(1000)),
                duration_ms=duration_ms,
                agents=tuple(Checked(policy, i) for i, (policy, _) in enumerate(pairs)),
                responses=tuple(response for _, response in pairs),
                opening_speaker=[None, 0, 1][int(rng.integers(3))],
                window_ms=int(rng.integers(1, 25000)),
            ))
            history = {"now": None}
            try:
                for _ in range(chat.n_ticks):
                    chat.step()
            except PolicyContractViolation:  # a random script may break the contract
                pass
        assert checked > 500 and contexts > 150


class _ReadsContext:
    """`policy`, after reading its context, which it keeps in `seen` by (agent, tick)."""

    def __init__(self, policy, agent, seen):
        self.policy, self.agent, self.seen = policy, agent, seen

    def default_response(self):
        return self.policy.default_response()

    def decide(self, obs, state, mode):
        self.seen[self.agent, obs.now_ms // TICK_MS] = obs.context
        return self.policy.decide(obs, state, mode)


def _reading_run(run, seen):
    """run with each agent reading its context on every tick."""
    return dataclasses.replace(
        run, agents=tuple(_ReadsContext(p, i, seen) for i, p in enumerate(run.agents)),
    )


class _SpeaksAtRandom:
    """Keeps the contract at random: while Listening it SPKs on one tick in
    ten, also in the final chunk of its own utterance, which it counts in
    counts["final_chunk"]; while Speaking it STPs on one tick in fifty."""

    def __init__(self, counts):
        self.counts = counts

    def decide(self, obs, state, mode):
        if mode == "Speaking":
            return (Action.STP if state.rng.random() < 0.02 else Action.CON), None
        if state.rng.random() >= 0.1:
            return Action.SIL, None
        if state.planned_end_ms is not None and state.planned_end_ms > obs.now_ms:
            self.counts["final_chunk"] += 1
        return Action.SPK, state.response.draw(state.rng)


class TestContextParity:
    """Train/serve parity: the context agent a reads at tick i >= 1 is the
    context of build_samples(final trace, a)[i - 1], the sample dde label
    writes for the tick before. Two named exceptions hold units the final
    trace has lost:
      - a run ending off the 20ms grid: finish() drops the cut segment's units;
      - a unit-carrying utterance that a later utterance of the same agent
        touches: build_trace merges the two, and the union keeps units only
        when both carry them and merely touch.
    """

    @staticmethod
    def _exception(ctx, expected, left, trace, actions, tick):
        """Which named exception explains ctx != expected, read at tick, or None."""
        found = None
        for ch, (got, want) in enumerate(zip(ctx.channels, expected.channels)):
            if [(s.start_ms, s.end_ms) for s in got] != [(s.start_ms, s.end_ms) for s in want]:
                return None
            for g, w in zip(got, want):
                if g == w:
                    continue
                if g.units is None or w.units is not None or g != dataclasses.replace(w, units=g.units):
                    return None
                whole = next(s for s in trace.channels[ch] if s.start_ms <= g.start_ms + left < s.end_ms)
                if whole.end_ms == trace.duration_ms and trace.duration_ms % FRAME_MS:
                    found = "off_grid_end"
                elif any(a is Action.SPK and t >= tick and whole.start_ms <= t * TICK_MS < whole.end_ms
                         for t, a in enumerate(actions[ch])):  # an utterance begun after the read merged in
                    found = "merged_utterances"
                else:
                    return None
        return found

    @staticmethod
    def _compare(runs, explain):
        """Runs each run with both agents reading their context; the number of
        contexts compared with the labelled ones, and how many of those that
        differ explain(ctx, expected, left, trace, actions, tick) names of each kind."""
        compared, kinds = 0, Counter()
        for i, run in enumerate(runs):
            seen = {}
            chat = SelfChat(_reading_run(run, seen))
            for _ in range(chat.n_ticks):
                chat.step()
            trace = chat.finish()
            for agent in (0, 1):
                for sample in build_samples(trace, agent, run.window_ms)[: chat.n_ticks - 1]:
                    tick = sample.tick_index + 1
                    ctx, expected = seen[agent, tick], sample.context
                    compared += 1
                    if ctx != expected:
                        left = max(0, tick * TICK_MS - run.window_ms)
                        kind = explain(ctx, expected, left, trace, chat.actions, tick)
                        assert kind is not None, (i, agent, sample.tick_index)
                        kinds[kind] += 1
        return compared, kinds

    def test_observed_context_is_the_labelled_context(self):
        rng = np.random.default_rng(16)
        corpus = CorpusResponse(sequences=tuple(
            tuple(int(u) for u in rng.integers(0, 50, int(rng.integers(8, 250)))) for _ in range(4)
        ))
        runs = []
        for i in range(30):
            duration_ms = int(rng.integers(160, 40000))
            if i % 2:
                duration_ms -= duration_ms % TICK_MS
            seed = int(rng.integers(1000))
            run = [
                stochastic_run(seed, duration_ms),
                # backchannels often touch the end of one's own unit-carrying turn
                dataclasses.replace(
                    stochastic_run(seed, duration_ms, StochasticConfig(p_backchannel_per_tick=0.2)),
                    responses=(corpus, corpus),
                ),
                cascaded_run(seed, duration_ms),
            ][i % 3]
            runs.append(dataclasses.replace(run, window_ms=int(rng.choice([333, 5000, 20000, 50000]))))
        compared, exceptions = self._compare(runs, self._exception)
        assert compared > 5000
        assert exceptions["merged_utterances"] > 0 and exceptions["off_grid_end"] > 0
        assert sum(exceptions.values()) < compared / 100

    @staticmethod
    def _spk_in_final_chunk(ctx, expected, left, trace, actions, tick):
        """Whether every segment that differs only lost its units to an
        utterance its agent began inside it before the read: an SPK in the
        final chunk of its own utterance, which the engine merges with it."""
        for ch, (got, want) in enumerate(zip(ctx.channels, expected.channels)):
            if [(s.start_ms, s.end_ms) for s in got] != [(s.start_ms, s.end_ms) for s in want]:
                return False
            for g, w in zip(got, want):
                if g != w and (w.units is not None or g != dataclasses.replace(w, units=g.units) or not any(
                    a is Action.SPK and g.start_ms + left < t * TICK_MS < g.end_ms + left
                    for t, a in enumerate(actions[ch][:tick])
                )):
                    return False
        return True

    def test_spk_in_the_final_chunk_of_ones_own_utterance(self):
        """No shipped policy SPKs in the tick where its own utterance ends.
        A context read between that SPK and the end of the merged utterance
        holds the first utterance's units, which the final trace drops: a
        third exception, checked here only."""
        rng = np.random.default_rng(21)
        corpus = CorpusResponse(sequences=tuple(
            tuple(int(u) for u in rng.integers(0, 50, int(rng.integers(8, 250)))) for _ in range(4)
        ))
        counts = {"final_chunk": 0}
        runs = [
            SimRun(
                seed=int(rng.integers(1000)),
                duration_ms=int(rng.integers(160, 40000)),
                agents=(_SpeaksAtRandom(counts), _SpeaksAtRandom(counts)),
                responses=(response, response),
                window_ms=int(rng.choice([333, 5000, 20000])),
            )
            for response in [corpus, UniformResponse(160, 2400)] * 6
        ]

        def explain(*mismatch):
            return self._exception(*mismatch) or (
                "spk_in_final_chunk" if self._spk_in_final_chunk(*mismatch) else None
            )

        compared, exceptions = self._compare(runs, explain)
        assert counts["final_chunk"] > 0 and exceptions["spk_in_final_chunk"] > 0
        assert compared > 2000 and sum(exceptions.values()) < compared / 10


class _RecordsModes:
    """`policy`, keeping each mode it decides in, one per tick, in `modes`."""

    def __init__(self, policy, modes):
        self.policy, self.modes = policy, modes

    def default_response(self):
        return self.policy.default_response()

    def decide(self, obs, state, mode):
        self.modes.append(mode)
        return self.policy.decide(obs, state, mode)


class TestLabelLegality:
    """Train/serve contract: each label dde label writes for a self-chat tick
    is an action the engine accepts in that agent's mode at that tick. Three
    kinds of label are named exceptions, each with the action the engine took:
      - STP while Listening, action SIL: the agent's utterance ends inside
        the tick while the other agent speaks; the final chunk of an
        utterance counts as Listening;
      - SIL while Speaking, action STP: the agent stopped with the other
        agent silent at the cut, and the labeler has no stop without overlap;
      - CON while Listening, action SIL or SPK: the merge case, a new SPK
        starting at the agent's own previous end, which build_trace merges
        into one segment across both ticks.
    Cascaded runs show none of them."""

    LEGAL = {"Listening": (Action.SIL, Action.SPK), "Speaking": (Action.CON, Action.STP)}
    EXCEPTIONS = {
        (Action.STP, "Listening"): (Action.SIL,),
        (Action.SIL, "Speaking"): (Action.STP,),
        (Action.CON, "Listening"): (Action.SIL, Action.SPK),
    }

    def _exceptions(self, runs):
        """Count of each named exception over the runs' ticks, both agents;
        a label outside the contract and the exceptions fails the test."""
        found = dict.fromkeys(self.EXCEPTIONS, 0)
        for run in runs:
            modes = ([], [])
            chat = SelfChat(dataclasses.replace(
                run, agents=tuple(_RecordsModes(p, modes[i]) for i, p in enumerate(run.agents)),
            ))
            for _ in range(chat.n_ticks):
                chat.step()
            trace = chat.finish()
            for agent in (0, 1):
                ticks = zip(label_sequence(trace, agent), modes[agent], chat.actions[agent], strict=True)
                for tick, (label, mode, action) in enumerate(ticks):
                    if label not in self.LEGAL[mode]:
                        assert action in self.EXCEPTIONS.get((label, mode), ()), (
                            run.seed, agent, tick, label, mode, action,
                        )
                        found[label, mode] += 1
        return list(found.values())

    def test_stochastic_labels_are_legal_but_for_the_named_exceptions(self):
        # 30 runs x 750 ticks x 2 agents = 45000 ticks
        runs = [stochastic_run(seed, 120000) for seed in range(30)]
        assert self._exceptions(runs) == [195, 7, 2]

    def test_corpus_response_labels_are_legal_but_for_the_named_exceptions(self):
        rng = np.random.default_rng(7)
        corpus = CorpusResponse(sequences=tuple(
            tuple(int(u) for u in rng.integers(0, 50, int(rng.integers(8, 250)))) for _ in range(4)
        ))
        runs = [
            dataclasses.replace(stochastic_run(seed, 120000), responses=(corpus, corpus))
            for seed in range(30)
        ]
        assert self._exceptions(runs) == [220, 8, 2]

    def test_cascaded_labels_are_all_legal(self):
        assert self._exceptions([cascaded_run(seed, 120000) for seed in range(40)]) == [0, 0, 0]


def test_context_reads_only_the_window(monkeypatch):
    """A context read hands window() the recent speech only, so its cost
    follows the window, not the run; a tick's context is built once for both
    agents, and tick 0's empty one not at all."""
    lags = []

    def spy(trace, end_ms, width_ms):
        ends = [s.end_ms for ch in trace.channels for s in ch]
        lags.append(min(ends, default=end_ms) - (end_ms - width_ms))
        return window(trace, end_ms, width_ms)

    monkeypatch.setattr(simulate, "window", spy)
    seen = {}
    run = dataclasses.replace(stochastic_run(seed=3, duration_ms=60000), window_ms=5000)
    run_selfchat(_reading_run(run, seen))
    assert len(lags) == run.duration_ms // TICK_MS - 1
    assert min(lags) >= 0


def test_both_agents_read_one_context_per_tick():
    seen = {}
    chat = SelfChat(_reading_run(stochastic_run(seed=3, duration_ms=30000), seen))
    for _ in range(chat.n_ticks):
        chat.step()
    assert all(seen[0, tick] is seen[1, tick] for tick in range(chat.n_ticks))
    assert len({id(seen[0, tick]) for tick in range(chat.n_ticks)}) == chat.n_ticks


@pytest.mark.parametrize(
    "second_spk_tick, merged_end_ms, read_tick",
    [(2, 2880, 5), (1, 2720, 10)],
    ids=["touching_ends_at_the_window_start", "overlapping_ends_before_the_window_start"],
)
def test_speech_before_the_window_merges_with_a_live_utterance(second_spk_tick, merged_end_ms, read_tick):
    """A's unit-less [0, 320) and the unit-carrying utterance A starts at
    second_spk_tick merge, as build_trace merges them, so a later window of
    480ms shows no units though it holds only the second utterance. Starting
    at 160, in the tick where [0, 320) ends, the second overlaps the first."""
    seen = {}
    run = SimRun(
        seed=0, duration_ms=3200, window_ms=480,
        agents=(ScriptedConfig(steps=((0, "SPK", 320), (second_spk_tick, "SPK"))), ScriptedConfig(steps=())),
        responses=(CorpusResponse(sequences=((5,) * 128,)), None),
    )
    trace = run_selfchat(_reading_run(run, seen))
    assert trace.channels[0] == (SpeechSegment(0, merged_end_ms),)
    assert seen[0, read_tick].channels == ((SpeechSegment(0, 480),), ())


def test_context_read_after_its_tick_is_an_error():
    kept, policy = [], CascadedConfig()

    class Keeps:
        def default_response(self):
            return policy.default_response()

        def decide(self, obs, state, mode):
            kept.append(obs)
            return policy.decide(obs, state, mode)

    run_selfchat(dataclasses.replace(cascaded_run(seed=1, duration_ms=3200), agents=(Keeps(), Keeps())))
    with pytest.raises(ValidationError, match="context of the tick at 1600ms read after that tick"):
        kept[20].context


class TestCascaded:
    def test_examples_trailing_silence(self):
        run = cascaded_run(seed=3, duration_ms=30000)
        chat = SelfChat(run)
        for _ in range(chat.n_ticks):
            chat.step()
        trace = chat.finish()
        # opener at tick 0
        assert chat.actions[0][0] is Action.SPK
        a0 = trace.channels[0][0]
        b0 = trace.channels[1][0]
        # B answers exactly 800ms after A's opening turn ends
        assert b0.start_ms == a0.end_ms + 800

    def test_strict_alternation_and_exact_gaps(self):
        for seed in (0, 7, 123):
            trace = run_selfchat(cascaded_run(seed=seed, duration_ms=300000))
            turns = sorted(
                [(s.start_ms, s.end_ms, 0) for s in trace.channels[0]]
                + [(s.start_ms, s.end_ms, 1) for s in trace.channels[1]]
            )
            for (s1, e1, sp1), (s2, e2, sp2) in zip(turns, turns[1:]):
                assert sp1 != sp2
                assert s2 - e1 == 800
            ev = cross_channel_events(trace)
            assert ev["overlaps"] == []
            assert ev["backchannels"] == []
            assert ev["pauses"] == []

    def test_table_row_reproduction(self):
        rep = conversation_report(run_selfchat(cascaded_run(seed=42, duration_ms=300000)))
        assert rep.overlaps_per_min == 0.0
        assert rep.backchannels_per_min == 0.0
        assert rep.pauses_per_min == 0.0
        assert rep.avg_gap_ms == 800.0

    def test_threshold_not_met_stays_silent(self):
        run = SimRun(
            seed=0,
            duration_ms=3200,
            agents=(ScriptedConfig(steps=((0, "SPK", 800),)), CascadedConfig()),
        )
        chat = SelfChat(run)
        for _ in range(chat.n_ticks):
            chat.step()
        # A spoke [0,800); at tick 9 trailing silence is 640ms < 800 -> SIL;
        # B replies at tick 10, exactly 800ms after A's turn end
        b_actions = chat.actions[1]
        assert b_actions[9] is Action.SIL
        assert b_actions[10] is Action.SPK
        assert b_actions[:10].count(Action.SPK) == 0

    def test_emitted_actions_equal_trace_labels(self):
        for seed in (1, 9):
            run = cascaded_run(seed=seed, duration_ms=60000)
            chat = SelfChat(run)
            for _ in range(chat.n_ticks):
                chat.step()
            trace = chat.finish()
            for agent in (0, 1):
                assert label_sequence(trace, agent) == chat.actions[agent]


class TestStochastic:
    def test_determinism(self):
        a = run_selfchat(stochastic_run(seed=5, duration_ms=60000))
        b = run_selfchat(stochastic_run(seed=5, duration_ms=60000))
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = run_selfchat(stochastic_run(seed=5, duration_ms=60000))
        b = run_selfchat(stochastic_run(seed=6, duration_ms=60000))
        assert a.to_json() != b.to_json()

    def test_all_probabilities_zero_is_permanent_silence(self):
        cfg = StochasticConfig(
            p_backchannel_per_tick=0.0,
            p_initiate_per_tick_after_gap=0.0,
            p_stop_on_overlap_per_tick=0.0,
            pause_insertion_rate=0.0,
        )
        trace = run_selfchat(stochastic_run(seed=1, duration_ms=30000, cfg=cfg))
        assert trace.channels == ((), ())

    def test_degenerate_no_bc_no_pause(self):
        cfg = StochasticConfig(
            p_backchannel_per_tick=0.0,
            p_stop_on_overlap_per_tick=0.0,
            pause_insertion_rate=0.0,
        )
        trace = run_selfchat(stochastic_run(seed=2, duration_ms=300000, cfg=cfg))
        rep = conversation_report(trace)
        assert rep.backchannels_per_min == 0.0
        assert rep.pauses_per_min == 0.0

    def test_backchannel_every_eligible_tick(self):
        cfg = StochasticConfig(
            p_backchannel_per_tick=1.0,
            backchannel_ms=160,
            p_initiate_per_tick_after_gap=0.0,
        )
        run = SimRun(
            seed=0,
            duration_ms=4800,
            agents=(ScriptedConfig(steps=((0, "SPK", 4800),)), cfg),
        )
        chat = SelfChat(run)
        for _ in range(chat.n_ticks):
            chat.step()
        # B listens at tick 0 (A invisible yet), then alternates SPK/CON? 160ms
        # bc = 1 tick, so B re-fires every tick from 1 on
        assert chat.actions[1][0] is Action.SIL
        assert all(a is Action.SPK for a in chat.actions[1][1:])

    def test_mode_legality_holds_every_tick(self):
        for seed in range(5):
            run = stochastic_run(seed=seed, duration_ms=120000)
            chat = SelfChat(run)
            for tick in range(chat.n_ticks):
                modes = [chat.states[i].mode(tick) for i in (0, 1)]
                a, b = chat.step()
                for agent, (mode, action) in enumerate(zip(modes, (a, b))):
                    if mode == "Listening":
                        assert action in (Action.SIL, Action.SPK)
                    else:
                        assert action in (Action.CON, Action.STP)

    def test_backchannel_monotonicity_small(self):
        means = []
        for p in (0.0, 0.02, 0.05):
            cfg = StochasticConfig(p_backchannel_per_tick=p)
            rates = [
                conversation_report(
                    run_selfchat(stochastic_run(seed=s, duration_ms=120000, cfg=cfg))
                ).backchannels_per_min
                for s in range(10)
            ]
            means.append(sum(rates) / len(rates))
        assert means[0] <= means[1] <= means[2]


class TestResponses:
    def test_uniform_bounds_and_quantization(self, rng):
        gen = UniformResponse(min_ms=1600, max_ms=4000)
        for _ in range(50):
            ms, units = gen.draw(rng)
            assert 1600 <= ms <= 4000
            assert ms % 160 == 0
            assert units is None

    def test_lognormal_floor_and_cap(self, rng):
        gen = LogNormalResponse(mean_ms=2800, sigma=0.6, min_ms=1120, max_ms=8000)
        draws = [gen.draw(rng)[0] for _ in range(300)]
        assert all(1120 <= d <= 8000 and d % 160 == 0 for d in draws)
        assert 2000 < np.mean(draws) < 3600

    def test_corpus_durations_follow_units(self, rng):
        gen = CorpusResponse(sequences=((1,) * 16, (2,) * 24))
        ms, units = gen.draw(rng)
        assert ms == 20 * len(units)
        assert ms % 160 == 0

    def test_corpus_rejects_too_short(self):
        with pytest.raises(ValidationError):
            CorpusResponse(sequences=((1, 2, 3),))

    def test_corpus_units_reach_trace(self):
        run = SimRun(
            seed=0,
            duration_ms=3200,
            agents=(ScriptedConfig(steps=((0, "SPK"),)), ScriptedConfig(steps=())),
            responses=(CorpusResponse(sequences=((5,) * 16,)), None),
        )
        trace = run_selfchat(run)
        seg = trace.channels[0][0]
        assert seg.units == (5,) * 16
        assert seg.duration_ms == 320


STOCHASTIC_DICT = {
    "kind": "stochastic", "p_backchannel_per_tick": 0.007, "backchannel_ms": 480,
    "p_initiate_per_tick_after_gap": 0.25, "min_gap_ticks": 1,
    "p_stop_on_overlap_per_tick": 0.03, "pause_insertion_rate": 0.46,
}

RECORD_DICTS = [
    (UniformResponse(), {"kind": "uniform", "min_ms": 1600, "max_ms": 4000}),
    (
        LogNormalResponse(),
        {"kind": "lognormal", "mean_ms": 2800.0, "sigma": 0.6, "min_ms": 1120, "max_ms": 15000},
    ),
    (
        CorpusResponse(sequences=((1,) * 8, (2,) * 17, (3,) * 5)),
        {"kind": "corpus", "sequences": [[1] * 8, [2] * 16]},
    ),
    (CascadedConfig(), {"kind": "cascaded", "eot_silence_ms": 800}),
    (StochasticConfig(), STOCHASTIC_DICT),
    (
        ScriptedConfig(steps=((0, "SPK", 2000), (5, "STP"), (9, "spk", None))),
        {"kind": "scripted", "steps": [[0, "SPK", 2000], [5, "STP"], [9, "spk", None]]},
    ),
]


class TestRunConfig:
    def test_roundtrip(self):
        run = stochastic_run(seed=11, duration_ms=48000)
        assert SimRun.from_dict(run.to_dict()) == run

    def test_cascaded_roundtrip(self):
        run = cascaded_run(seed=3)
        rebuilt = SimRun.from_dict(run.to_dict())
        assert rebuilt.opening_speaker == 0
        assert rebuilt.agents[0].eot_silence_ms == 800

    @pytest.mark.parametrize("record, expected", RECORD_DICTS, ids=lambda r: type(r).__name__)
    def test_record_dict_format_and_roundtrip(self, record, expected):
        assert json.dumps(record.to_dict()) == json.dumps(expected)  # key order too
        assert type(record).from_dict(json.loads(json.dumps(expected)), "record") == record

    def test_roundtrip_with_every_response_kind(self):
        run = SimRun(
            seed=4,
            duration_ms=9600,
            agents=(ScriptedConfig(steps=((0, "SPK"),)), StochasticConfig()),
            responses=(CorpusResponse(sequences=((5,) * 16,)), LogNormalResponse(mean_ms=2000.0)),
            opening_speaker=1,
            window_ms=4000,
        )
        data = run.to_dict()
        assert list(data) == ["seed", "duration_ms", "opening_speaker", "window_ms", "agents"]
        assert data == {
            "seed": 4, "duration_ms": 9600, "opening_speaker": "B", "window_ms": 4000,
            "agents": [
                {
                    "policy": {"kind": "scripted", "steps": [[0, "SPK"]]},
                    "response": {"kind": "corpus", "sequences": [[5] * 16]},
                },
                {
                    "policy": STOCHASTIC_DICT,
                    "response": {
                        "kind": "lognormal", "mean_ms": 2000.0, "sigma": 0.6,
                        "min_ms": 1120, "max_ms": 15000,
                    },
                },
            ],
        }
        assert SimRun.from_dict(json.loads(json.dumps(data))) == run
        uniform = SimRun(
            seed=0, agents=(CascadedConfig(), ScriptedConfig(steps=())),
            responses=(None, UniformResponse(min_ms=320, max_ms=640)),
        )
        assert SimRun.from_dict(json.loads(json.dumps(uniform.to_dict()))) == uniform

    def test_absent_fields_take_defaults(self):
        run = SimRun.from_dict({
            "seed": 1,
            "agents": [
                {"policy": {"kind": "cascaded"}, "response": {"kind": "uniform"}},
                {"policy": {"kind": "stochastic"}, "response": {"kind": "lognormal"}},
            ],
        })
        assert run == SimRun(
            seed=1, agents=(CascadedConfig(), StochasticConfig()),
            responses=(UniformResponse(), LogNormalResponse()),
        )

    def test_errors_name_the_json_path(self):
        data = cascaded_run(seed=1).to_dict()
        data["agents"][1]["policy"]["eot_silence_ms"] = 12.5
        with pytest.raises(ValidationError, match=r"^agents\[1\]\.policy\.eot_silence_ms: "):
            SimRun.from_dict(data)

    @pytest.mark.parametrize("value, index", [(1.0, 1), ("b", 1), (0, 0)])
    def test_opening_speaker_forms(self, value, index):
        run = SimRun.from_dict({"seed": 1, "opening_speaker": value})
        assert run.opening_speaker == index
        assert run.to_dict()["opening_speaker"] == "AB"[index]

    def test_boolean_opening_speaker_rejected(self):
        with pytest.raises(ValidationError, match=r"^opening_speaker: unknown speaker True"):
            SimRun.from_dict({"seed": 1, "opening_speaker": True})

    @pytest.mark.parametrize(
        "agent, message",
        [
            ({"policy": {"kind": "scripted", "steps": [[0, "SPK", 0]]}},
             "policy: steps[0]: duration_ms must be positive, got 0"),
            ({"policy": {"kind": "scripted", "steps": [[0, "SPK"], [4, "SPK", -160]]}},
             "policy: steps[1]: duration_ms must be positive, got -160"),
            ({"policy": {"kind": "scripted", "steps": [[-1, "SPK"]]}},
             "policy: steps[0]: tick must be non-negative, got -1"),
            # a cascaded policy's response bounds are its agent's uniform response
            ({"policy": {"kind": "cascaded"}, "response": {"kind": "uniform", "min_ms": 0}},
             "response: need 0 < min_ms <= max_ms, got 0 and 4000"),
            ({"policy": {"kind": "cascaded"},
              "response": {"kind": "uniform", "min_ms": 3000, "max_ms": 2000}},
             "response: need 0 < min_ms <= max_ms, got 3000 and 2000"),
        ],
        ids=["zero_duration", "negative_duration", "negative_tick", "zero_min", "min_over_max"],
    )
    def test_bad_policy_settings_rejected_at_load(self, agent, message):
        data = {"seed": 1, "agents": [{"policy": {"kind": "cascaded"}}, agent]}
        with pytest.raises(ValidationError) as err:
            SimRun.from_dict(data)
        assert str(err.value) == f"agents[1].{message}"

    def test_scripted_steps_are_checked_on_construction(self):
        with pytest.raises(ValidationError, match=r"^steps\[1\]: "):
            ScriptedConfig(steps=((0, "SPK", 2000), (3, "SPK", 1.5)))


class TestDecideWrappers:
    """A policy's decide() at one tick, in the state's current mode."""

    def _obs(self, now_ms, other_last_end=None, mutual_silence=None,
             other_speaking=False, own_last_end=None):
        from dde.simulate import Observation
        return Observation(
            now_ms=now_ms,
            other_speaking=other_speaking,
            other_has_spoken=other_last_end is not None,
            other_last_end_ms=other_last_end,
            own_last_end_ms=own_last_end,
            mutual_silence_ms=mutual_silence,
        )

    def _state(self, cfg, seed=0, **kw):
        from dde.simulate import AgentState
        return AgentState(rng=np.random.default_rng(seed), response=cfg.default_response(), **kw)

    def _decide(self, cfg, obs, state):
        return cfg.decide(obs, state, state.mode(obs.now_ms // TICK_MS))[0]

    def test_cascaded_fires_at_threshold(self):
        cfg = CascadedConfig()
        state = self._state(cfg)
        obs = self._obs(10800, other_last_end=10000, mutual_silence=800)
        assert self._decide(cfg, obs, state) is Action.SPK

    def test_cascaded_below_threshold_stays_silent(self):
        cfg = CascadedConfig()
        state = self._state(cfg)
        obs = self._obs(10640, other_last_end=10000, mutual_silence=640)
        assert self._decide(cfg, obs, state) is Action.SIL

    def test_cascaded_keeps_speaking_until_planned_end(self):
        cfg = CascadedConfig()
        state = self._state(cfg, utterance_start_ms=0, planned_end_ms=1600)
        obs = self._obs(640, mutual_silence=0)
        assert self._decide(cfg, obs, state) is Action.CON

    def test_cascaded_answers_each_turn_once(self):
        cfg = CascadedConfig()
        state = self._state(cfg)
        obs = self._obs(10800, other_last_end=10000, mutual_silence=800)
        assert self._decide(cfg, obs, state) is Action.SPK
        obs2 = self._obs(10960, other_last_end=10000, mutual_silence=960)
        assert self._decide(cfg, obs2, state) is Action.SIL

    def test_stochastic_backchannel_certain(self):
        cfg = StochasticConfig(p_backchannel_per_tick=1.0)
        state = self._state(cfg)
        obs = self._obs(1600, other_speaking=True, mutual_silence=0,
                        other_last_end=None)
        assert self._decide(cfg, obs, state) is Action.SPK

    def test_stochastic_all_zero_probabilities_silent(self):
        cfg = StochasticConfig(
            p_backchannel_per_tick=0.0,
            p_initiate_per_tick_after_gap=0.0,
            p_stop_on_overlap_per_tick=0.0,
            pause_insertion_rate=0.0,
        )
        state = self._state(cfg)
        for now in (0, 1600, 16000):
            obs = self._obs(now, other_speaking=(now == 1600), mutual_silence=now or None)
            assert self._decide(cfg, obs, state) is Action.SIL
