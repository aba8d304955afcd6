import inspect
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dde import (
    Action,
    SpeechSegment,
    TrainingSample,
    ValidationError,
    bpe_train,
    build_samples,
    build_trace,
    encode_target,
    label_sequence,
    label_tick,
)
from dde import labeler
from dde.cli import main
from dde.segments import window_json
from dde.labeler import EOS_ID, PAD_ID, BOS_ID, UNIT_ID_OFFSET, action_histogram, write_samples_jsonl
from conftest import annotated_traces, random_trace
from oracles import frame_label_sequence, window_per_tick_write_samples_jsonl


def seg(a, b, **kw):
    return SpeechSegment(a, b, **kw)


class TestTokenIds:
    def test_fixed_ids(self):
        assert PAD_ID == 0 and BOS_ID == 1 and EOS_ID == 2
        assert Action.SIL == 3
        assert Action.CON == 4
        assert Action.SPK == 5
        assert Action.STP == 6
        assert UNIT_ID_OFFSET == 7


class TestLabelTick:
    def test_all_silent(self):
        t = build_trace([], 5000)
        assert all(a is Action.SIL for a in label_sequence(t, "A"))

    def test_onset_is_spk(self):
        t = build_trace([("A", seg(1000, 3000))], 5000)
        assert label_tick(t, "A", 6) is Action.SPK  # tick 6 = [960, 1120)

    def test_offset_with_overlap_is_stp(self):
        t = build_trace([("A", seg(0, 1000)), ("B", seg(800, 1600))], 5000)
        assert label_tick(t, "A", 6) is Action.STP

    def test_offset_without_overlap_is_sil(self):
        t = build_trace([("A", seg(0, 1000))], 5000)
        assert label_tick(t, "A", 6) is Action.SIL

    def test_interior_is_con(self):
        t = build_trace([("A", seg(0, 1000))], 5000)
        assert label_tick(t, "A", 3) is Action.CON

    def test_hand_enumerated_5s_trace(self):
        t = build_trace([("A", seg(1000, 3000))], 5000)
        labels = label_sequence(t, "A")
        assert len(labels) == 31
        counts = Counter(a.name for a in labels)
        assert counts == {"SIL": 19, "SPK": 1, "CON": 11}
        assert labels[6] is Action.SPK
        assert [labels[i] for i in range(7, 18)] == [Action.CON] * 11

    def test_sub_tick_utterance_is_spk(self):
        # onset and offset inside one tick: initiation wins
        t = build_trace([("A", seg(1000, 1100)), ("B", seg(900, 1400))], 2000)
        assert label_tick(t, "A", 6) is Action.SPK

    def test_offset_on_tick_boundary_belongs_to_closing_tick(self):
        t = build_trace([("A", seg(0, 1120)), ("B", seg(800, 1600))], 2000)
        assert label_tick(t, "A", 6) is Action.STP
        assert label_tick(t, "A", 7) is Action.SIL

    def test_tick_past_end_rejected(self):
        t = build_trace([], 500)
        label_tick(t, "A", 2)  # [320, 480) fits
        with pytest.raises(ValidationError):
            label_tick(t, "A", 3)
        with pytest.raises(ValidationError):
            label_tick(t, "A", -1)

    def test_other_channel_ignored_for_con_sil(self):
        t = build_trace([("B", seg(0, 2000))], 2000)
        assert all(a is Action.SIL for a in label_sequence(t, "A"))
        assert label_sequence(t, "B")[5] is Action.CON


class TestFrameOracleEquivalence:
    def test_matches_frame_oracle_randomized(self, rng):
        for _ in range(100):
            t = random_trace(rng, max_duration_ms=30000)
            for agent in (0, 1):
                fast = [a.name for a in label_sequence(t, agent)]
                assert fast == frame_label_sequence(t, agent)

    def test_spk_exactly_at_onset_ticks(self, rng):
        for _ in range(50):
            t = random_trace(rng, max_duration_ms=30000)
            n_ticks = t.duration_ms // 160
            for agent in (0, 1):
                onset_ticks = {
                    s.start_ms // 160
                    for s in t.channels[agent]
                    if s.start_ms // 160 < n_ticks
                }
                labels = label_sequence(t, agent)
                spk_ticks = {i for i, a in enumerate(labels) if a is Action.SPK}
                assert spk_ticks == onset_ticks

    def test_con_requires_activity_at_tick_end(self, rng):
        for _ in range(50):
            t = random_trace(rng, max_duration_ms=30000)
            for agent in (0, 1):
                for i, a in enumerate(label_sequence(t, agent)):
                    if a is Action.CON:
                        assert t.active_at(agent, 160 * (i + 1))

    def test_labels_ignore_annotations(self, rng):
        for _ in range(25):
            t = random_trace(rng, max_duration_ms=20000, with_units=True)
            stripped = build_trace(
                [
                    (ch, seg(s.start_ms, s.end_ms))
                    for ch in (0, 1)
                    for s in t.channels[ch]
                ],
                t.duration_ms,
            )
            assert label_sequence(t, 0) == label_sequence(stripped, 0)
            assert label_sequence(t, 1) == label_sequence(stripped, 1)


class TestEncodeTarget:
    def test_single_token_actions(self):
        assert encode_target(Action.SIL) == (3,)
        assert encode_target(Action.CON) == (4,)
        assert encode_target(Action.STP) == (6,)

    def test_spk_wraps_units(self):
        assert encode_target(Action.SPK, [45, 198, 117]) == (5, 52, 205, 124, 2)

    def test_spk_without_units_rejected(self):
        with pytest.raises(ValidationError):
            encode_target(Action.SPK)

    def test_units_on_non_spk_rejected(self):
        with pytest.raises(ValidationError):
            encode_target(Action.SIL, [1, 2])

    @given(st.lists(st.integers(min_value=0, max_value=600), max_size=40))
    def test_spk_framing(self, ids):
        toks = encode_target(Action.SPK, ids)
        assert toks[0] == 5 and toks[-1] == 2
        assert all(t >= UNIT_ID_OFFSET for t in toks[1:-1])


class TestBuildSamples:
    def test_one_sample_per_complete_tick(self):
        t = build_trace([], 300000)
        samples = build_samples(t, "A")
        assert len(samples) == 1875

    def test_minimal_trace_single_sil(self):
        t = build_trace([], 160)
        samples = build_samples(t, "B")
        assert len(samples) == 1
        assert samples[0].action is Action.SIL
        assert samples[0].target_tokens == (3,)

    def test_contexts_end_at_tick_boundary(self):
        t = build_trace([("A", seg(1000, 3000))], 5000)
        samples = build_samples(t, "A", window_ms=2000)
        for s in samples:
            assert s.context.duration_ms == min(2000, 160 * (s.tick_index + 1))

    def test_spk_targets_from_units(self):
        units = tuple([7, 7, 8, 8, 9] * 4)  # 20 frames = 400ms
        t = build_trace([("A", seg(320, 720, units=units))], 2000)
        samples = build_samples(t, "A")
        spk = [s for s in samples if s.action is Action.SPK]
        assert len(spk) == 1
        # dedup([7,7,8,8,9,...]) == (7,8,9)*4ish then +7 offset, EOS-terminated
        assert spk[0].target_tokens[0] == 5
        assert spk[0].target_tokens[-1] == 2
        assert spk[0].target_tokens[1] == 7 + UNIT_ID_OFFSET

    def test_spk_targets_with_bpe_vocab(self):
        units = (7, 8, 7, 8, 9, 9, 9, 9)  # 8 frames = 160ms
        t = build_trace([("A", seg(0, 160, units=units))], 320)
        vocab = bpe_train([(7, 8, 7, 8, 9)], 1, 10)
        samples = build_samples(t, "A", vocab=vocab)
        assert samples[0].action is Action.SPK
        # dedup -> (7,8,7,8,9); merge (7,8)->10 -> (10,10,9); +7 -> (17,17,16)
        assert samples[0].target_tokens == (5, 17, 17, 16, 2)

    def test_spk_without_units_has_no_target(self):
        t = build_trace([("A", seg(0, 500))], 1000)
        samples = build_samples(t, "A")
        assert samples[0].action is Action.SPK
        assert samples[0].target_tokens is None

    def test_zero_window_rejected(self):
        with pytest.raises(ValidationError) as exc:
            build_samples(build_trace([], 320), "A", window_ms=0)
        assert str(exc.value) == "window width must be positive"

    def test_non_spk_targets_are_single_tokens(self, rng):
        t = random_trace(rng, max_duration_ms=10000)
        for s in build_samples(t, "A"):
            if s.action is not Action.SPK:
                assert s.target_tokens == (int(s.action),)


class TestInlineWriterOracle:
    """write_samples_jsonl against the writer it replaced, which built a
    window() per sample and encoded it with json.dumps: the same file bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        annotated_traces(),
        # 1 and 333 put the window start off the 20ms grid; 10**6 is wider
        # than any trace drawn here
        st.sampled_from([1, 160, 333, 10**6]) | st.integers(1, 3000),
        st.sampled_from(["inline", "ref"]),
    )
    def test_same_bytes_as_window_per_tick_writer(self, tmp_path_factory, trace, window_ms, mode):
        samples = build_samples(trace, "A", window_ms) + build_samples(trace, "B", window_ms)
        out = tmp_path_factory.mktemp("samples")
        write_samples_jsonl(samples, out / "new.jsonl", mode, "t.json")
        window_per_tick_write_samples_jsonl(samples, out / "old.jsonl", mode, "t.json")
        assert (out / "new.jsonl").read_bytes() == (out / "old.jsonl").read_bytes()

    def test_unit_targets_and_long_random_traces(self, tmp_path, rng):
        vocab = bpe_train([(1, 2, 1, 2, 3)], 2, 50)
        for _ in range(10):
            trace = random_trace(rng, max_duration_ms=30000, with_units=True)
            for window_ms in (1, 160, 333, 5000, 20000, 100000):
                samples = [s for agent in "AB"
                           for s in build_samples(trace, agent, window_ms, vocab)]
                write_samples_jsonl(samples, tmp_path / "new.jsonl", "inline")
                window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", "inline")
                assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    # a path json.dumps must escape: a double quote, a backslash, a space and
    # a non-ASCII letter, which it writes as \u00e9
    @pytest.mark.parametrize("trace_path, encoded", [
        (None, 'null'),
        (Path("dir") / 'a"b\\c dé.json', '"dir/a\\"b\\\\c d\\u00e9.json"'),
    ], ids=["none", "escaped"])
    def test_ref_lines_encode_the_trace_path_as_json_dumps(self, tmp_path, trace_path, encoded):
        trace = build_trace([("A", seg(0, 160, units=(7, 8, 7, 8, 9, 9, 9, 9))),
                             ("B", seg(200, 900))], 1600)
        samples = build_samples(trace, "A", 333) + build_samples(trace, "B", 333)
        write_samples_jsonl(samples, tmp_path / "new.jsonl", "ref", trace_path)
        window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", "ref", trace_path)
        new = (tmp_path / "new.jsonl").read_bytes()
        assert new == (tmp_path / "old.jsonl").read_bytes()
        assert new.count(f'"trace": {encoded},'.encode()) == len(samples)

    def test_unknown_context_mode_rejected(self, tmp_path):
        samples = build_samples(build_trace([], 320), "A")
        with pytest.raises(ValidationError) as exc:
            write_samples_jsonl(samples, tmp_path / "s.jsonl", "inlne", "t.json")
        assert str(exc.value) == "context_mode: expected inline or ref, got 'inlne'"
        assert not (tmp_path / "s.jsonl").exists()


class TestWriterTables:
    """write_samples_jsonl formats each line head once per (agent, action) and
    each target tail once per distinct target. Hand-built samples, in an
    order and with targets build_samples would not give, against the writer
    it replaced."""

    @staticmethod
    def samples():
        short = build_trace([("A", seg(0, 320, units=(7, 8) * 8)), ("B", seg(200, 900))], 1600)
        long = build_trace([("B", seg(100, 2500)), ("A", seg(3000, 3100, units=(1, 2, 1, 2, 3)))], 4800)
        sil = (int(Action.SIL),)
        spk = (int(Action.SPK), 14, 15, EOS_ID)
        return [
            TrainingSample(short, 1, 3, Action.SIL, sil, 333),
            TrainingSample(long, 0, 18, Action.SPK, spk, 160),
            TrainingSample(short, 0, 0, Action.SPK, None, 160),
            TrainingSample(long, 1, 0, Action.SPK, spk, 333),
            TrainingSample(short, 0, 9, Action.SIL, sil, 160),
            TrainingSample(long, 0, 1, Action.CON, [int(Action.CON)], 333),  # a list, which the replaced writer took too
            TrainingSample(short, 1, 2, Action.SPK, (int(Action.SPK), 16, EOS_ID), 160),
            TrainingSample(long, 1, 29, Action.STP, (int(Action.STP),), 333),
            TrainingSample(short, 1, 4, Action.SPK, spk, 333),
            TrainingSample(long, 0, 7, Action.SIL, None, 160),
        ]

    @pytest.mark.parametrize("mode", ["inline", "ref"])
    def test_same_bytes_as_window_per_tick_writer(self, tmp_path, mode):
        samples = self.samples()
        write_samples_jsonl(samples, tmp_path / "new.jsonl", mode, "t.json")
        window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", mode, "t.json")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()


class TestActionHistogram:
    def test_every_action_in_action_order(self):
        samples = build_samples(build_trace([("A", seg(1000, 3000))], 5000), "A")
        assert list(action_histogram(samples).items()) == [("SIL", 19), ("CON", 11), ("SPK", 1), ("STP", 0)]

    def test_no_samples_count_zero_for_every_action(self):
        assert list(action_histogram([]).items()) == [("SIL", 0), ("CON", 0), ("SPK", 0), ("STP", 0)]

    def test_label_prints_the_histogram_line_whole(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(build_trace([("A", seg(1000, 3000)), ("B", seg(2500, 4000))], 5000).to_json())
        out = tmp_path / "s.jsonl"
        assert main(["label", "--trace", str(trace), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 62 samples\nSIL=40 CON=19 SPK=2 STP=1\n"


class TestTrainingSampleContract:
    """What callers may rely on in a sample, whatever class holds its fields."""

    @staticmethod
    def sample(**changes):
        trace = build_trace([("A", seg(0, 320, units=(7, 8) * 8))], 1600)
        fields = dict(trace=trace, agent=1, tick_index=3, action=Action.SIL, target_tokens=(3,), window_ms=333)
        return TrainingSample(**{**fields, **changes})

    def test_field_names_order_and_defaults(self):
        params = inspect.signature(TrainingSample).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("trace", inspect.Parameter.empty), ("agent", inspect.Parameter.empty),
            ("tick_index", inspect.Parameter.empty), ("action", inspect.Parameter.empty),
            ("target_tokens", None), ("window_ms", 20000),
        ]
        s = TrainingSample(build_trace([], 320), 0, 1, Action.SIL)
        assert (s.target_tokens, s.window_ms) == (None, 20000)

    def test_repr_leaves_out_the_trace(self):
        assert repr(self.sample()) == (
            "TrainingSample(agent=1, tick_index=3, action=<Action.SIL: 3>, target_tokens=(3,), window_ms=333)"
        )

    def test_equal_fields_equal_samples(self):
        # an equal trace that is another object still makes an equal sample
        other_trace = build_trace([("A", seg(0, 320, units=(7, 8) * 8))], 1600)
        assert self.sample() == self.sample() == self.sample(trace=other_trace)
        for changes in (dict(trace=build_trace([], 1600)), dict(agent=0), dict(tick_index=4),
                        dict(action=Action.CON), dict(target_tokens=None), dict(window_ms=160)):
            assert self.sample() != self.sample(**changes), changes

    @pytest.mark.parametrize("name", ["trace", "agent", "tick_index", "action", "target_tokens", "window_ms"])
    def test_assigning_a_field_raises(self, name):
        s = self.sample()
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))


def _alternating_turns(minutes):
    """A trace of 1.4 s unit-annotated turns, each starting 1 s after the
    other speaker's, over `minutes` minutes."""
    events = [("AB"[k % 2], seg(1000 * k, 1000 * k + 1400, units=tuple(range(k % 5, k % 5 + 70))))
              for k in range(minutes * 60 - 2)]
    return build_trace(events, minutes * 60000)


class TestBothSpeakersOnePass:
    """Samples of both speakers over one trace, A's ticks before B's, as `dde
    label --speaker both` lists them: each tick's context is formatted once."""

    def test_window_json_once_per_tick(self, tmp_path, monkeypatch):
        trace = _alternating_turns(1)
        samples = build_samples(trace, "A", 5000) + build_samples(trace, "B", 5000)
        calls = []
        real = labeler.window_json
        monkeypatch.setattr(labeler, "window_json", lambda *a: calls.append(a[1]) or real(*a))
        write_samples_jsonl(samples, tmp_path / "new.jsonl", "inline")
        assert calls == [160 * (i + 1) for i in range(trace.duration_ms // 160)]
        window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", "inline")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    @pytest.mark.parametrize("second_half", [
        lambda trace, b: b + b[:1],  # one sample more than the first half
        lambda trace, b: build_samples(trace, "B", 333),  # another width
        lambda trace, b: b[::-1],  # the same ticks in another order
        lambda trace, b: build_samples(build_trace([], trace.duration_ms), "B", 5000),  # another trace
    ], ids=["odd", "width", "order", "trace"])
    def test_halves_without_shared_contexts_written_per_sample(self, tmp_path, second_half):
        trace = _alternating_turns(1)
        samples = build_samples(trace, "A", 5000)
        samples += second_half(trace, build_samples(trace, "B", 5000))
        write_samples_jsonl(samples, tmp_path / "new.jsonl", "inline")
        window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", "inline")
        assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()

    def test_memory_does_not_grow_with_the_trace(self, tmp_path):
        peaks = []
        for minutes in (1, 4):
            trace = _alternating_turns(minutes)
            samples = build_samples(trace, "A") + build_samples(trace, "B")
            window_json(trace, 160, 160)  # the trace's cached JSON parts are the trace's, not the writer's
            tracemalloc.start()
            try:
                write_samples_jsonl(samples, tmp_path / "s.jsonl", "inline")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0], peaks

    def test_failed_write_raises_the_same_error_and_leaves_no_spool(self, tmp_path, monkeypatch):
        trace = _alternating_turns(1)
        ticks = trace.duration_ms // 160
        # one more tick for each speaker, past the trace's end
        samples = [*build_samples(trace, "A", 333), TrainingSample(trace, 0, ticks, Action.SIL, (3,), 333),
                   *build_samples(trace, "B", 333), TrainingSample(trace, 1, ticks, Action.SIL, (3,), 333)]
        (tmp_path / "out").mkdir()
        (tmp_path / "tmp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        with pytest.raises(ValidationError) as new:
            write_samples_jsonl(samples, tmp_path / "out" / "new.jsonl", "inline")
        with pytest.raises(ValidationError) as old:
            window_per_tick_write_samples_jsonl(samples, tmp_path / "old.jsonl", "inline")
        assert str(new.value) == str(old.value) == f"window end {160 * (ticks + 1)} outside (0, {trace.duration_ms}]"
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["new.jsonl"]
        assert list((tmp_path / "tmp").iterdir()) == []
