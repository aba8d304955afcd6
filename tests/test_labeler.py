from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dde import (
    Action,
    SpeechSegment,
    ValidationError,
    bpe_train,
    build_samples,
    build_trace,
    encode_target,
    label_sequence,
    label_tick,
)
from dde.labeler import EOS_ID, PAD_ID, BOS_ID, UNIT_ID_OFFSET, write_samples_jsonl
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
