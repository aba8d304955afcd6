import json
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings

from dde import (
    ConversationTrace,
    EventCounts,
    SpeechSegment,
    ValidationError,
    build_trace,
    frame_grid,
    read_trace,
    speaker_index,
    window,
)
from dde import _schema
from dde._schema import unit_ids
from dde.segments import FRAME_MS, window_json, write_trace
from conftest import annotated_traces, random_trace, random_unaligned_trace
from oracles import clip_by_frames, frame_activity, indent_encoder_write_trace, ms_activity, scan_window


def seg(a, b, **kw):
    return SpeechSegment(a, b, **kw)


class TestBuildTrace:
    def test_one_channel_rejected(self):
        with pytest.raises(ValidationError) as exc:
            ConversationTrace(channels=((),), duration_ms=0)
        assert str(exc.value) == "expected 2 channels, got 1"

    def test_duration_past_a_day_repeats_at_most_40_characters(self):
        assert ConversationTrace(((), ()), 24 * 3600 * 1000).duration_ms == 86400000
        with pytest.raises(ValidationError) as exc:
            ConversationTrace(((), ()), 10**400)
        assert str(exc.value) == "duration_ms: at most 86400000, got 1" + "0" * 39 + "…(401 characters)"

    def test_duration_past_the_int_to_str_digit_limit(self):
        """str() refuses an int of more than 4300 digits; the error still names it."""
        with pytest.raises(ValidationError) as exc:
            ConversationTrace(((), ()), 10**5000)
        assert str(exc.value) == "duration_ms: at most 86400000, got 1" + "0" * 39 + "…(5001 characters)"

    def test_empty(self):
        t = build_trace([], 5000)
        assert t.channels == ((), ())
        assert t.duration_ms == 5000

    def test_overlapping_same_channel_merged(self):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(900, 1500))], 2000)
        assert [(s.start_ms, s.end_ms) for s in t.channels[0]] == [(0, 1500)]

    def test_cross_channel_overlap_kept(self):
        t = build_trace([("A", seg(0, 100)), ("B", seg(50, 150))], 200)
        assert len(t.channels[0]) == 1
        assert len(t.channels[1]) == 1

    def test_touching_segments_merge(self):
        t = build_trace([("A", seg(0, 100)), ("A", seg(100, 200))], 300)
        assert [(s.start_ms, s.end_ms) for s in t.channels[0]] == [(0, 200)]

    def test_touching_merge_concatenates_annotations(self):
        t = build_trace(
            [
                ("A", seg(0, 100, units=(1, 2, 3, 4, 5), words=2)),
                ("A", seg(100, 200, units=(6, 7, 8, 9, 10), words=3)),
            ],
            300,
        )
        merged = t.channels[0][0]
        assert merged.units == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
        assert merged.words == 5

    def test_touching_merge_sums_words_and_events(self):
        t = build_trace(
            [
                ("B", seg(200, 260, units=(9, 9, 9), events=EventCounts(laughs=1))),
                ("B", seg(100, 200, units=(6, 7, 8, 9, 10), words=3, events=EventCounts(1, 2, 0, 0))),
                ("B", seg(0, 100, units=(1, 2, 3, 4, 5), words=2, events=EventCounts(fillers=1, breaths=3))),
            ],
            300,
        )
        # words need both sides annotated; units and events do not stop at the unworded third
        assert t.channels[1] == (
            seg(0, 260, units=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9, 9, 9), events=EventCounts(2, 2, 1, 3)),
        )
        assert t.channels[1][0].words is None

    def test_touching_merge_drops_events_only_one_side_has(self):
        t = build_trace(
            [("A", seg(0, 100, events=EventCounts(fillers=2))), ("A", seg(100, 200, words=1))], 300
        )
        assert t.channels[0] == (seg(0, 200),)

    def test_partial_overlap_drops_annotations(self):
        t = build_trace(
            [("A", seg(0, 100, units=tuple(range(5)))), ("A", seg(80, 200))], 300
        )
        assert t.channels[0][0].units is None

    def test_unsorted_input_sorted(self):
        t = build_trace([("B", seg(500, 600)), ("B", seg(0, 100))], 1000)
        assert [s.start_ms for s in t.channels[1]] == [0, 500]

    def test_rejects_inverted_segment(self):
        with pytest.raises(ValidationError):
            seg(100, 100)
        with pytest.raises(ValidationError):
            seg(100, 50)

    def test_rejects_segment_past_duration(self):
        with pytest.raises(ValidationError):
            build_trace([("A", seg(0, 3000))], 2000)

    def test_rejects_unknown_speaker(self):
        with pytest.raises(ValidationError):
            build_trace([("C", seg(0, 100))], 200)

    def test_channels_sorted_and_disjoint_randomized(self, rng):
        for _ in range(50):
            t = random_trace(rng, max_duration_ms=20000)
            for ch in t.channels:
                for a, b in zip(ch, ch[1:]):
                    assert b.start_ms > a.end_ms


class TestSegmentValidation:
    def test_unit_count_must_match_frames(self):
        with pytest.raises(ValidationError):
            seg(0, 100, units=(1, 2, 3))

    def test_units_require_alignment(self):
        with pytest.raises(ValidationError):
            seg(5, 105, units=tuple(range(5)))

    def test_units_require_an_aligned_end_too(self):
        with pytest.raises(ValidationError, match=r"must be 20ms-aligned: \[0,90\)$"):
            seg(0, 90, units=tuple(range(4)))

    @pytest.mark.parametrize("units", [(-1, 2, 3), (1, -2, 3), (1, 2, -3)])
    def test_negative_unit_ids_rejected(self, units):
        assert seg(0, 60, units=(0, 2, 3)).units == (0, 2, 3)
        with pytest.raises(ValidationError, match="non-negative"):
            seg(0, 60, units=units)

    @pytest.mark.parametrize("units, message", [
        ((1.5, True), "units: expected an integer, got 1.5"),
        ((1, True), "units: expected an integer, got true"),
        ("12", "units: expected a list"),
        (np.array([1, 2]), "units: expected a list"),
    ])
    def test_units_are_read_as_json_units_are(self, units, message):
        assert seg(0, 40, units=[1, 2.0]).units == (1, 2)
        with pytest.raises(ValidationError) as exc:
            seg(0, 40, units=units)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["fillers", "repetitions", "laughs", "breaths"])
    def test_negative_event_counts_rejected(self, field):
        with pytest.raises(ValidationError) as exc:
            EventCounts(**{field: -5})
        assert str(exc.value) == f"{field} must be non-negative, got -5"

    def test_event_counts_roundtrip(self):
        e = EventCounts(fillers=2, laughs=1)
        assert EventCounts.from_dict(e.to_dict()) == e


class TestSpeakerIndex:
    @pytest.mark.parametrize("speaker", [1, 1.0, "b", " B "])
    def test_speaker_b_forms(self, speaker):
        index = speaker_index(speaker)
        assert index == 1 and type(index) is int

    @pytest.mark.parametrize("speaker", [True, False, 0.5, 2, "1", None, "C"])
    def test_non_speakers_rejected(self, speaker):
        with pytest.raises(ValidationError, match="unknown speaker"):
            speaker_index(speaker)


class TestFrameGrid:
    def test_simple_segment(self):
        t = build_trace([("A", seg(0, 100))], 200)
        g = frame_grid(t)
        assert g.frames[0].tolist() == [True] * 5 + [False] * 5
        assert not g.frames[1].any()

    def test_empty_trace_inactive(self):
        g = frame_grid(build_trace([], 1000))
        assert not g.frames.any()

    def test_majority_rule(self):
        # [5,95): intersections 15,20,20,20,15 -> all five frames active
        g = frame_grid(build_trace([("A", seg(5, 95))], 100))
        assert g.frames[0].tolist() == [True] * 5

    def test_sub_majority_edges_drop(self):
        # [11,95): frame 0 gets 9ms < 10 -> inactive
        g = frame_grid(build_trace([("A", seg(11, 95))], 100))
        assert g.frames[0].tolist() == [False, True, True, True, True]

    def test_matches_frame_by_frame_oracle(self, rng):
        # arbitrary-millisecond boundaries: segments under 10ms, and edges 9,
        # 10 or 11ms into a frame, all occur
        for _ in range(200):
            t = random_unaligned_trace(rng, max_duration_ms=10000)
            g = frame_grid(t)
            for c in (0, 1):
                assert np.array_equal(g.frames[c], frame_activity(t, c))

    def test_grid_survives_serialization(self, rng):
        for _ in range(20):
            t = random_unaligned_trace(rng, max_duration_ms=10000)
            t2 = ConversationTrace.from_json(t.to_json())
            assert np.array_equal(frame_grid(t).frames, frame_grid(t2).frames)


class TestWindow:
    def test_zero_width_rejected(self):
        with pytest.raises(ValidationError) as exc:
            window(build_trace([], 320), 160, 0)
        assert str(exc.value) == "window width must be positive"

    def test_window_wider_than_history_is_prefix(self):
        t = build_trace([("A", seg(1000, 2000)), ("B", seg(2500, 4000))], 6000)
        w = window(t, 5000, 20000)
        assert w.duration_ms == 5000
        assert [(s.start_ms, s.end_ms) for s in w.channels[0]] == [(1000, 2000)]
        assert [(s.start_ms, s.end_ms) for s in w.channels[1]] == [(2500, 4000)]

    def test_left_edge_truncation_and_rebase(self):
        t = build_trace([("A", seg(5000, 15000))], 40000)
        w = window(t, 30000, 20000)
        assert w.duration_ms == 20000
        assert [(s.start_ms, s.end_ms) for s in w.channels[0]] == [(0, 5000)]

    def test_interior_segment_shifted(self):
        t = build_trace([("A", seg(25000, 29000))], 40000)
        w = window(t, 30000, 20000)
        assert [(s.start_ms, s.end_ms) for s in w.channels[0]] == [(15000, 19000)]

    def test_right_edge_truncation(self):
        t = build_trace([("A", seg(100, 900))], 1000)
        w = window(t, 500, 20000)
        assert [(s.start_ms, s.end_ms) for s in w.channels[0]] == [(100, 500)]

    def test_units_sliced_on_truncation(self):
        units = tuple(range(50))  # [0,1000) at 20ms
        t = build_trace([("A", seg(0, 1000, units=units))], 1000)
        w = window(t, 600, 400)  # keeps [200, 600)
        kept = w.channels[0][0]
        assert (kept.start_ms, kept.end_ms) == (0, 400)
        assert kept.units == units[10:30]

    def test_window_cut_matches_per_frame_rule_randomized(self, rng):
        # one-segment traces, segments with and without units, words and
        # events; window edges, and so the left edge every kept segment is
        # shifted by, both on and off the 20ms grid
        def instant(top):
            t = int(rng.integers(0, top + 1))
            return t - t % FRAME_MS if rng.random() < 0.5 else t

        for _ in range(1500):
            if rng.random() < 0.5:
                start = FRAME_MS * int(rng.integers(0, 30))
                n = int(rng.integers(1, 30))
                s = seg(start, start + FRAME_MS * n,
                        units=tuple(int(u) for u in rng.integers(0, 50, n)))
            else:
                start = int(rng.integers(0, 600))
                s = seg(start, start + int(rng.integers(1, 600)))
            if rng.random() < 0.5:
                s = seg(s.start_ms, s.end_ms, units=s.units, words=int(rng.integers(0, 9)),
                        events=EventCounts(*(int(c) for c in rng.integers(0, 3, 4))))
            if rng.random() < 0.9:
                lo = instant(s.end_ms)
                hi = lo + (instant(700) or FRAME_MS)
            else:  # a window ending at or before the segment's start
                hi = max(instant(s.start_ms), 1)
                lo = instant(hi - 1)
            t = ConversationTrace(((s,), ()), max(s.end_ms, hi))
            kept = clip_by_frames(s, lo, hi, lo)
            expected = ConversationTrace((() if kept is None else (kept,), ()), hi - lo)
            assert window(t, hi, hi - lo) == expected

    # a whole unit-annotated segment [2000, 3000) inside [left, 4000): its
    # re-based start is on the 20ms grid iff left is, and only then does it
    # keep its units; its words and events stay either way
    @pytest.mark.parametrize("left, keeps_units", [(1000, True), (1010, False)], ids=["on_grid", "off_grid"])
    def test_whole_unit_segment_keeps_units_iff_left_edge_on_grid(self, left, keeps_units):
        units = tuple(range(100, 150))
        t = build_trace([("A", seg(2000, 3000, units=units, words=7, events=EventCounts(fillers=1))),
                         ("B", seg(3500, 3600))], 5000)
        expected = scan_window(t, 4000, 4000 - left)
        assert expected.channels[0] == (
            seg(2000 - left, 3000 - left, units=units if keeps_units else None,
                words=7, events=EventCounts(fillers=1)),
        )
        assert window(t, 4000, 4000 - left) == expected
        assert window_json(t, 4000, 4000 - left) == json.dumps(expected.to_dict(), sort_keys=True)

    # the window's one kept segment is cut at both ends: it loses its words
    # and events, and keeps the units of the frames it covers whole when
    # both cuts lie on the grid
    @pytest.mark.parametrize("left, end, kept_units", [
        (1500, 2500, tuple(range(125, 175))),
        (1510, 2510, None),
        (1500, 2510, None),
    ], ids=["on_grid", "off_grid", "end_off_grid"])
    def test_single_segment_cut_at_both_ends(self, left, end, kept_units):
        t = build_trace([("A", seg(1000, 3000, units=tuple(range(100, 200)), words=9,
                                   events=EventCounts(laughs=2)))], 4000)
        expected = scan_window(t, end, end - left)
        assert expected.channels == ((seg(0, end - left, units=kept_units),), ())
        assert window(t, end, end - left) == expected
        assert window_json(t, end, end - left) == json.dumps(expected.to_dict(), sort_keys=True)

    def test_end_out_of_range_rejected(self):
        t = build_trace([], 1000)
        with pytest.raises(ValidationError):
            window(t, 0)
        with pytest.raises(ValidationError):
            window(t, 1001)

    def test_full_width_window_equals_prefix_randomized(self, rng):
        for _ in range(20):
            t = random_trace(rng, max_duration_ms=30000)
            end = t.duration_ms
            w = window(t, end, width_ms=end + 50000)
            assert w.to_dict() == t.to_dict()

    @pytest.mark.parametrize("align_ms", [1, 20])
    def test_matches_scan_oracle_randomized(self, rng, align_ms):
        # window edges on segment boundaries (a segment ending exactly at the
        # left edge or starting exactly at the end) and at random instants
        # (segments straddling either edge)
        for _ in range(100):
            t = random_trace(rng, max_duration_ms=20000, align_ms=align_ms, with_units=True)
            cuts = [b for ch in t.channels for s in ch for b in (s.start_ms, s.end_ms)]
            points = cuts + [int(x) for x in rng.integers(0, t.duration_ms + 1, 4)]
            for end in rng.choice(points, 8):
                end = max(int(end), 1)
                for left in rng.choice(points, 4):
                    width = end - int(left) if left < end else end + 1000
                    assert window(t, end, width) == scan_window(t, end, width)


class TestSerialization:
    def test_roundtrip_with_annotations(self):
        t = build_trace(
            [
                ("A", seg(0, 1000, units=tuple(range(50)), words=4,
                          events=EventCounts(fillers=1, laughs=2))),
                ("B", seg(500, 700)),
            ],
            2000,
        )
        assert ConversationTrace.from_json(t.to_json()) == t

    def test_roundtrip_randomized(self, rng):
        for _ in range(25):
            t = random_trace(rng, with_units=True, max_duration_ms=20000)
            assert ConversationTrace.from_json(t.to_json()) == t

    def test_rejects_touching_segments_in_file(self):
        data = {
            "duration_ms": 1000,
            "channels": [
                [{"start_ms": 0, "end_ms": 100}, {"start_ms": 100, "end_ms": 200}],
                [],
            ],
        }
        import json

        with pytest.raises(ValidationError):
            ConversationTrace.from_json(json.dumps(data))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ValidationError):
            ConversationTrace.from_json('{"duration_ms": 100, "channels": [[]]}')

    @pytest.mark.parametrize(
        "data, path",
        [
            ([], "trace"),
            ({"channels": [[], []]}, "duration_ms"),
            ({"duration_ms": 100, "channels": [None, []]}, "channels[0]"),
            ({"duration_ms": 100, "channels": [[], [{"start_ms": 0}]]}, "channels[1][0].end_ms"),
            ({"duration_ms": 100, "channels": [[{"start_ms": "x", "end_ms": 20}], []]},
             "channels[0][0].start_ms"),
            ({"duration_ms": 100, "channels": [[{"start_ms": 0, "end_ms": 20, "units": 3}], []]},
             "channels[0][0].units"),
            ({"duration_ms": 100,
              "channels": [[], [{"start_ms": 0, "end_ms": 20, "events": {"laughs": "x"}}]]},
             "channels[1][0].events.laughs"),
            ({"duration_ms": 100, "channels": [[{"start_ms": 50, "end_ms": 20}], []]},
             "channels[0][0]:"),
            ({"duration_ms": 100, "channels": [[{"start_ms": 0, "end_ms": 60, "units": "123"}], []]},
             "channels[0][0].units: expected a list"),
            ({"duration_ms": 100,
              "channels": [[{"start_ms": 0, "end_ms": 60, "units": [1, True, 3]}], []]},
             "channels[0][0].units: expected an integer, got true"),
            ({"duration_ms": 100, "channels": [[], [{"start_ms": True, "end_ms": 20}]]},
             "channels[1][0].start_ms: expected an integer, got true"),
            ({"duration_ms": 100, "channels": [[{"start_ms": 0, "end_ms": 19.9}], []]},
             "channels[0][0].end_ms: expected an integer, got 19.9"),
            ({"duration_ms": 100.9, "channels": [[], []]},
             "duration_ms: expected an integer, got 100.9"),
            ({"duration_ms": 100, "channels": [[{"start_ms": 0, "end_ms": 20, "words": 2.5}], []]},
             "channels[0][0].words: expected an integer, got 2.5"),
            ({"duration_ms": 100,
              "channels": [[], [{"start_ms": 0, "end_ms": 20, "events": {"laughs": False}}]]},
             "channels[1][0].events.laughs: expected an integer, got false"),
        ],
    )
    def test_bad_fields_name_their_json_path(self, data, path):
        with pytest.raises(ValidationError, match=re.escape(path)):
            ConversationTrace.from_dict(data)

    def test_integral_numbers_and_numeric_strings_still_parse(self):
        for value in (20, 20.0, "20"):
            data = {"duration_ms": 100, "channels": [
                [{"start_ms": value, "end_ms": 40, "units": [value], "words": value}], []]}
            s = ConversationTrace.from_dict(data).channels[0][0]
            assert (s.start_ms, s.units, s.words) == (20, (20,), 20)

    def test_a_trace_read_from_json_reads_each_segments_units_once(self, rng, tmp_path):
        # from_dict read them, and then SpeechSegment read them again
        trace = random_trace(rng, with_units=True, max_duration_ms=20000)
        path = tmp_path / "trace.json"
        write_trace(trace, path)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call" and frame.f_code is unit_ids.__code__

        before = sys.getprofile()
        sys.setprofile(count)
        try:
            read = read_trace(path)
        finally:
            sys.setprofile(before)
        assert read == trace
        assert calls == sum(s.units is not None for ch in trace.channels for s in ch) > 0

    @pytest.mark.parametrize("start, keys", [(20, []), ("20", ["start_ms"])])
    def test_only_a_field_to_convert_goes_through_read_field(self, monkeypatch, start, keys):
        # an in-bound int and an absent field are taken without a call
        read_field, seen = _schema.read_field, []

        def counted(data, key, *args):
            seen.append(key)
            return read_field(data, key, *args)

        monkeypatch.setattr(_schema, "read_field", counted)
        data = {"duration_ms": 100, "channels": [[{"start_ms": start, "end_ms": 40}], []]}
        assert ConversationTrace.from_dict(data).channels[0][0] == seg(20, 40)
        assert seen == keys

    def test_a_trace_read_from_json_takes_each_segments_min_of_units_once(self, rng, monkeypatch):
        # unit_ids' bound check takes it, and the non-negative check no second time
        trace = random_trace(rng, with_units=True, max_duration_ms=20000)
        data = json.loads(trace.to_json())
        calls = 0

        def counted(ids):
            nonlocal calls
            calls += 1
            return min(ids)

        monkeypatch.setattr(_schema, "min", counted, raising=False)
        assert ConversationTrace.from_dict(data) == trace
        assert calls == sum(s.units is not None for ch in trace.channels for s in ch) > 0


class TestWriteTraceOracle:
    """write_trace against the writer it replaced, trace.to_json(indent=2)
    through json's pure-Python indent encoder: the same file bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(annotated_traces())
    @example(ConversationTrace(((), ()), 0))
    @example(ConversationTrace(((), (seg(0, 20),)), 20))
    @example(ConversationTrace(
        ((seg(40, 100, units=(123, 4567, 89000), words=12, events=EventCounts(10, 0, 2, 31)),
          seg(101, 350, words=0)), ()), 400))
    def test_same_bytes_as_indent_encoder_writer(self, tmp_path_factory, trace):
        out = tmp_path_factory.mktemp("traces")
        write_trace(trace, out / "new.json")
        indent_encoder_write_trace(trace, out / "old.json")
        assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()


class TestActiveAt:
    @pytest.mark.parametrize("align_ms", [1, 20])
    def test_matches_ms_activity_randomized(self, rng, align_ms):
        for _ in range(40):
            t = random_trace(rng, max_duration_ms=5000, align_ms=align_ms)
            for sp in (0, 1):
                expected = ms_activity(t, sp).tolist() + [False]  # nothing at duration_ms
                assert [t.active_at(sp, ms) for ms in range(t.duration_ms + 1)] == expected
