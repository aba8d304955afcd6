import tracemalloc

import numpy as np
import pytest

from dde import (
    Action,
    EventCounts,
    SpeechSegment,
    ValidationError,
    analytics,
    build_trace,
    classification_report,
    conversation_report,
    cross_channel_events,
    f1_score,
    naturalness_report,
    turn_structure,
)
from conftest import random_trace
from oracles import _runs, all_frames_audio_stats, per_class_scan_report, sweep_events


def seg(a, b, **kw):
    return SpeechSegment(a, b, **kw)


class TestTurnStructure:
    def test_two_ipus_one_turn_one_pause(self):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(1300, 2000))], 3000)
        ts = turn_structure(t, "A")
        assert ts.ipus == ((0, 1000), (1300, 2000))
        assert ts.turns == ((0, 2000),)
        assert ts.pauses == ((1000, 1300),)

    def test_single_segment(self):
        t = build_trace([("A", seg(0, 500))], 1000)
        ts = turn_structure(t, "A")
        assert ts.turns == ((0, 500),)
        assert ts.pauses == ()

    @pytest.mark.parametrize("gap_ms", [400, 450])  # 400 is TURN_JOIN_MS itself
    def test_gap_at_threshold_splits_turns(self, gap_ms):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(1000 + gap_ms, 2000))], 3000)
        ts = turn_structure(t, "A")
        assert ts.turns == ((0, 1000), (1000 + gap_ms, 2000))
        assert ts.pauses == ()

    def test_gap_just_under_threshold_groups(self):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(1399, 2000))], 3000)
        ts = turn_structure(t, "A")
        assert ts.turns == ((0, 2000),)

    def test_short_silence_is_not_a_pause(self):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(1200, 2000))], 3000)
        ts = turn_structure(t, "A")
        assert ts.turns == ((0, 2000),)
        assert ts.pauses == ()  # 200ms is not > 200ms

    def test_backchannel_detected_and_excluded(self):
        t = build_trace(
            [("A", seg(0, 1000)), ("A", seg(1300, 2000)), ("B", seg(500, 1200))],
            3000,
        )
        ts_b = turn_structure(t, "B")
        assert ts_b.backchannel_ipus == ((500, 1200),)
        assert ts_b.turns == ()
        ts_a = turn_structure(t, "A")
        assert ts_a.turns == ((0, 2000),)

    def test_one_second_ipu_is_not_backchannel(self):
        t = build_trace([("A", seg(0, 3000)), ("B", seg(500, 1500))], 4000)
        ts_b = turn_structure(t, "B")
        assert ts_b.backchannel_ipus == ()
        assert ts_b.turns == ((500, 1500),)


class TestCrossChannelEvents:
    def test_worked_example(self):
        t = build_trace(
            [("A", seg(0, 1000)), ("A", seg(1300, 2000)), ("B", seg(500, 1200))],
            3000,
        )
        ev = cross_channel_events(t)
        assert ev["overlaps"] == [(500, 1000)]
        assert ev["backchannels"] == [(1, (500, 1200))]
        assert ev["gaps"] == []
        assert ev["pauses"] == [(0, (1000, 1300))]

    def test_simple_gap(self):
        t = build_trace([("A", seg(0, 1000)), ("B", seg(1500, 2500))], 3000)
        ev = cross_channel_events(t)
        assert ev["overlaps"] == []
        assert ev["backchannels"] == []
        assert ev["gaps"] == [(500, 0, 1)]

    def test_empty_trace(self):
        ev = cross_channel_events(build_trace([], 1000))
        assert ev["overlaps"] == [] and ev["backchannels"] == [] and ev["gaps"] == []

    def test_no_gap_when_turn_engulfed(self):
        # B's mid-length interjection inside A's long turn; A carries on past
        # it and then A speaks again: no cross-speaker gap anywhere.
        t = build_trace(
            [("A", seg(0, 5000)), ("B", seg(1000, 2100)), ("A", seg(6000, 7000))],
            8000,
        )
        ev = cross_channel_events(t)
        assert ev["gaps"] == []

    def test_zero_length_gap_not_counted(self):
        t = build_trace([("A", seg(0, 1000)), ("B", seg(1000, 2000))], 2500)
        ev = cross_channel_events(t)
        assert ev["gaps"] == []

    def test_same_speaker_silence_is_not_a_gap(self):
        t = build_trace([("A", seg(0, 1000)), ("A", seg(2000, 3000))], 4000)
        assert cross_channel_events(t)["gaps"] == []

    def test_overlap_duration_bounded_by_speech(self, rng):
        for _ in range(30):
            t = random_trace(rng, max_duration_ms=20000)
            ev = cross_channel_events(t)
            total_overlap = sum(e - s for s, e in ev["overlaps"])
            assert total_overlap <= min(t.total_speech_ms(0), t.total_speech_ms(1))

    def test_backchannels_bounded_by_ipus(self, rng):
        for _ in range(30):
            t = random_trace(rng, max_duration_ms=20000)
            ev = cross_channel_events(t)
            n_ipus = len(t.channels[0]) + len(t.channels[1])
            assert len(ev["backchannels"]) <= n_ipus


class TestSweepOracleEquivalence:
    def test_matches_ms_sweep(self, rng):
        for _ in range(60):
            t = random_trace(rng, max_duration_ms=20000)
            ev = cross_channel_events(t)
            ref = sweep_events(t)
            assert ev["overlaps"] == ref["overlaps"]
            assert sorted(ev["backchannels"], key=lambda x: x[1]) == ref["backchannels"]
            assert sorted(ev["pauses"], key=lambda x: x[1]) == ref["pauses"]
            assert ev["gaps"] == ref["gaps"]

    @pytest.mark.parametrize("align_ms", [1, 20])
    def test_silence_stats_match_ms_sweep(self, rng, align_ms):
        # backchannels sitting inside a speaker's own turn span are not its
        # speech, so the silence around them counts as within-turn silence
        with_backchannels = 0
        for _ in range(200):
            t = random_trace(rng, max_duration_ms=20000, align_ms=align_ms)
            ref = sweep_events(t)
            stats = naturalness_report(t)
            with_backchannels += bool(ref["backchannels"])
            n_ipus = len(t.channels[0]) + len(t.channels[1])
            if n_ipus == len(ref["backchannels"]):  # no main IPU, so no turn
                assert stats.spm_s is None and stats.mean_pause_s is None
                continue
            assert stats.spm_s == pytest.approx(
                ref["within_turn_silence_ms"] * 60.0 / t.duration_ms, rel=1e-12
            )
            pauses = ref["pause_lengths"]
            if pauses:
                assert stats.mean_pause_s == pytest.approx(
                    sum(pauses) / len(pauses) / 1000.0, rel=1e-12
                )
            else:
                assert stats.mean_pause_s is None
        assert with_backchannels > 50


class TestConversationReport:
    def test_worked_example_rates(self):
        t = build_trace(
            [("A", seg(0, 1000)), ("A", seg(1300, 2000)), ("B", seg(500, 1200))],
            60000,
        )
        rep = conversation_report(t)
        assert rep.overlaps_per_min == 1.0
        assert rep.backchannels_per_min == 1.0
        assert rep.pauses_per_min == 1.0
        assert rep.avg_gap_ms is None

    def test_silent_trace(self):
        rep = conversation_report(build_trace([], 60000))
        assert rep.overlaps_per_min == 0.0
        assert rep.backchannels_per_min == 0.0
        assert rep.pauses_per_min == 0.0
        assert rep.avg_gap_ms is None
        assert rep.naturalness is None

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            conversation_report(build_trace([], 0))

    def test_audio_with_no_speech_in_the_trace(self):
        audio = [np.full(16000, 1000, np.int16), np.zeros(16000, np.int16)]
        rep = conversation_report(build_trace([], 1000), audio=audio)
        assert rep.avg_gap_ms is None and rep.naturalness is None

    def test_audio_for_one_speaker_rejected(self):
        with pytest.raises(ValidationError) as exc:
            conversation_report(build_trace([], 1000), audio=[np.zeros(16000, np.int16)])
        assert str(exc.value) == "audio must hold one sample array per speaker"

    def test_turn_structure_once_per_speaker(self, monkeypatch, rng):
        t = random_trace(rng, max_duration_ms=15000)
        expected = conversation_report(t)
        calls = []
        real = analytics.turn_structure
        monkeypatch.setattr(
            analytics, "turn_structure", lambda tr, sp: calls.append(sp) or real(tr, sp)
        )
        assert conversation_report(t) == expected
        assert calls == [0, 1]

    def test_report_goes_through_the_public_entry_points(self, monkeypatch, rng):
        t = random_trace(rng, max_duration_ms=15000)
        expected = conversation_report(t)
        calls = []
        for name in ("cross_channel_events", "naturalness_report"):
            real = getattr(analytics, name)
            monkeypatch.setattr(
                analytics, name,
                lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k),
            )
        assert conversation_report(t) == expected
        assert calls == ["cross_channel_events", "naturalness_report"]

    def test_given_structures_are_used(self, rng):
        t = random_trace(rng, max_duration_ms=15000)
        structures = turn_structure(t, 0), turn_structure(t, 1)
        assert cross_channel_events(t, structures=structures) == cross_channel_events(t)
        assert naturalness_report(t, structures=structures) == naturalness_report(t)

    def test_rates_invariant_under_duplication(self, rng):
        for _ in range(20):
            t = random_trace(rng, max_duration_ms=15000)
            d = t.duration_ms
            doubled = build_trace(
                [
                    (ch, seg(s.start_ms + k * d, s.end_ms + k * d))
                    for k in (0, 1)
                    for ch in (0, 1)
                    for s in t.channels[ch]
                ],
                2 * d,
            )
            a = conversation_report(t)
            b = conversation_report(doubled)
            # duplication can bridge the seam between copies; only compare
            # when the seam stays silent long enough on both channels
            seam_clear = all(
                not t.channels[ch] or (d - t.channels[ch][-1].end_ms) + t.channels[ch][0].start_ms >= 400
                for ch in (0, 1)
            )
            if seam_clear:
                assert b.overlaps_per_min == pytest.approx(a.overlaps_per_min)
                assert b.backchannels_per_min == pytest.approx(a.backchannels_per_min)
                assert b.pauses_per_min == pytest.approx(a.pauses_per_min)


class TestClassificationReport:
    def test_perfect_predictions(self):
        gold = [Action.SIL, Action.CON, Action.SPK, Action.STP]
        rep = classification_report(gold, gold)
        assert rep.accuracy == 1.0
        for m in rep.per_class.values():
            assert m.precision == 1.0 and m.recall == 1.0 and m.f1 == 1.0

    def test_hand_confusion(self):
        gold = [Action.SIL, Action.SIL, Action.SPK]
        pred = [Action.SIL, Action.SPK, Action.SPK]
        rep = classification_report(gold, pred)
        sil = rep.per_class[Action.SIL]
        spk = rep.per_class[Action.SPK]
        assert sil.precision == 1.0 and sil.recall == 0.5
        assert sil.f1 == pytest.approx(2 / 3)
        assert spk.precision == 0.5 and spk.recall == 1.0
        assert spk.f1 == pytest.approx(2 / 3)

    def test_f1_from_printed_precision_recall(self):
        assert f1_score(0.81, 0.89) == pytest.approx(0.8481, abs=1e-4)

    def test_support_sums_and_micro_precision(self, rng):
        actions = list(Action)
        gold = [actions[i] for i in rng.integers(0, 4, 500)]
        pred = [actions[i] for i in rng.integers(0, 4, 500)]
        rep = classification_report(gold, pred)
        assert sum(m.support for m in rep.per_class.values()) == 500
        tp = sum(1 for g, p in zip(gold, pred) if g == p)
        assert rep.accuracy == pytest.approx(tp / 500)

    def test_same_floats_as_per_class_scans(self, rng):
        # each side draws from its own subset of the actions, so some classes
        # are absent from the gold labels, the predictions or both
        actions = list(Action)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            gold_from = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            pred_from = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
            gold = [actions[i] for i in rng.choice(gold_from, n)]
            pred = [actions[i] for i in rng.choice(pred_from, n)]
            rep = classification_report(gold, pred)
            ref = per_class_scan_report(gold, pred)
            assert list(rep.per_class.items()) == list(ref.per_class.items())
            assert rep.accuracy == ref.accuracy

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            classification_report([Action.SIL], [Action.SIL, Action.SIL])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            classification_report([], [])


class TestNaturalness:
    def test_wpm_from_annotations(self):
        t = build_trace(
            [("A", seg(0, 20000, words=60)), ("B", seg(20000, 30000, words=30))],
            40000,
        )
        stats = naturalness_report(t)
        assert stats.wpm == pytest.approx(180.0)

    def test_event_rates(self):
        t = build_trace(
            [("A", seg(0, 30000, events=EventCounts(fillers=6, laughs=3)))], 60000
        )
        stats = naturalness_report(t)
        assert stats.fwpm == pytest.approx(12.0)
        assert stats.lpm == pytest.approx(6.0)
        assert stats.rpm == pytest.approx(0.0)

    def test_all_absent_without_inputs(self):
        stats = naturalness_report(build_trace([], 5000))
        assert stats.all_absent()

    def test_required_fields_present(self):
        t = build_trace([("A", seg(0, 1000, words=3))], 2000)
        assert naturalness_report(t).wpm == pytest.approx(180.0)

    def test_spm_counts_within_turn_silence(self):
        # one 300ms pause inside A's turn over a minute of conversation
        t = build_trace([("A", seg(0, 1000)), ("A", seg(1300, 2000))], 60000)
        stats = naturalness_report(t)
        assert stats.spm_s == pytest.approx(0.3)
        assert stats.mean_pause_s == pytest.approx(0.3)

    def test_pitch_and_energy_from_tone(self):
        fs = 16000
        n = fs  # 1s
        audio_a = (0.5 * 32767 * np.sin(2 * np.pi * 220.0 * np.arange(n) / fs)).astype(
            np.int16
        )
        audio_b = np.zeros(n, dtype=np.int16)
        t = build_trace([("A", seg(0, 1000))], 1000)
        stats = naturalness_report(t, audio=(audio_a, audio_b))
        assert stats.mean_f0_hz == pytest.approx(220.0, abs=5.0)
        assert stats.pstd_hz is not None and stats.pstd_hz < 5.0
        assert stats.estd is not None and stats.estd < 0.05


def _voice(rng, n_samples):
    """PCM16-range test audio: a tone that glides, with noise."""
    t = np.arange(n_samples) / 16000
    tone = np.sin(2 * np.pi * (120.0 + 60.0 * t / t[-1]) * t)
    return np.round(8000 * tone + 800 * rng.normal(size=n_samples))


class TestAudioStatsRunSliced:
    """Pitch computed on speech runs only equals pitch computed on every frame
    and masked afterwards, bit for bit."""

    @staticmethod
    def _stats(masks, n_samples, seed, silent_audio=False):
        rng = np.random.default_rng(seed)
        events = [
            (sp, seg(20 * s, 20 * e)) for sp, mask in enumerate(masks) for s, e in _runs(mask)
        ]
        trace = build_trace(events, 20 * len(masks[0]))
        audio = [np.zeros(n_samples) if silent_audio else _voice(rng, n_samples) for _ in masks]
        got = analytics._audio_stats(trace, audio)
        assert got == all_frames_audio_stats(trace, audio)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        n = 150
        masks = []
        for _ in range(2):
            mask = rng.random(n) < rng.choice([0.3, 0.6, 0.9])
            mask[0] = mask[-1] = True  # runs at the first and the last frame
            mask[2], mask[3], mask[4] = False, True, False  # a single-frame run
            masks.append(mask)
        # the audio ends 100 samples past the last frame: its window is clipped
        stats = self._stats(masks, n * 320 + 100, seed)
        assert None not in stats

    def test_whole_last_window(self):
        masks = [np.ones(50, bool), np.arange(50) % 3 == 0]
        self._stats(masks, 50 * 320 + 200, 7)

    def test_audio_shorter_than_the_trace(self):
        masks = [np.ones(80, bool), np.arange(80) % 7 < 4]
        self._stats(masks, 60 * 320 + 50, 8)

    def test_silent_channel(self):
        masks = [np.arange(60) % 5 < 3, np.zeros(60, bool)]
        estd, pstd, mean_f0 = self._stats(masks, 60 * 320, 9)
        assert estd is not None and pstd is not None

    def test_no_speech_on_either_channel(self):
        masks = [np.zeros(40, bool), np.zeros(40, bool)]
        assert self._stats(masks, 40 * 320, 11) == (None, None, None)

    def test_speech_over_silent_audio(self):
        masks = [np.ones(40, bool), np.arange(40) % 2 == 0]
        assert self._stats(masks, 40 * 320, 10, silent_audio=True) == (0.0, None, None)

    @pytest.mark.parametrize("convert", [
        lambda x: x.astype(np.float32),
        # float32 audio below 2**-111, which scaled to PCM's unit in float32
        # would round to subnormals: the scaling must happen in float64
        lambda x: (x / 3 * 2.0**-125).astype(np.float32),
        lambda x: x.tolist(),
        lambda x: x.astype(int).tolist(),
    ], ids=["float32", "quiet_float32", "list_of_floats", "list_of_ints"])
    def test_samples_of_any_type(self, convert):
        rng = np.random.default_rng(12)
        masks = [np.arange(70) % 5 < 3, np.arange(70) % 9 < 7]
        events = [(sp, seg(20 * s, 20 * e)) for sp, mask in enumerate(masks) for s, e in _runs(mask)]
        trace = build_trace(events, 20 * 70)
        audio = [convert(_voice(rng, 70 * 320 + 100)) for _ in masks]
        got = analytics._audio_stats(trace, audio)
        assert got == all_frames_audio_stats(trace, audio)
        assert None not in got


def _tone_bursts(seconds):
    """(trace, audio) of PCM16 tone bursts, 3 s on and 1 s off on each channel,
    2 s apart between channels, with the bursts as the trace's speech."""
    rng = np.random.default_rng(0)
    t = np.arange(seconds * 16000) / 16000
    events, audio = [], []
    for sp in (0, 1):
        on = (t * 1000 + sp * 2000) % 4000 < 3000
        tone = np.where(on, 8000 * np.sin(2 * np.pi * (150 + 50 * sp) * t), 0.0)
        audio.append(np.round(tone + 100 * rng.normal(size=t.size)).astype(np.int16))
        events += [(sp, seg(20 * s, 20 * e)) for s, e in _runs(on[::320])]
    return build_trace(events, seconds * 1000), audio


def test_audio_report_memory_follows_the_longest_speech_run():
    # energy and pitch are measured per speech run, never on a whole-channel
    # float copy, so 4x the audio at the same run lengths needs no more memory
    peaks = []
    for seconds in (15, 60):
        trace, audio = _tone_bursts(seconds)
        tracemalloc.start()
        try:
            conversation_report(trace, audio)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


class TestBackchannelCoverage:
    def test_backchannel_speech_intersections_are_listed_overlaps(self, rng):
        # any simultaneous-speech part of a backchannel must appear inside a
        # reported overlap interval; the rest sits in the other speaker's
        # within-turn silence
        for _ in range(40):
            t = random_trace(rng, max_duration_ms=20000)
            ev = cross_channel_events(t)
            overlaps = ev["overlaps"]
            for sp, (s, e) in ev["backchannels"]:
                other = [(x.start_ms, x.end_ms) for x in t.channels[1 - sp]]
                for os_, oe in other:
                    lo, hi = max(s, os_), min(e, oe)
                    if lo < hi:
                        assert any(a <= lo and hi <= b for a, b in overlaps)
