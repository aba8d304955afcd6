import numpy as np
import pytest

from dde import FRAME_MS, ValidationError, VadConfig, vad_from_samples
from dde.vad import load_conversation_audio
from dde import build_trace
from dde.vad import _segment_channel
from conftest import write_wav
from oracles import _close_gaps

FS = 16000


def tone(freq, n, amplitude=0.8):
    return (amplitude * 32767 * np.sin(2 * np.pi * freq * np.arange(n) / FS)).astype(
        np.int16
    )


def silence(n):
    return np.zeros(n, dtype=np.int16)


def burst_signal(spans_ms, total_ms, freq=440.0):
    """Zeros with tone bursts at the given [start, end) spans."""
    x = silence(total_ms * FS // 1000)
    for a, b in spans_ms:
        x[a * FS // 1000 : b * FS // 1000] = tone(freq, (b - a) * FS // 1000)
    return x


class TestVad:
    def test_one_channel_rejected(self):
        with pytest.raises(ValidationError) as exc:
            vad_from_samples([silence(FS)])
        assert str(exc.value) == "expected exactly two channels of samples"

    def test_pure_silence_has_no_segments(self):
        t = vad_from_samples((silence(2 * FS), silence(2 * FS)))
        assert t.channels == ((), ())
        assert t.duration_ms == 2000

    def test_tone_burst_recovered_within_20ms(self):
        x = burst_signal([(500, 1000)], 2000)
        t = vad_from_samples((x, silence(x.size)))
        assert len(t.channels[0]) == 1
        s = t.channels[0][0]
        assert abs(s.start_ms - 500) <= 20
        assert abs(s.end_ms - 1000) <= 20
        assert t.channels[1] == ()

    def test_short_gap_bridged(self):
        x = burst_signal([(0, 200), (280, 500)], 1000)
        t = vad_from_samples((x, silence(x.size)), VadConfig(min_gap_ms=100))
        assert len(t.channels[0]) == 1
        s = t.channels[0][0]
        assert abs(s.start_ms - 0) <= 20
        assert abs(s.end_ms - 500) <= 20

    def test_wide_gap_not_bridged(self):
        x = burst_signal([(0, 200), (400, 600)], 1000)
        t = vad_from_samples((x, silence(x.size)), VadConfig(min_gap_ms=100))
        assert len(t.channels[0]) == 2

    def test_short_blip_dropped(self):
        x = burst_signal([(500, 560)], 2000)
        t = vad_from_samples((x, silence(x.size)), VadConfig(min_speech_ms=100))
        assert t.channels[0] == ()

    def test_empty_audio_rejected(self):
        with pytest.raises(ValidationError):
            vad_from_samples((np.array([], dtype=np.int16), silence(100)))

    def test_empty_second_channel_rejected(self):
        with pytest.raises(ValidationError, match="^empty audio$"):
            vad_from_samples((silence(100), np.array([], dtype=np.int16)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            vad_from_samples((silence(FS), silence(FS // 2)))

    def test_speech_no_longer_than_audio(self, rng):
        for _ in range(10):
            n_bursts = rng.integers(1, 5)
            spans = []
            t0 = 0
            for _ in range(n_bursts):
                start = t0 + int(rng.integers(0, 400))
                end = start + int(rng.integers(100, 800))
                spans.append((start, end))
                t0 = end + int(rng.integers(150, 500))
            total = spans[-1][1] + 500
            x = burst_signal(spans, total)
            t = vad_from_samples((x, silence(x.size)))
            assert t.total_speech_ms(0) <= t.duration_ms

    def test_boundaries_are_frame_aligned(self):
        x = burst_signal([(503, 997)], 2000)
        t = vad_from_samples((x, silence(x.size)))
        for s in t.channels[0]:
            assert s.start_ms % 20 == 0
            assert s.end_ms % 20 == 0


def floor_and_bursts(spans_ms, n_frames):
    """A 400 Hz floor of amplitude 10 with amplitude-1000 bursts at the given
    20ms-aligned spans. Each frame holds eight whole periods, so every frame
    has exactly the floor's energy or the bursts' 40 dB more."""
    tone = np.sin(2 * np.pi * 400 * np.arange(n_frames * 320) / FS)
    amplitude = np.full(n_frames * 320, 10.0)
    for a, b in spans_ms:
        amplitude[16 * a : 16 * b] = 1000.0
    return np.round(amplitude * tone).astype(np.int16)


def random_bursts(rng, n_frames):
    """20ms-aligned spans of 1-8 frames, each followed by at least one floor
    frame, so that over 5% of the frames (the noise-floor percentile) are floor."""
    spans, f = [], int(rng.integers(0, 12))
    while True:
        length = int(rng.integers(1, 9))
        if f + length >= n_frames:
            return spans
        spans.append((20 * f, 20 * (f + length)))
        f += length + int(rng.integers(1, 13))


class TestVadOracle:
    def test_matches_gap_closing_then_whole_frame_minimum(self, rng):
        for _ in range(60):
            n_frames = int(rng.integers(1, 200))
            bursts = [random_bursts(rng, n_frames) for _ in range(2)]
            cfg = VadConfig(
                min_gap_ms=int(rng.integers(0, 300)), min_speech_ms=int(rng.integers(20, 300))
            )
            min_ms = -(-cfg.min_speech_ms // 20) * 20
            t = vad_from_samples([floor_and_bursts(b, n_frames) for b in bursts], cfg)
            assert t.duration_ms == 20 * n_frames
            for ch, spans in zip(t.channels, bursts):
                expected = [(a, b) for a, b in _close_gaps(spans, cfg.min_gap_ms) if b - a >= min_ms]
                assert [(s.start_ms, s.end_ms) for s in ch] == expected, (spans, cfg)

    def test_channels_are_their_spans_as_build_trace_merges_them(self, rng):
        """vad_from_samples puts each channel's spans into the trace as they
        are: the trace build_trace makes of them, sorting and merging, on
        this class's inputs and on tone bursts, with gaps bridged or not."""
        inputs = []
        for _ in range(60):
            n_frames = int(rng.integers(1, 200))
            pcm = [floor_and_bursts(random_bursts(rng, n_frames), n_frames) for _ in range(2)]
            inputs.append((pcm, int(rng.choice([0, rng.integers(0, 300)])), int(rng.integers(20, 300))))
        tones = burst_signal([(0, 200), (280, 500), (503, 997), (1400, 1460)], 2000)
        other = burst_signal([(100, 900), (1000, 1800)], 2000, freq=220.0)
        inputs += [([tones, other], gap, 20) for gap in (0, 40, 100)] + [([other, tones], 0, 100)]
        for pcm, min_gap_ms, min_speech_ms in inputs:
            cfg = VadConfig(min_gap_ms=min_gap_ms, min_speech_ms=min_speech_ms)
            events = [(ch, s) for ch, x in enumerate(pcm) for s in _segment_channel(x, cfg)]
            assert vad_from_samples(pcm, cfg) == build_trace(events, 20 * (pcm[0].size // 320)), cfg


class TestVadConfig:
    def test_rejects_tiny_min_speech(self):
        with pytest.raises(ValidationError):
            VadConfig(min_speech_ms=10)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValidationError):
            VadConfig(min_gap_ms=-1)

    def test_rejects_negative_threshold(self):
        assert VadConfig(energy_threshold_db=0.0).energy_threshold_db == 0.0
        with pytest.raises(ValidationError, match=r"^energy_threshold_db must be non-negative, got -3.0$"):
            VadConfig(energy_threshold_db=-3.0)
        with pytest.raises(ValidationError, match=r"^vad: energy_threshold_db must be non-negative"):
            VadConfig.from_dict({"energy_threshold_db": -0.5}, "vad")

    def test_rejects_nonstandard_frame(self):
        # the frame is FRAME_MS, not a setting, and min_speech_ms is checked against it
        with pytest.raises(TypeError):
            VadConfig(frame_ms=10)
        with pytest.raises(ValidationError, match=r"^vad: min_speech_ms must be at least one frame$"):
            VadConfig.from_dict({"min_speech_ms": FRAME_MS - 1}, "vad")
        assert VadConfig(min_speech_ms=FRAME_MS).min_speech_ms == FRAME_MS


class TestWavIO:
    def test_stereo_roundtrip(self, tmp_path):
        a = tone(440.0, FS)
        b = silence(FS)
        path = tmp_path / "conv.wav"
        write_wav(path, (a, b))
        ra, rb = load_conversation_audio(stereo_path=path)
        assert np.array_equal(ra, a)
        assert np.array_equal(rb, b)

    def test_two_mono_files(self, tmp_path):
        a = tone(220.0, FS // 2)
        b = tone(330.0, FS // 2)
        pa, pb = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(pa, (a,))
        write_wav(pb, (b,))
        ra, rb = load_conversation_audio(mono_paths=(pa, pb))
        assert np.array_equal(ra, a)
        assert np.array_equal(rb, b)

    def test_data_cut_inside_a_frame_keeps_whole_frames(self, tmp_path):
        a, b = tone(440.0, 1000), silence(1000)
        path = tmp_path / "conv.wav"
        write_wav(path, (a, b))
        path.write_bytes(path.read_bytes()[:-3])  # the last frame loses 3 of 4 bytes
        ra, rb = load_conversation_audio(stereo_path=path)
        assert np.array_equal(ra, a[:-1]) and np.array_equal(rb, b[:-1])

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(ValidationError):
            load_conversation_audio()
