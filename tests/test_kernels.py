import itertools

import numpy as np
import pytest

from dde import _kernels
from oracles import frame_loop_f0_frames, loop_f0_frames, loop_frame_rms, recursive_levenshtein
from oracles import row_dp_levenshtein


class TestLevenshtein:
    def test_numpy_path_matches_recursion(self, rng):
        for _ in range(100):
            a = rng.integers(0, 4, size=rng.integers(0, 15))
            b = rng.integers(0, 4, size=rng.integers(0, 15))
            assert _kernels.levenshtein(a, b) == recursive_levenshtein(a, b)

    def test_edge_cases(self):
        assert _kernels.levenshtein([], []) == 0
        assert _kernels.levenshtein([1, 2], []) == 2
        assert _kernels.levenshtein([], [1, 2, 3]) == 3


class TestFrameRms:
    def test_constant_signal(self):
        x = np.full(640, 3.0)
        out = _kernels.frame_rms(x, 320)
        assert out.shape == (2,)
        assert np.allclose(out, 3.0)

    def test_partial_frame_dropped(self):
        out = _kernels.frame_rms(np.ones(500), 320)
        assert out.shape == (1,)

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=3300)
        a = _kernels.frame_rms(x, 320)
        b = loop_frame_rms(x, 320)
        assert a.shape == b.shape == (10,)
        assert np.allclose(a, b, atol=1e-12)


class TestF0Frames:
    def _tone(self, freq, seconds=0.5, fs=16000):
        t = np.arange(int(fs * seconds)) / fs
        return np.sin(2 * np.pi * freq * t)

    def test_tone_frequency_recovered(self):
        x = self._tone(220.0)
        f0, strength = _kernels.f0_frames(x, 16000, 320, 480, 40, 267)
        voiced = strength >= 0.6
        assert voiced.sum() > 10
        assert abs(np.mean(f0[voiced]) - 220.0) < 2.0

    def test_matches_loop_oracle(self):
        tone = self._tone(150.0, seconds=0.3) + 0.01 * np.sin(
            2 * np.pi * 60.0 * np.arange(4800) / 16000
        )
        # an impulse train whose best normalized autocorrelation is negative
        impulses = np.zeros(3200)
        impulses[::400] = 1.0
        impulses[5] = 1.0
        for x in (tone, impulses):
            f0a, sa = _kernels.f0_frames(x, 16000, 320, 480, 40, 267)
            f0b, sb = loop_f0_frames(x, 16000, 320, 480, 40, 267)
            assert np.allclose(f0a, f0b, atol=1e-6)
            assert np.allclose(sa, sb, atol=1e-9)
        assert (sa >= 0).all()

    def test_silence_unvoiced(self):
        f0, strength = _kernels.f0_frames(np.zeros(3200), 16000, 320, 480, 40, 267)
        assert (f0 == 0).all()
        assert (strength == 0).all()


F0_ARGS = (16000, 320, 480, 40, 267)  # fs, frame_len, window_len, lag_min, lag_max


def _f0_signal(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    t = np.arange(16000) / 16000
    impulses = np.zeros(3200)
    impulses[::400] = 1.0
    impulses[5] = 1.0
    return {
        "tone": np.sin(2 * np.pi * 150.0 * t[:4800]) + 0.01 * np.sin(2 * np.pi * 60.0 * t[:4800]),
        "impulses": impulses,
        # more frames than one batch of full windows, and a clipped last window
        "white_noise": rng.normal(size=300 * 320 + 100),
        "red_noise": np.cumsum(rng.normal(size=8000)),
        "silence": np.zeros(3200),
        # the last frame's window is clipped iff size % 320 < 480 - 320
        "clipped_last_window": rng.normal(size=10 * 320 + 100),
        "whole_last_window": rng.normal(size=10 * 320 + 200),
        "shorter_than_a_window": rng.normal(size=400),
        "shorter_than_a_frame": rng.normal(size=300),
        # 53 Hz: at some frames the peak sits at lag 40, at others at lag 267,
        # with no interior local maximum within 15% of it
        "edge_peaks": np.sin(2 * np.pi * 53.0 * t[:3200]),
    }[name]


class TestBatchedF0:
    """The batched kernel against the per-frame loop it replaced, bit for bit."""

    # a window shorter than lag_max + 8 = 275 samples is not analysed
    @pytest.mark.parametrize("window_len", [480, 275, 274])
    @pytest.mark.parametrize("name", [
        "tone", "impulses", "white_noise", "red_noise", "silence", "clipped_last_window",
        "whole_last_window", "shorter_than_a_window", "shorter_than_a_frame", "edge_peaks",
    ])
    def test_matches_frame_loop(self, name, window_len):
        x = _f0_signal(name)
        args = (F0_ARGS[0], F0_ARGS[1], window_len, *F0_ARGS[3:])
        f0, strength = _kernels.f0_frames(x, *args)
        f0_loop, strength_loop = frame_loop_f0_frames(x, *args)
        assert f0.shape == (x.size // 320,)
        assert np.array_equal(f0, f0_loop)
        assert np.array_equal(strength, strength_loop)

    @pytest.mark.parametrize("lag_max", [38, 40, 41, 42])  # 0 to 3 lags from lag_min 40
    def test_lag_ranges_without_an_interior_lag(self, lag_max):
        x = _f0_signal("edge_peaks")
        args = (*F0_ARGS[:4], lag_max)
        got, want = _kernels.f0_frames(x, *args), frame_loop_f0_frames(x, *args)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert (got[1] > 0).any() == (lag_max >= 40)

    def test_argmax_fallback_at_both_lag_edges(self):
        # a refined interior pick lies strictly inside (40, 267): |delta| <= 0.5
        # at lags 41..266, so f0 at exactly fs/40 or fs/267 is the fallback
        x = _f0_signal("edge_peaks")
        f0, strength = _kernels.f0_frames(x, *F0_ARGS)
        at_edge = np.isin(f0, [16000 / 40, 16000 / 267])
        assert set(f0[at_edge]) == {16000 / 40, 16000 / 267}
        assert (strength[at_edge] > 0).all()
        f0_loop, strength_loop = loop_f0_frames(x, *F0_ARGS)
        assert np.allclose(f0, f0_loop, atol=1e-6)
        assert np.allclose(strength, strength_loop, atol=1e-9)

    def test_matches_frame_loop_on_scaled_and_integer_rows(self):
        # the batch takes each lag's dot through np.matmul and the loop through
        # np.correlate; equality rests on both reaching the same BLAS dot
        rng = np.random.default_rng(18)
        t = np.arange(4916 * 320 + 160) / 16000
        pitch = 150.0 + 40.0 * np.sin(2 * np.pi * 0.7 * t)  # gliding, as speech
        phase = 2 * np.pi * np.cumsum(pitch) / 16000
        speech = np.sin(phase) + 0.5 * np.sin(2 * phase) + 0.1 * rng.normal(size=t.size)
        gaps = speech[: 200 * 320].copy()  # fewer frames than one batch
        for lo in range(2000, gaps.size, 8000):
            gaps[lo : lo + 3000] = 0.0  # several all-zero 480-sample windows each
        signals = {
            # at 1e-150 every e_head * e_tail underflows to 0, so r is 0 whatever
            # the numerator; at 1e-75 the denominator survives
            "scaled_by_1e-150": 1e-150 * speech[: 300 * 320],
            "scaled_by_1e-75": 1e-75 * speech[: 300 * 320],
            "int16_pcm": np.round(9000 * speech[: 300 * 320]).astype(np.int16),
            "zero_frames_between_voiced_ones": gaps,
            "4916_frames": speech,
        }
        for name, x in signals.items():
            f0, strength = _kernels.f0_frames(x, *F0_ARGS)
            f0_loop, strength_loop = frame_loop_f0_frames(x, *F0_ARGS)
            assert np.array_equal(f0, f0_loop), name
            assert np.array_equal(strength, strength_loop), name
            assert (strength > 0).any() == (name != "scaled_by_1e-150"), name

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 275), (3, 480), (256, 480)])
    def test_centred_windows_start_on_a_64_byte_boundary(self, n, m):
        for _ in range(20):  # heap states differ from one allocation to the next
            w = _kernels._aligned(n, m)
            assert w.shape == (n, m) and w.dtype == np.float64
            assert w.ctypes.data % 64 == 0


def test_default_backend_reports():
    assert _kernels.backend() == "numpy"


class TestBitParallelLevenshtein:
    """The bit-parallel edit distance against the row DP it replaced."""

    @pytest.mark.parametrize("alphabet", [1, 2, 6, 500])
    def test_lengths_around_a_word(self, rng, alphabet):
        # a's bit vectors are len(a) bits long: none, one, and either side of 64
        for n, m in itertools.product([0, 1, 2, 63, 64, 65], repeat=2):
            a = rng.integers(0, alphabet, size=n)
            b = rng.integers(0, alphabet, size=m)
            assert _kernels.levenshtein(a, b) == row_dp_levenshtein(a, b)
            assert _kernels.levenshtein(b.tolist(), a.tolist()) == row_dp_levenshtein(b, a)

    def test_random_lengths(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 7))
            a = rng.integers(0, k, size=rng.integers(0, 150)).tolist()
            b = rng.integers(0, k, size=rng.integers(0, 150)).tolist()
            assert _kernels.levenshtein(a, b) == row_dp_levenshtein(a, b)

    def test_3000_by_3000(self, rng):
        a = rng.integers(0, 500, size=3000)
        b = a.copy()
        edits = rng.choice(3000, size=450, replace=False)
        b[edits] = rng.integers(0, 500, size=450)
        b = np.delete(b, rng.choice(3000, size=40, replace=False))
        assert _kernels.levenshtein(a.tolist(), b.tolist()) == row_dp_levenshtein(a, b)
