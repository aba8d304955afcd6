import numpy as np

from dde import _kernels
from oracles import loop_f0_frames, loop_frame_rms, recursive_levenshtein


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


def test_default_backend_reports():
    assert _kernels.backend() == "numpy"
