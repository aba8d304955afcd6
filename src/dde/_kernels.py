"""Hot numeric kernels, vectorized with numpy."""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- levenshtein

def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two integer sequences, via a vectorized
    row DP.

    The within-row insertion chain cur[j] = min(base[j], cur[j-1]+1) is a
    running minimum of base[j]-j shifted back by +j.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = b.size
    if a.size == 0:
        return int(n)
    if n == 0:
        return int(a.size)
    prev = np.arange(n + 1, dtype=np.int64)
    offsets = np.arange(n + 1, dtype=np.int64)
    for i in range(1, a.size + 1):
        cost = (b != a[i - 1]).astype(np.int64)
        base = np.empty(n + 1, dtype=np.int64)
        base[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + cost, out=base[1:])
        prev = np.minimum.accumulate(base - offsets) + offsets
    return int(prev[n])


# -------------------------------------------------------------- frame energy

def frame_rms(x, frame_len: int) -> np.ndarray:
    """Per-frame RMS of a 1-d signal; trailing partial frame is dropped."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = x.size // frame_len
    frames = x[: n_frames * frame_len].reshape(n_frames, frame_len)
    return np.sqrt(np.mean(frames * frames, axis=1))


# ------------------------------------------------------- autocorrelation F0

def _f0_pick(r: np.ndarray, lag_min: int, fs: float):
    """Choose a pitch lag from a normalized autocorrelation slice.

    Takes the smallest local maximum within 15% of the global peak (guards
    against octave-down errors), then refines it with a parabolic fit.
    Returns (f0_hz, peak_strength); (0, strength) when nothing qualifies.
    A peak at or below zero means no periodicity: strength is then 0.
    """
    n = r.size
    best = max(float(r.max()), 0.0) if n else 0.0
    if n < 3 or best == 0.0:
        return 0.0, best
    thresh = 0.85 * best
    for k in range(1, n - 1):
        if r[k] >= r[k - 1] and r[k] >= r[k + 1] and r[k] >= thresh:
            denom = r[k - 1] - 2.0 * r[k] + r[k + 1]
            delta = 0.0 if denom == 0.0 else 0.5 * (r[k - 1] - r[k + 1]) / denom
            if delta > 1.0:
                delta = 1.0
            elif delta < -1.0:
                delta = -1.0
            lag = lag_min + k + delta
            return fs / lag, float(r[k])
    k = int(np.argmax(r))
    return fs / (lag_min + k), best


def f0_frames(x, fs, frame_len, window_len, lag_min, lag_max):
    """Per-frame F0 estimate and voicing strength via normalized autocorrelation.

    The analysis window starts at each frame and extends window_len samples
    (clipped at the signal end). Returns (f0_hz, strength) arrays, one entry
    per complete frame; unvoiced/short frames get f0 = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n_frames = x.size // frame_len
    f0 = np.zeros(n_frames)
    strength = np.zeros(n_frames)
    for f in range(n_frames):
        w = x[f * frame_len : f * frame_len + window_len]
        m = w.size
        if m < lag_max + 8:
            continue
        w = w - w.mean()
        energy = np.cumsum(w * w)
        total = energy[-1]
        if total <= 0.0:
            continue
        full = np.correlate(w, w, mode="full")[m - 1 :]  # lag 0..m-1
        lags = np.arange(lag_min, lag_max + 1)
        num = full[lags]
        e_head = energy[m - lags - 1]                    # sum w[0:m-lag]^2
        e_tail = total - energy[lags - 1]                # sum w[lag:m]^2
        denom = np.sqrt(e_head * e_tail)
        r = np.where(denom > 0.0, num / np.maximum(denom, 1e-300), 0.0)
        f0[f], strength[f] = _f0_pick(r, lag_min, float(fs))
    return f0, strength


def backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "numpy"
