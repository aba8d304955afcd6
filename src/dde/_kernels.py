"""Hot numeric kernels: a bit-parallel edit distance on Python ints, and
frame energy and F0 vectorized with numpy."""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- levenshtein

def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two integer sequences, by the
    bit-parallel DP of Myers (1999) in Hyyro's (2003) form.

    Bit i of pv (mv) says that the DP column steps +1 (-1) from row i to row
    i+1; each element of b advances the column once. Row 0 of column j is j,
    so the distance is len(b) plus the last column's steps.
    """
    peq = {}                                 # symbol -> bit i set where a[i] is it
    for i, symbol in enumerate(a):
        peq[symbol] = peq.get(symbol, 0) | 1 << i
    mask = (1 << len(a)) - 1
    pv, mv = mask, 0
    for symbol in b:
        eq = peq.get(symbol, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq    # may carry into bit len(a)
        ph = mv | (mask ^ (xh | pv))
        mh = pv & xh
        ph = (ph << 1) | 1                   # row 0 steps +1
        pv = ((mh << 1) | (mask ^ (xv | ph))) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - mv.bit_count()


# -------------------------------------------------------------- frame energy

def frame_rms(x, frame_len: int) -> np.ndarray:
    """Per-frame RMS of a 1-d signal; trailing partial frame is dropped."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = x.size // frame_len
    frames = x[: n_frames * frame_len].reshape(n_frames, frame_len)
    return np.sqrt(np.mean(frames * frames, axis=1))


# ------------------------------------------------------- autocorrelation F0

# Full windows are analysed this many frames at a time, which bounds the
# working arrays of a long call to a few MB. Chosen end to end: the pipeline
# benchmark's audio workload, 8 alternating untraced 8 s runs per size on a
# 2-core x86-64 host, median conv-min/s (quartiles):
#   64: 8.44 (8.33-8.65)   128: 9.58 (9.45-9.74)
#   256: 9.97 (9.82-10.21)  512: 9.67 (9.52-9.95)
_F0_BATCH = 256


def _aligned(n: int, m: int) -> np.ndarray:
    """An empty (n, m) float64 array whose data starts on a 64-byte boundary."""
    buf = np.empty(n * m + 7)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip : skip + n * m].reshape(n, m)


def _f0_batch(w: np.ndarray, fs: float, lag_min: int, lag_max: int):
    """(f0_hz, strength) of each row of w, one analysis window per row.

    Normalized autocorrelation over lags lag_min..lag_max; the pick is the
    smallest local maximum within 15% of the global peak (guards against
    octave-down errors), refined with a parabolic fit. With no such interior
    maximum the global peak's lag is taken unrefined. A peak at or below zero
    means no periodicity: f0 and strength are then 0, as for windows shorter
    than lag_max + 8 samples or with no energy.
    """
    n, m = w.shape
    if m < lag_max + 8:
        return np.zeros(n), np.zeros(n)
    # the per-lag dots below run faster on rows that start on a 64-byte boundary
    # (best of 30 for 228 lags over 256 x 480: 4.3-4.9 ms aligned against
    # 5.0-6.6 ms at the 7 other offsets), and where a new array's data lands
    # depends on the heap's history
    w = np.subtract(w, w.mean(axis=1, keepdims=True), out=_aligned(n, m))
    energy = np.cumsum(w * w, axis=1)
    total = energy[:, -1:]
    lags = np.arange(lag_min, lag_max + 1)
    # one BLAS dot of w[k:] with w[:m-k] per row, for the read lags only: the
    # same ddot over the same slices, bit for bit, as a full autocorrelation
    # per row (tests/oracles.py::frame_loop_f0_frames)
    num = np.empty((n, lags.size))
    for j, k in enumerate(lags):
        num[:, j] = np.matmul(w[:, None, k:], w[:, : m - k, None])[:, 0, 0]
    e_head = energy[:, m - lags - 1]                     # sum w[0:m-lag]^2
    e_tail = total - energy[:, lags - 1]                 # sum w[lag:m]^2
    denom = np.sqrt(e_head * e_tail)
    # a window with no energy has denom 0 at every lag, so r = 0 and best = 0
    r = np.where(denom > 0.0, num / np.maximum(denom, 1e-300), 0.0)
    best = np.maximum(r.max(axis=1, initial=0.0), 0.0)
    if lags.size < 3:  # no interior lag to pick
        return np.zeros(n), best
    a, b, c = r[:, :-2], r[:, 1:-1], r[:, 2:]
    interior = (b >= a) & (b >= c) & (b >= 0.85 * best[:, None])
    found = interior.any(axis=1)
    k = np.where(found, interior.argmax(axis=1) + 1, r.argmax(axis=1))
    rows = np.arange(n)
    a, b, c = r[rows, k - 1], r[rows, k], r[rows, np.minimum(k + 1, lags.size - 1)]
    # at an interior maximum b >= a and b >= c, so |a - c| = |(a - b) - (c - b)|
    # <= |(a - b) + (c - b)| = |parabola|: |delta| <= 0.5 and needs no clamp
    parabola = a - 2.0 * b + c
    delta = np.divide(0.5 * (a - c), parabola, out=np.zeros(n), where=found & (parabola != 0.0))
    f0 = np.where(best > 0.0, fs / (lag_min + k + delta), 0.0)
    return f0, np.where(found, b, best)


def f0_frames(x, fs, frame_len, window_len, lag_min, lag_max):
    """Per-frame F0 estimate and voicing strength via normalized autocorrelation.

    The analysis window starts at each frame and extends window_len samples
    (clipped at the signal end). Returns (f0_hz, strength) arrays, one entry
    per complete frame; unvoiced/short frames get f0 = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n_frames = x.size // frame_len
    n_full = min(n_frames, max(0, (x.size - window_len) // frame_len + 1))
    windows = np.lib.stride_tricks.as_strided(
        x, (n_full, window_len), (frame_len * x.strides[0], x.strides[0]), writeable=False
    )
    batches = [windows[lo : lo + _F0_BATCH] for lo in range(0, n_full, _F0_BATCH)]
    batches += [x[None, f * frame_len :] for f in range(n_full, n_frames)]  # clipped windows
    f0 = np.zeros(n_frames)
    strength = np.zeros(n_frames)
    lo = 0
    for w in batches:
        f0[lo : lo + len(w)], strength[lo : lo + len(w)] = _f0_batch(w, float(fs), lag_min, lag_max)
        lo += len(w)
    return f0, strength


def backend() -> str:
    """Name of the kernel implementation, for run records."""
    return "numpy"
