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

# Frames are converted to float64 and squared this many at a time, in one
# buffer per call: a whole channel is never copied, so a call holds its
# output and one block (655 KB of 320-sample frames). Each row's mean is the
# same pairwise sum whatever the block, so the energies are too. Chosen on
# the audio workload's 1-min int16 channel read as ingest reads it (a column
# of the stereo array, 3000 frames of 320 samples): best of 30 in a fresh
# process, 5 alternating processes per size on a 2-core x86-64 host, median
# ms (range):
#   64: 2.37 (1.54-2.47)   128: 2.05 (1.34-2.09)   256: 1.90 (1.30-2.00)
#   512: 1.97 (1.27-2.12)  1000: 2.07 (1.47-2.12)  3000, one block: 2.01 (1.51-2.07)
_RMS_BLOCK = 256


def frame_rms(x, frame_len: int) -> np.ndarray:
    """Per-frame RMS of a 1-d signal; trailing partial frame is dropped."""
    x = np.asarray(x)
    n_frames = x.size // frame_len
    rms = np.empty(n_frames)
    block = np.empty((min(n_frames, _RMS_BLOCK), frame_len))
    for lo in range(0, n_frames, _RMS_BLOCK):
        hi = min(lo + _RMS_BLOCK, n_frames)
        frames = block[: hi - lo]
        # unsafe casting converts whatever np.asarray(x, dtype=np.float64) would
        np.copyto(frames, x[lo * frame_len : hi * frame_len].reshape(hi - lo, frame_len),
                  casting="unsafe")
        np.multiply(frames, frames, out=frames)
        np.mean(frames, axis=1, out=rms[lo:hi])
    return np.sqrt(rms, out=rms)


# ------------------------------------------------------- autocorrelation F0

# Full windows are analysed this many frames at a time, which bounds the
# working arrays of a long call to a few MB. Chosen end to end: the pipeline
# benchmark's audio workload, 8 alternating untraced 8 s runs per size on a
# 2-core x86-64 host, median conv-min/s (quartiles):
#   64: 11.47 (10.86-11.69)   128: 12.08 (11.95-13.21)
#   256: 13.20 (12.68-13.99)  512: 13.11 (12.40-13.77)
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
    # energy[:, j] = sum w[:, :j]^2, and column 0 holds the total: the sum at
    # lag - 1 that lag 0 reads wraps round, as an index of -1 would
    energy = np.empty((n, m + 1))
    np.cumsum(np.multiply(w, w, out=energy[:, 1:]), axis=1, out=energy[:, 1:])
    energy[:, 0] = energy[:, m]
    lags = range(lag_min, lag_max + 1)
    # one BLAS dot of w[k:] with w[:m-k] per row, for the read lags only: the
    # same ddot over the same slices, bit for bit, as a full autocorrelation
    # per row (tests/oracles.py::frame_loop_f0_frames). From here on a lag is
    # a row and a window a column, and each step writes over its input
    num = np.empty((len(lags), n))
    row_vecs, col_vecs = w[:, None, :], w[:, :, None]
    for j, k in enumerate(lags):
        np.matmul(row_vecs[:, :, k:], col_vecs[:, : m - k], num[j, :, None, None])
    # sum w[lag:m]^2, times sum w[:m-lag]^2: both are slices of energy
    denom = energy[:, m] - energy[:, lag_min : lag_max + 1].T
    np.multiply(energy[:, m - lag_min : m - lag_max - 1 : -1].T, denom, out=denom)
    np.sqrt(denom, out=denom)
    # a window with no energy has denom 0 at every lag, so r = 0 and best = 0
    silent = ~(denom > 0.0)
    r = np.divide(num, np.maximum(denom, 1e-300, out=denom), out=num)
    np.copyto(r, 0.0, where=silent)
    best = np.maximum(r.max(axis=0, initial=0.0), 0.0)
    if len(lags) < 3:  # no interior lag to pick
        return np.zeros(n), best
    a, b, c = r[:-2], r[1:-1], r[2:]
    interior = (b >= a) & (b >= c) & (b >= 0.85 * best)
    found = interior.any(axis=0)
    k = np.where(found, interior.argmax(axis=0) + 1, r.argmax(axis=0))
    cols = np.arange(n)
    a, b, c = r[k - 1, cols], r[k, cols], r[np.minimum(k + 1, len(lags) - 1), cols]
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
