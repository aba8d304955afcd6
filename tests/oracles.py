"""Independent brute-force oracles, kept deliberately separate from the
package's interval arithmetic: these work on dense boolean grids and plain
recursion so that both routes can be compared exactly."""

import math
from functools import lru_cache

import numpy as np

from dde.segments import ConversationTrace, _clip_segment

FRAME_MS = 20
TICK_MS = 160
FRAMES_PER_TICK = TICK_MS // FRAME_MS


# ------------------------------------------------------- frame-grid labeling

def frame_activity(trace, channel: int) -> np.ndarray:
    """Per-frame booleans via the majority (>=10ms) rule, computed frame by
    frame from raw segment intersections."""
    n_frames = trace.duration_ms // FRAME_MS
    active = np.zeros(n_frames, dtype=bool)
    for seg in trace.channels[channel]:
        for f in range(seg.start_ms // FRAME_MS, min((seg.end_ms + FRAME_MS - 1) // FRAME_MS, n_frames)):
            lo = max(seg.start_ms, f * FRAME_MS)
            hi = min(seg.end_ms, f * FRAME_MS + FRAME_MS)
            if hi - lo >= FRAME_MS // 2:
                active[f] = True
    return active


def frame_label_sequence(trace, agent: int):
    """Per-tick actions decided from frame-resolution onsets/offsets.

    Returns a list of action names. Mirrors the four-way rule: onset in tick
    -> SPK; else run-end in tick with the other channel active at the first
    silent frame -> STP; else active at the tick-end frame -> CON; else SIL.
    """
    own = frame_activity(trace, agent)
    other = frame_activity(trace, 1 - agent)
    n_frames = own.size
    n_ticks = trace.duration_ms // TICK_MS
    labels = []
    for i in range(n_ticks):
        lo = i * FRAMES_PER_TICK
        hi = lo + FRAMES_PER_TICK
        onset = any(
            own[f] and (f == 0 or not own[f - 1]) for f in range(lo, hi)
        )
        if onset:
            labels.append("SPK")
            continue
        run_end = None
        for f in range(lo, hi):
            if own[f] and (f + 1 >= n_frames or not own[f + 1]):
                run_end = f
                break
        if run_end is not None:
            nxt = run_end + 1
            if nxt < n_frames and other[nxt]:
                labels.append("STP")
                continue
        # continuation needs speech on both sides of the tick boundary
        if hi < n_frames and own[hi] and own[hi - 1]:
            labels.append("CON")
        else:
            labels.append("SIL")
    return labels


# ------------------------------------------------------------ context window

def scan_window(trace, end_ms: int, width_ms: int):
    """window() by clipping every segment of both channels to the window and
    dropping the empty results, with no search for the overlapping ones."""
    left = max(0, end_ms - width_ms)
    channels = []
    for ch in trace.channels:
        clipped = [_clip_segment(s, left, end_ms, left) for s in ch]
        channels.append(tuple(s for s in clipped if s is not None))
    return ConversationTrace(channels=tuple(channels), duration_ms=end_ms - left)


# ------------------------------------------------------ 1ms sweep analytics

def ms_activity(trace, channel: int) -> np.ndarray:
    act = np.zeros(trace.duration_ms, dtype=bool)
    for seg in trace.channels[channel]:
        act[seg.start_ms : seg.end_ms] = True
    return act


def _runs(mask: np.ndarray):
    padded = np.concatenate(([False], mask, [False]))
    diff = np.diff(padded.astype(np.int8))
    return list(zip(np.flatnonzero(diff == 1).tolist(), np.flatnonzero(diff == -1).tolist()))


def _close_gaps(runs, threshold):
    merged = []
    for s, e in runs:
        if merged and s - merged[-1][1] < threshold:
            merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


def sweep_events(trace):
    """Overlap/pause/gap/backchannel events from dense 1ms boolean arrays,
    plus the total within-turn silence and the pause lengths in ms."""
    act = [ms_activity(trace, 0), ms_activity(trace, 1)]
    ipus = [_runs(a) for a in act]
    raw_spans = [_close_gaps(r, 400) for r in ipus]
    backchannels = []
    main = []
    for sp in (0, 1):
        bc = [
            (s, e)
            for s, e in ipus[sp]
            if e - s < 1000 and any(ts <= s and e <= te for ts, te in raw_spans[1 - sp])
        ]
        backchannels.extend((sp, iv) for iv in bc)
        bc_set = set(bc)
        main.append([iv for iv in ipus[sp] if iv not in bc_set])
    turns = [_close_gaps(m, 400) for m in main]
    pauses = []
    for sp in (0, 1):
        for prev, cur in zip(main[sp], main[sp][1:]):
            if 200 < cur[0] - prev[1] < 400:
                pauses.append((sp, (prev[1], cur[0])))
    overlaps = _runs(act[0] & act[1])
    timeline = sorted(
        [(s, e, sp) for sp in (0, 1) for s, e in turns[sp]]
    )
    gaps = []
    latest_end = None
    latest_sp = None
    for s, e, sp in timeline:
        if latest_end is not None and sp != latest_sp and s > latest_end:
            gaps.append((s - latest_end, latest_sp, sp))
        if latest_end is None or e >= latest_end:
            latest_end, latest_sp = e, sp
    backchannels.sort(key=lambda x: x[1])
    pauses.sort(key=lambda x: x[1])
    # silences between consecutive main IPUs that the 400ms rule joins
    within_turn_silence = sum(
        cur[0] - prev[1]
        for m in main
        for prev, cur in zip(m, m[1:])
        if cur[0] - prev[1] < 400
    )
    return {
        "overlaps": overlaps,
        "backchannels": backchannels,
        "pauses": pauses,
        "gaps": gaps,
        "within_turn_silence_ms": within_turn_silence,
        "pause_lengths": [e - s for _, (s, e) in pauses],
    }


# --------------------------------------------------------- edit distance

def recursive_levenshtein(a, b) -> int:
    """Memoized top-down recursion (match / substitute / insert / delete)."""

    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        if a[i] == b[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j), go(i, j + 1), go(i + 1, j + 1))

    return go(0, 0)


# ------------------------------------------------------- frame energy and F0

def loop_frame_rms(x, frame_len: int) -> np.ndarray:
    """Per-frame RMS, one sample at a time; trailing partial frame dropped."""
    x = [float(v) for v in x]
    out = []
    for f in range(len(x) // frame_len):
        acc = 0.0
        for t in range(f * frame_len, (f + 1) * frame_len):
            acc += x[t] * x[t]
        out.append(math.sqrt(acc / frame_len))
    return np.array(out, dtype=np.float64)


def loop_f0_frames(x, fs, frame_len, window_len, lag_min, lag_max):
    """Per-frame (f0_hz, strength) by direct normalized autocorrelation sums.

    Same definition as the package's kernel: the window starts at the frame
    and spans window_len samples (clipped at the signal end); each lag's
    correlation is normalized by the energies of the two overlapping parts;
    the smallest local maximum within 15% of the peak is refined with a
    parabola clamped to one lag. Frames with no positive peak are unvoiced
    with strength 0.
    """
    x = [float(v) for v in x]
    n_frames = len(x) // frame_len
    f0 = np.zeros(n_frames)
    strength = np.zeros(n_frames)
    n_lags = lag_max - lag_min + 1
    for f in range(n_frames):
        lo = f * frame_len
        hi = min(lo + window_len, len(x))
        m = hi - lo
        if m < lag_max + 8:
            continue
        mean = sum(x[lo:hi]) / m
        buf = [v - mean for v in x[lo:hi]]
        energy = [0.0]
        for v in buf:
            energy.append(energy[-1] + v * v)
        total = energy[m]
        if total <= 0.0:
            continue
        r = []
        for k in range(n_lags):
            lag = lag_min + k
            num = 0.0
            for t in range(m - lag):
                num += buf[t] * buf[t + lag]
            denom = math.sqrt(energy[m - lag] * (total - energy[lag]))
            r.append(num / denom if denom > 0.0 else 0.0)
        best = max(r)
        if best <= 0.0:
            continue
        chosen = next(
            (k for k in range(1, n_lags - 1)
             if r[k] >= r[k - 1] and r[k] >= r[k + 1] and r[k] >= 0.85 * best),
            None,
        )
        if chosen is None:
            f0[f] = fs / (lag_min + r.index(best))
            strength[f] = best
            continue
        denom = r[chosen - 1] - 2.0 * r[chosen] + r[chosen + 1]
        delta = 0.0 if denom == 0.0 else 0.5 * (r[chosen - 1] - r[chosen + 1]) / denom
        delta = min(max(delta, -1.0), 1.0)
        f0[f] = fs / (lag_min + chosen + delta)
        strength[f] = r[chosen]
    return f0, strength
