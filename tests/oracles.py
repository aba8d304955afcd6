"""Independent brute-force oracles, kept deliberately separate from the
package's interval arithmetic: these work on dense boolean grids and plain
recursion so that both routes can be compared exactly."""

import json
import math
from functools import lru_cache

import numpy as np

from dde import _kernels, analytics
from dde.errors import PolicyContractViolation, ValidationError
from dde.labeler import Action
from dde.segments import SPEAKER_NAMES, ConversationTrace, SpeechSegment, frame_grid
from dde.simulate import _LEGAL, Observation, SelfChat
from dde.units import BpeVocab, _check_raw
from dde.vad import FRAME_SAMPLES, SAMPLE_RATE

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

def clip_by_frames(s, lo, hi, shift):
    """The cut rule restated a millisecond and a frame at a time: keep the
    milliseconds of s inside [lo, hi), shifted left by `shift`; units survive
    iff every source frame touched is kept whole and the shifted start is on
    the grid; words and events survive iff nothing is cut. None if nothing is
    kept."""
    kept = range(max(s.start_ms, lo), min(s.end_ms, hi))  # the milliseconds of s in [lo, hi)
    if not kept:
        return None
    ns, ne = kept[0], kept[-1] + 1
    units = None
    if s.units is not None:
        frames = sorted({(t - s.start_ms) // FRAME_MS for t in kept})
        if len(kept) == FRAME_MS * len(frames) and (ns - shift) % FRAME_MS == 0:
            units = tuple(s.units[f] for f in frames)
    whole = len(kept) == s.duration_ms
    return SpeechSegment(
        ns - shift, ne - shift, units=units,
        words=s.words if whole else None, events=s.events if whole else None,
    )


def scan_window(trace, end_ms: int, width_ms: int):
    """window() by clipping every segment of both channels to the window a
    millisecond at a time and dropping the empty results, with no search for
    the overlapping ones."""
    left = max(0, end_ms - width_ms)
    channels = []
    for ch in trace.channels:
        clipped = [clip_by_frames(s, left, end_ms, left) for s in ch]
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


def whole_signal_frame_rms(x, frame_len: int) -> np.ndarray:
    """The package's frame energy as it was before it squared its frames in
    blocks, kept verbatim: the whole signal converted to float64 at once."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = x.size // frame_len
    frames = x[: n_frames * frame_len].reshape(n_frames, frame_len)
    return np.sqrt(np.mean(frames * frames, axis=1))


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


# The package's F0 kernel and its caller as they were before F0 was computed
# in batches over speech runs only, kept verbatim: the batched kernel and the
# run-sliced caller must agree with them bit for bit.

def _frame_loop_f0_pick(r: np.ndarray, lag_min: int, fs: float):
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


def frame_loop_f0_frames(x, fs, frame_len, window_len, lag_min, lag_max):
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
        f0[f], strength[f] = _frame_loop_f0_pick(r, lag_min, float(fs))
    return f0, strength


def all_frames_audio_stats(trace, audio):
    """(estd, pstd_hz, mean_f0_hz) with F0 computed on every frame of each
    channel and the frames outside speech dropped afterwards."""
    grid = frame_grid(trace)
    lag_min = int(SAMPLE_RATE / analytics.PITCH_FMAX_HZ)
    lag_max = int(math.ceil(SAMPLE_RATE / analytics.PITCH_FMIN_HZ))
    window_len = SAMPLE_RATE * analytics.PITCH_WINDOW_MS // 1000
    rms_all = []
    f0_all = []
    for ch, samples in enumerate(audio):
        samples = np.asarray(samples, dtype=np.float64) / analytics._PCM_SCALE
        n_frames = min(samples.size // FRAME_SAMPLES, grid.n_frames)
        active = grid.frames[ch, :n_frames]
        if not active.any():
            continue
        rms = _kernels.frame_rms(samples[: n_frames * FRAME_SAMPLES], FRAME_SAMPLES)
        rms_all.append(rms[active])
        f0, strength = frame_loop_f0_frames(
            samples, SAMPLE_RATE, FRAME_SAMPLES, window_len, lag_min, lag_max
        )
        f0 = f0[:n_frames]
        strength = strength[:n_frames]
        voiced = active & (strength >= analytics.VOICING_THRESHOLD) & (f0 > 0)
        f0_all.append(f0[voiced])
    estd = pstd = mean_f0 = None
    if rms_all:
        estd = float(np.std(np.concatenate(rms_all)))
    if f0_all:
        pooled = np.concatenate(f0_all)
        if pooled.size:
            pstd = float(np.std(pooled))
            mean_f0 = float(np.mean(pooled))
    return estd, pstd, mean_f0


# ------------------------------------------------- BPE and edit distance, as
# they were before incremental pair counts, lowest-rank-first encoding and the
# bit-parallel edit distance, kept verbatim (renamed): the package's versions
# must give the same vocabs, tokens and distances.

def _merge_pass(seq: list[int], left: int, right: int, new: int) -> list[int]:
    # one exhaustive left-to-right replacement of (left, right) by new
    out = []
    i = 0
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == left and seq[i + 1] == right:
            out.append(new)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def pass_per_merge_bpe_train(corpus, num_merges: int, base_alphabet_size: int) -> BpeVocab:
    """Greedy BPE over deduplicated unit sequences.

    Each round merges the most frequent adjacent pair everywhere (ties go to
    the lexicographically smallest pair) and assigns the next free id.
    Training stops early once no pair occurs twice.
    """
    if num_merges < 0:
        raise ValidationError("num_merges must be >= 0")
    seqs = []
    for seq in corpus:
        seq = list(seq)
        _check_raw(seq, base_alphabet_size)
        seqs.append(seq)
    merges = []
    next_id = base_alphabet_size
    for _ in range(num_merges):
        counts: dict[tuple[int, int], int] = {}
        for seq in seqs:
            for pair in zip(seq, seq[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (left, right), freq = best
        if freq < 2:
            break
        merges.append((left, right, next_id))
        seqs = [_merge_pass(seq, left, right, next_id) for seq in seqs]
        next_id += 1
    return BpeVocab(base_alphabet_size=base_alphabet_size, merges=tuple(merges))


def pass_per_merge_bpe_encode(vocab: BpeVocab, seq) -> tuple[int, ...]:
    """Apply the vocab's merges in training order, each exhaustively."""
    seq = list(seq)
    _check_raw(seq, vocab.base_alphabet_size)
    for left, right, new in vocab.merges:
        seq = _merge_pass(seq, left, right, new)
    return tuple(seq)


def row_dp_levenshtein(a, b) -> int:
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


# ------------------------------------------------ inline sample contexts, as
# they were written before window_json: one window() per sample, turned into a
# dict and encoded by json.dumps, kept verbatim (renamed): the package's
# inline lines must be the same bytes.

def window_per_tick_sample_dict(self, context_mode="ref", trace_path=None):
    d = {
        "agent": "AB"[self.agent],
        "tick_index": self.tick_index,
        "action": self.action.name,
    }
    if self.target_tokens is not None:
        d["target_tokens"] = list(self.target_tokens)
    if context_mode == "inline":
        d["context"] = self.context.to_dict()
    elif context_mode == "ref":
        d["context_ref"] = {
            "trace": str(trace_path) if trace_path is not None else None,
            "end_ms": TICK_MS * (self.tick_index + 1),
            "window_ms": self.window_ms,
        }
    return d


def window_per_tick_write_samples_jsonl(samples, path, context_mode="ref", trace_path=None) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for s in samples:
            fp.write(
                json.dumps(
                    window_per_tick_sample_dict(s, context_mode=context_mode, trace_path=trace_path),
                    sort_keys=True,
                )
            )
            fp.write("\n")


# ------------------------------------------------ trace files, as they were
# written before per-segment parts: the record encoded by json.dumps with
# indent=2, which runs json's pure-Python encoder, kept verbatim (renamed):
# write_trace must write the same bytes.

def indent_encoder_write_trace(trace: ConversationTrace, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(trace.to_json(indent=2))
        fp.write("\n")


# ------------------------------------------------- per-class scores, as they
# were before one table of (gold, predicted) counts, kept verbatim (renamed):
# the package's report must give the same support, precision, recall, F1 and
# accuracy, float for float.

def per_class_scan_report(gold, predicted) -> analytics.ClassReport:
    gold = [Action(a) for a in gold]
    predicted = [Action(a) for a in predicted]
    per_class = {}
    correct = sum(1 for g, p in zip(gold, predicted) if g == p)
    for action in Action:
        tp = sum(1 for g, p in zip(gold, predicted) if g == action and p == action)
        fp = sum(1 for g, p in zip(gold, predicted) if g != action and p == action)
        fn = sum(1 for g, p in zip(gold, predicted) if g == action and p != action)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_class[action] = analytics.ClassMetrics(
            support=tp + fn,
            precision=precision,
            recall=recall,
            f1=analytics.f1_score(precision, recall),
        )
    return analytics.ClassReport(per_class=per_class, accuracy=correct / len(gold))


# ---------------------------------------------- the self-chat tick, as it ran
# before the generator: each step() a method call that reads the run's state
# from self, kept verbatim (renamed): SelfChat must log the same actions,
# finish with the same trace and raise the same violation at the same tick.

class MethodStepSelfChat(SelfChat):
    def step(self):
        """Advance one tick, both agents deciding on its start state; returns (action A, action B)."""
        tick, run = self.tick, self.run
        now = tick * TICK_MS
        tick_end = now + TICK_MS
        if tick_end > run.duration_ms:  # tick >= n_ticks
            raise ValidationError("run already finished")
        self._commit_if_done(0, now)
        self._commit_if_done(1, now)
        # Both agents' views at the start of this tick, after _commit_if_done:
        # every live utterance then began at an earlier tick and ends after now.
        live_a = self.states[0].utterance_start_ms is not None
        live_b = self.states[1].utterance_start_ms is not None
        a, b = self.history
        end_a = a[-1].end_ms if a else None
        end_b = b[-1].end_ms if b else None
        if live_a or live_b:
            mutual_silence = 0
        else:  # a segment ends after 0ms, so a last end of 0 means nothing yet
            last = max(end_a or 0, end_b or 0)
            mutual_silence = now - last if last else None
        observations = (
            Observation(now, live_b, end_b is not None, end_b, end_a, mutual_silence, self),
            Observation(now, live_a, end_a is not None, end_a, end_b, mutual_silence, self),
        )
        changes = []
        try:
            for agent, policy in enumerate(run.agents):
                state = self.states[agent]
                mode = state.mode(tick)
                action, payload = policy.decide(observations[agent], state, mode)
                if type(action) is not Action:
                    action = Action(action)
                if action not in _LEGAL[mode]:
                    raise PolicyContractViolation(tick, SPEAKER_NAMES[agent], mode, action)
                if action is Action.SPK or action is Action.STP:
                    changes.append((agent, action, payload))
                self.actions[agent].append(action)
        finally:  # a logged action takes effect even when the other agent's decision raises
            for agent, action, payload in changes:
                state = self.states[agent]
                if action is Action.SPK:
                    self._commit_if_done(agent, tick_end)  # flush any finishing tail
                    dur_ms, units = payload
                    state.utterance_start_ms = now
                    state.planned_end_ms = min(now + dur_ms, run.duration_ms)
                    state.utterance_units = units
                else:  # STP
                    state.planned_end_ms = tick_end
        self.tick = tick + 1
        return self.actions[0][-1], self.actions[1][-1]
