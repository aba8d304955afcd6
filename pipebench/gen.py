"""Seeded input generators for the pipeline benchmark.

The generators write trace JSON, vocab JSON and WAV files with `json` and
`wave` directly and never import `dde`, so a change to the simulator or to the
package's writers cannot change what the workloads receive. Every generator
takes a `numpy.random.Generator`; the same seed gives byte-identical files.

The knobs are the input properties the package's cost depends on:
conversation length, segments per minute, overlap and backchannel share,
unit alphabet size and run length, and edit-distance sequence length.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass
from itertools import groupby

import numpy as np

FRAME_MS = 20
SAMPLE_RATE = 16000


def dedup(seq):
    """Collapse adjacent equal ids (the benchmark's own reference)."""
    return [k for k, _ in groupby(seq)]


def _ms(rng, lo, hi):
    """A 20ms-aligned duration drawn uniformly from [lo, hi] ms."""
    return FRAME_MS * int(rng.integers(lo // FRAME_MS, hi // FRAME_MS + 1))


class Balanced:
    """Seeded draws whose running totals hardly depend on the seed.

    Uniform draws of one kind come in antithetic pairs (u, 1 - u), and yes/no
    decisions of one kind come in shuffled blocks holding a fixed share of
    yeses. Each draw is still random, but the amount of speech, the number of
    segments and the overlap and backchannel shares of a conversation stay
    nearly the same from seed to seed, so the work a workload does does too.
    """

    BLOCK = 10

    def __init__(self, rng):
        self.rng = rng
        self._mirror = {}
        self._flags = {}

    def uniform(self, kind):
        u = self._mirror.pop(kind, None)
        if u is None:
            u = self.rng.random()
            self._mirror[kind] = 1.0 - u
        return u

    def ms(self, kind, lo, hi):
        """A 20ms-aligned duration in [lo, hi] ms."""
        steps = (hi - lo) // FRAME_MS
        return lo + FRAME_MS * min(int(self.uniform(kind) * (steps + 1)), steps)

    def flag(self, kind, share):
        block = self._flags.get(kind)
        if not block:
            yes = round(share * self.BLOCK)
            block = [True] * yes + [False] * (self.BLOCK - yes)
            self.rng.shuffle(block)
            self._flags[kind] = block
        return block.pop()


@dataclass(frozen=True)
class TurnStyle:
    """Turn-taking shape of a generated conversation."""

    ipu_ms: tuple[int, int] = (600, 3000)      # one IPU's length
    ipus_per_turn: tuple[int, int] = (1, 3)
    pause_ms: tuple[int, int] = (140, 380)     # silence between a turn's IPUs
    gap_ms: tuple[int, int] = (100, 900)       # silence before the next turn
    overlap_share: float = 0.2                 # next turn starts before this one ends
    overlap_ms: tuple[int, int] = (100, 500)
    backchannel_share: float = 0.3             # listener acknowledges inside a turn
    backchannel_ms: tuple[int, int] = (200, 800)


def conversation(rng, duration_ms: int, style: TurnStyle = TurnStyle(),
                 min_sep_ms: int = 40):
    """Alternating turns with gaps, overlaps and backchannels.

    Returns two sorted lists of (start_ms, end_ms) on the 20ms grid, one per
    speaker. Same-channel intervals are at least `min_sep_ms` long and apart;
    a candidate closer than that to the previous one is dropped.
    """
    draw = Balanced(rng)
    raw = ([], [])
    speaker = int(rng.integers(0, 2))
    t = _ms(rng, 0, 1000)
    while t < duration_ms:
        turn_start = t
        lo, hi = style.ipus_per_turn
        for k in range(lo + min(int(draw.uniform("ipus") * (hi - lo + 1)), hi - lo)):
            if k:
                t += draw.ms("pause", *style.pause_ms)
            end = t + draw.ms("ipu", *style.ipu_ms)
            raw[speaker].append((t, end))
            t = end
        if t - turn_start > 1500 and draw.flag("backchannel", style.backchannel_share):
            bc_len = draw.ms("backchannel", *style.backchannel_ms)
            bc_start = turn_start + _ms(rng, 400, t - turn_start - bc_len - 200)
            raw[1 - speaker].append((bc_start, bc_start + bc_len))
        if draw.flag("overlap", style.overlap_share):
            # the next turn starts inside this one, never before it
            t = max(t - draw.ms("overlap", *style.overlap_ms), turn_start + FRAME_MS)
        else:
            t += draw.ms("gap", *style.gap_ms)
        speaker = 1 - speaker
    channels = []
    for intervals in raw:
        kept = []
        for start, end in sorted(intervals):
            end = min(end, duration_ms)
            if end - start < min_sep_ms:
                continue
            if kept and start < kept[-1][1] + min_sep_ms:
                continue
            kept.append((start, end))
        channels.append(kept)
    return channels


class Lexicon:
    """Unit 'words' with a Zipf-like frequency, each unit held for a few frames.

    Words are runs of distinct adjacent unit ids, so dedup leaves them whole
    and their internal pairs are what a BPE vocabulary learns to merge.
    """

    N_WORDS = 400
    WORD_LEN = (2, 5)

    def __init__(self, rng, alphabet: int, run_probs=(0.3, 0.4, 0.3)):
        self.alphabet = alphabet
        self.words = []
        lo, hi = self.WORD_LEN
        for i in range(self.N_WORDS):
            # lengths cycle with frequency rank, so how much BPE merges shrink
            # a corpus, and with it the cost of training, does not vary by seed
            n = lo + i % (hi - lo + 1)
            word = [int(rng.integers(0, alphabet))]
            while len(word) < n:
                u = int(rng.integers(0, alphabet))
                if u != word[-1]:
                    word.append(u)
            self.words.append(word)
        weights = 1.0 / np.arange(1, self.N_WORDS + 1)
        self.p = weights / weights.sum()
        self.runs = np.arange(1, len(run_probs) + 1)
        self.run_p = np.asarray(run_probs) / sum(run_probs)

    def units(self, rng, n_frames: int):
        """Raw per-frame unit ids for an n_frames-long segment."""
        # every word spans at least two frames, so n_frames // 2 + 1 words suffice
        picks = rng.choice(len(self.words), size=n_frames // 2 + 1, p=self.p)
        seq = [u for i in picks for u in self.words[i]]
        runs = rng.choice(self.runs, size=len(seq), p=self.run_p)
        return np.repeat(seq, runs)[:n_frames].tolist()

    def vocab(self, num_merges: int):
        """A BPE vocab dict whose merges rebuild the most frequent words."""
        merges = []
        next_id = self.alphabet
        for word in self.words:
            left = word[0]
            for right in word[1:]:
                if len(merges) == num_merges:
                    return {"base_alphabet_size": self.alphabet, "merges": merges}
                merges.append([left, right, next_id])
                left = next_id
                next_id += 1
        return {"base_alphabet_size": self.alphabet, "merges": merges}


def trace_dict(channels, duration_ms: int, lexicon: Lexicon | None = None, rng=None):
    """Trace JSON payload in the package's schema, optionally unit-annotated."""
    out = []
    for intervals in channels:
        segs = []
        for start, end in intervals:
            seg = {"start_ms": start, "end_ms": end}
            if lexicon is not None:
                seg["units"] = lexicon.units(rng, (end - start) // FRAME_MS)
            segs.append(seg)
        out.append(segs)
    return {"duration_ms": duration_ms, "channels": out}


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True)
        fp.write("\n")


def edit_pair(rng, length: int, alphabet: int, edit_rate: float):
    """A reference of `length` units and a hypothesis with seeded edits.

    Returns (ref, hyp, n_edits); the edit distance is at most n_edits.
    """
    ref = [int(u) for u in rng.integers(0, alphabet, length)]
    hyp = []
    n_edits = 0
    for u in ref:
        r = rng.random()
        if r < edit_rate / 3:                      # substitution
            hyp.append((u + 1 + int(rng.integers(0, alphabet - 1))) % alphabet)
            n_edits += 1
        elif r < 2 * edit_rate / 3:                # deletion
            n_edits += 1
        elif r < edit_rate:                        # insertion after u
            hyp.extend([u, int(rng.integers(0, alphabet))])
            n_edits += 1
        else:
            hyp.append(u)
    return ref, hyp, n_edits


NOISE_RMS = 30.0   # PCM16 noise floor under the tone bursts


def speech_audio(rng, channels, duration_ms: int, f0_hz):
    """Stereo PCM16 of tone bursts over a noise floor, one channel per speaker.

    Each burst sits exactly on its segment, at the speaker's F0 with a
    per-burst jitter of up to 8% and a slow vibrato.
    """
    n = duration_ms * SAMPLE_RATE // 1000
    out = []
    for ch, intervals in enumerate(channels):
        x = rng.normal(0.0, NOISE_RMS, n)
        for start, end in intervals:
            lo = start * SAMPLE_RATE // 1000
            hi = end * SAMPLE_RATE // 1000
            t = np.arange(hi - lo) / SAMPLE_RATE
            f0 = f0_hz[ch] * (1.0 + rng.uniform(-0.08, 0.08))
            phase = 2 * np.pi * f0 * t + 0.3 * np.sin(2 * np.pi * 5.0 * t)
            amp = 32767 * rng.uniform(0.3, 0.6)
            x[lo:hi] += amp * (np.sin(phase) + 0.3 * np.sin(2 * phase))
        out.append(np.clip(np.round(x), -32768, 32767).astype("<i2"))
    return out


def write_wav(path, channels) -> None:
    data = np.stack(channels, axis=1)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(data.shape[1])
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(data.tobytes())
