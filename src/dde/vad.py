"""Energy-threshold voice activity detection over 20ms frames.

A frame is speech when its RMS energy (dB) exceeds the noise floor — the 5th
percentile of all frame energies — by a configurable margin. Sub-threshold
gaps shorter than min_gap_ms are bridged, then segments shorter than
min_speech_ms are dropped. Output boundaries are always 20ms-aligned.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._schema import Record
from .errors import ValidationError
# build_trace is not called here: pipebench/spans.py patches the name in this module
from .segments import FRAME_MS, ConversationTrace, SpeechSegment, build_trace, join_spans

SAMPLE_RATE = 16000
FRAME_SAMPLES = SAMPLE_RATE * FRAME_MS // 1000  # 320
_NOISE_FLOOR_PERCENTILE = 5.0
_EPS = 1e-12


@dataclass(frozen=True)
class VadConfig(Record):
    energy_threshold_db: float = 10.0  # margin above the noise floor
    min_speech_ms: int = 100           # shorter detections are dropped
    min_gap_ms: int = 100              # shorter silences are bridged

    def __post_init__(self):
        if self.energy_threshold_db < 0:
            raise ValidationError(
                f"energy_threshold_db must be non-negative, got {self.energy_threshold_db}"
            )
        if self.min_speech_ms < FRAME_MS:
            raise ValidationError("min_speech_ms must be at least one frame")
        if self.min_gap_ms < 0:
            raise ValidationError("min_gap_ms must be non-negative")


def active_runs(mask: np.ndarray):
    """(start_ms, end_ms) of each run of True frames."""
    padded = np.concatenate(([False], mask, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1) * FRAME_MS
    ends = np.flatnonzero(diff == -1) * FRAME_MS
    return zip(starts.tolist(), ends.tolist())


def _segment_channel(samples: np.ndarray, cfg: VadConfig):
    """The speech runs of one channel as segments, sorted and at least a
    frame apart: a trace's channel as they are."""
    rms = _kernels.frame_rms(samples, FRAME_SAMPLES)
    energies = 10.0 * np.log10(rms * rms + _EPS)
    floor = np.percentile(energies, _NOISE_FLOOR_PERCENTILE)
    spans = join_spans(active_runs(energies > floor + cfg.energy_threshold_db), cfg.min_gap_ms)
    min_ms = -(-cfg.min_speech_ms // FRAME_MS) * FRAME_MS  # whole frames, >= min_speech_ms
    return [SpeechSegment(s, e) for s, e in spans if e - s >= min_ms]


def vad_from_samples(pcm, cfg: VadConfig | None = None) -> ConversationTrace:
    """Segment two channels of 16kHz PCM16 audio into a conversation trace.

    pcm: pair of equal-length 1-d sample arrays (one per speaker).
    """
    cfg = cfg or VadConfig()
    if len(pcm) != 2:
        raise ValidationError("expected exactly two channels of samples")
    a, b = (np.asarray(ch) for ch in pcm)
    if a.size == 0 or b.size == 0:
        raise ValidationError("empty audio")
    if a.size != b.size:
        raise ValidationError(f"channel lengths differ: {a.size} vs {b.size}")
    duration_ms = (a.size // FRAME_SAMPLES) * FRAME_MS
    if duration_ms == 0:
        raise ValidationError("audio shorter than one 20ms frame")
    return ConversationTrace([_segment_channel(x, cfg) for x in (a, b)], duration_ms)


def read_wav(path):
    """Read a PCM16 WAV file -> (samples[n] or samples[n, ch], sample_rate).

    A file cut short inside its data keeps its whole frames; one that is no
    WAV, or ends inside its header, is a ValidationError.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getsampwidth() != 2:
                raise ValidationError(f"{path}: expected 16-bit PCM")
            rate = wf.getframerate()
            n_channels = wf.getnchannels()
            raw = wf.readframes(wf.getnframes())
    # EOFError, or RuntimeError for a chunk longer than the file: it ends inside its header
    except (wave.Error, EOFError, RuntimeError) as exc:
        reason = str(exc) or "it ends inside its header"
        raise ValidationError(f"{path}: not a WAV file: {reason}") from None
    raw = raw[: len(raw) - len(raw) % (2 * n_channels)]
    samples = np.frombuffer(raw, dtype="<i2")
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels)
    return samples, rate


def load_conversation_audio(stereo_path=None, mono_paths=None):
    """Load speaker channels from one stereo WAV or two mono WAVs."""
    if (stereo_path is None) == (mono_paths is None):
        raise ValidationError("give either a stereo file or two mono files")
    if stereo_path is not None:
        samples, rate = read_wav(stereo_path)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValidationError(f"{stereo_path}: expected 2 channels")
        a, b = samples[:, 0], samples[:, 1]
    else:
        path_a, path_b = mono_paths
        a, rate = read_wav(path_a)
        b, rate_b = read_wav(path_b)
        if a.ndim != 1 or b.ndim != 1:
            raise ValidationError("mono files must have a single channel")
        if rate != rate_b:
            raise ValidationError(f"sample rates differ: {rate} vs {rate_b}")
    if rate != SAMPLE_RATE:
        raise ValidationError(f"expected {SAMPLE_RATE}Hz audio, got {rate}Hz")
    return a, b

