"""Shared generators for randomized suites."""

import io
import wave

import numpy as np
import pytest
from hypothesis import strategies as st

from dde import ConversationTrace, EventCounts, SpeechSegment, build_trace


def random_trace(
    rng: np.random.Generator,
    max_duration_ms: int = 60000,
    align_ms: int = 20,
    p_empty_channel: float = 0.1,
    with_units: bool = False,
    base_alphabet: int = 50,
) -> ConversationTrace:
    """Uniform random segment layouts, boundaries on the align_ms lattice."""
    duration = align_ms * int(rng.integers(1, max_duration_ms // align_ms + 1))
    events = []
    for ch in (0, 1):
        if rng.random() < p_empty_channel:
            continue
        t = align_ms * int(rng.integers(0, 40))
        while t < duration:
            # mix of short bursts and long stretches
            if rng.random() < 0.4:
                seg_len = align_ms * int(rng.integers(1, 30))
            else:
                seg_len = align_ms * int(rng.integers(10, 200))
            end = min(t + seg_len, duration)
            if end > t:
                units = None
                if with_units and align_ms % 20 == 0:
                    n = (end - t) // 20
                    units = tuple(int(u) for u in rng.integers(0, base_alphabet, n))
                events.append((ch, SpeechSegment(t, end, units=units)))
            gap = align_ms * int(rng.integers(1, 60))
            t = end + gap
    return build_trace(events, duration)


def random_unaligned_trace(rng: np.random.Generator, max_duration_ms: int = 30000):
    """Arbitrary-millisecond boundaries (valid, just not frame-aligned)."""
    return random_trace(rng, max_duration_ms=max_duration_ms, align_ms=1)


@st.composite
def annotated_channel(draw):
    """Sorted segments, each on or off the 20ms grid; on-grid ones may carry
    units, and any may carry word and event counts."""
    segs = []
    t = draw(st.integers(0, 400))
    for _ in range(draw(st.integers(0, 6))):
        units = None
        if draw(st.booleans()):
            t = -(-t // 20) * 20
            length = 20 * draw(st.integers(1, 40))
            if draw(st.booleans()):
                units = draw(st.lists(st.integers(0, 600), min_size=length // 20,
                                      max_size=length // 20))
        else:
            length = draw(st.integers(1, 800))
        segs.append(SpeechSegment(
            t, t + length, units=units,
            words=draw(st.none() | st.integers(0, 30)),
            events=draw(st.none() | st.builds(EventCounts, *[st.integers(0, 3)] * 4)),
        ))
        t += length + draw(st.integers(1, 600))
    return segs


@st.composite
def annotated_traces(draw):
    channels = (draw(annotated_channel()), draw(annotated_channel()))
    end = max([ch[-1].end_ms for ch in channels if ch], default=0)
    duration = max(160, end + draw(st.integers(0, 500)))
    return ConversationTrace(channels=channels, duration_ms=duration)


def wav_bytes(n_channels=2, n_samples=3200, rate=16000, sample_width=2) -> bytes:
    """A silent PCM WAV file, 16kHz PCM16 by default."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(n_channels)
        wf.setsampwidth(sample_width)
        wf.setframerate(rate)
        wf.writeframes(bytes(sample_width * n_channels * n_samples))
    return buf.getvalue()


def write_wav(path, channels) -> None:
    """Write PCM16 16kHz audio; channels is one or two equal-length arrays."""
    data = np.stack([np.asarray(ch, dtype="<i2") for ch in channels], axis=1)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(data.shape[1])
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(data.tobytes())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
