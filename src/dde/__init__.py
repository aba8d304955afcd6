"""dde: a full-duplex spoken-dialogue engine and evaluation toolkit.

Conversations are two-channel traces of speech segments on a 20ms frame grid.
The package labels dialogue-manager actions at every 160ms tick, tokenizes
discrete speech units (dedup + BPE), simulates policy-driven self-chats, and
computes conversational-structure analytics (turns, pauses, gaps, overlaps,
backchannels).
"""

from types import ModuleType as _ModuleType

from .analytics import (
    ClassReport,
    ConversationReport,
    NaturalnessStats,
    TurnStructure,
    classification_report,
    conversation_report,
    cross_channel_events,
    f1_score,
    naturalness_report,
    turn_structure,
)
from .errors import (
    DuplexError,
    PolicyContractViolation,
    ValidationError,
)
from .labeler import (
    Action,
    TrainingSample,
    build_samples,
    encode_target,
    label_sequence,
    label_tick,
)
from .segments import (
    FRAME_MS,
    TICK_MS,
    ConversationTrace,
    EventCounts,
    FrameGrid,
    SpeechSegment,
    build_trace,
    frame_grid,
    read_trace,
    speaker_index,
    window,
    write_trace,
)
from .simulate import (
    AgentState,
    CascadedConfig,
    CorpusResponse,
    LogNormalResponse,
    Observation,
    ScriptedConfig,
    SelfChat,
    SimRun,
    StochasticConfig,
    UniformResponse,
    cascaded_run,
    run_selfchat,
    stochastic_run,
)
from .units import (
    BpeVocab,
    bpe_decode,
    bpe_encode,
    bpe_train,
    dedup,
    unit_error_rate,
    units_duration_ms,
)
from .vad import VadConfig, vad_from_samples

__version__ = "0.1.0"

# every public name the imports above bind, so each is written once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
