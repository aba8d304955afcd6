"""dde: a full-duplex spoken-dialogue engine and evaluation toolkit.

Conversations are two-channel traces of speech segments on a 20ms frame grid.
The package labels dialogue-manager actions at every 160ms tick, tokenizes
discrete speech units (dedup + BPE), simulates policy-driven self-chats, and
computes conversational-structure analytics (turns, pauses, gaps, overlaps,
backchannels).
"""

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
    MissingInputError,
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

__all__ = [
    "Action",
    "AgentState",
    "BpeVocab",
    "CascadedConfig",
    "ClassReport",
    "ConversationReport",
    "ConversationTrace",
    "CorpusResponse",
    "DuplexError",
    "EventCounts",
    "FRAME_MS",
    "FrameGrid",
    "LogNormalResponse",
    "MissingInputError",
    "NaturalnessStats",
    "Observation",
    "PolicyContractViolation",
    "ScriptedConfig",
    "SelfChat",
    "SimRun",
    "SpeechSegment",
    "StochasticConfig",
    "TICK_MS",
    "TrainingSample",
    "TurnStructure",
    "UniformResponse",
    "VadConfig",
    "ValidationError",
    "bpe_decode",
    "bpe_encode",
    "bpe_train",
    "build_samples",
    "build_trace",
    "cascaded_run",
    "classification_report",
    "conversation_report",
    "cross_channel_events",
    "dedup",
    "encode_target",
    "f1_score",
    "frame_grid",
    "label_sequence",
    "label_tick",
    "naturalness_report",
    "read_trace",
    "run_selfchat",
    "speaker_index",
    "stochastic_run",
    "turn_structure",
    "unit_error_rate",
    "units_duration_ms",
    "vad_from_samples",
    "window",
    "write_trace",
]
