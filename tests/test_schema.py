"""The JSON boundary: record round trips, private-name imports, and a fuzz of
every CLI input through `dde.cli.main`."""

import ast
import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile
import types
import typing
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import dde
from dde._schema import Record
from dde.cli import main
from dde.errors import ValidationError
from dde.simulate import ScriptedConfig

from conftest import wav_bytes

SRC = Path(dde.__file__).parent


# ------------------------------------------------------------- round trips

def _record_classes():
    found, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


# a bare `tuple` annotation says nothing about its items
FIELD_OVERRIDES = {
    (ScriptedConfig, "steps"): st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(["SIL", "CON", "SPK", "STP"]))
        | st.tuples(st.integers(0, 50), st.just("SPK"), st.none() | st.integers(1, 5000)),
        max_size=5,
    ).map(tuple),
}


def _strategy(hint, default=dataclasses.MISSING):
    """Values of type `hint`; numbers lie in [0, 2*|default| + 1], so that
    most draws pass the record's own checks."""
    if hint in (int, float):
        hi = 2 * abs(default) + 1 if isinstance(default, (int, float)) else 1000
        if hint is int:
            return st.integers(0, int(hi))
        return st.floats(0, hi, allow_nan=False, allow_infinity=False)
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(st.none() if a is type(None) else _strategy(a, default) for a in args))
    if origin is tuple:
        return st.lists(_strategy(args[0]), max_size=20).map(tuple)
    if hint is dict:
        return st.dictionaries(st.text(max_size=5), st.integers())
    if issubclass(hint, Record):
        return _record_strategy(hint)
    raise TypeError(f"no strategy for {hint!r}")


def _record_strategy(cls):
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        drawn = FIELD_OVERRIDES.get((cls, f.name))
        if drawn is None:
            drawn = _strategy(hints[f.name], f.default)
        kwargs[f.name] = drawn if f.default is dataclasses.MISSING else st.just(f.default) | drawn

    @st.composite
    def build(draw):
        values = {name: draw(strategy) for name, strategy in kwargs.items()}
        try:
            return cls(**values)
        except ValidationError:
            assume(False)

    return build()


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
def test_every_record_round_trips(cls):
    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_record_strategy(cls))
    def round_trip(record):
        data = json.loads(json.dumps(record.to_dict()))
        assert cls.from_dict(data, "record") == record

    round_trip()


def test_record_classes_are_found():
    names = {cls.__name__ for cls in _record_classes()}
    assert {"EventCounts", "VadConfig", "ConversationReport", "ScriptedConfig"} <= names


# ------------------------------------------------------- module boundaries

SIBLINGS = {p.stem for p in SRC.glob("*.py")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_names, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name in SIBLINGS:  # from . import x
                    module_names.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_names
            and node.attr.startswith("_")
        ):
            private.append(f"{node.value.id}.{node.attr}")
    assert private == []


# --------------------------------------------------------------- CLI fuzz

SEGMENT = {
    "start_ms": 0, "end_ms": 160, "units": [7, 8, 7, 8, 9, 9, 9, 9], "words": 2,
    "events": {"fillers": 1, "repetitions": 0, "laughs": 0, "breaths": 1},
}
SAMPLES = [
    {"agent": "A", "tick_index": 0, "action": "SPK"},
    {"agent": "B", "tick_index": 1, "action": "SIL"},
]
# Durations stay at 1.6 s of simulated time; the mutations below cannot raise them.
JSON_INPUTS = {
    "trace.json": {
        "duration_ms": 640,
        "channels": [[SEGMENT], [{"start_ms": 320, "end_ms": 480}]],
    },
    "vocab.json": {"base_alphabet_size": 10, "merges": [[7, 8, 10]]},
    "gold.jsonl": SAMPLES,
    "pred.jsonl": SAMPLES[::-1],
    "ref.json": {
        "duration_ms": 60000, "overlaps_per_min": 5.7, "backchannels_per_min": 2,
        "pauses_per_min": 12.2, "avg_gap_ms": 393,
    },
    "run.json": {
        "seed": 1, "duration_ms": 1600, "opening_speaker": "A", "window_ms": 800,
        "agents": [
            {
                "policy": {"kind": "stochastic", "p_backchannel_per_tick": 0.5, "min_gap_ticks": 1},
                "response": {"kind": "lognormal", "mean_ms": 800.0, "min_ms": 320},
            },
            {
                "policy": {"kind": "scripted", "steps": [[0, "SIL"], [2, "SPK", 320], [5, "SPK"]]},
                "response": {"kind": "corpus", "sequences": [[1, 1, 2, 2, 3, 3, 4, 4]]},
            },
        ],
    },
    "pipeline.json": {
        "report_format": "json", "window_ms": 800,
        "sim": {"seed": 2, "duration_ms": 1600, "policy": "stochastic"},
        "bpe": {"num_merges": 2, "base_alphabet_size": 10},
        "vad": {"energy_threshold_db": 6.0, "min_speech_ms": 40, "min_gap_ms": 0},
    },
}
WAV_INPUTS = {
    "conv.wav": wav_bytes(n_channels=2, n_samples=1600),
    "a.wav": wav_bytes(n_channels=1, n_samples=1600),
    "b.wav": wav_bytes(n_channels=1, n_samples=1600),
}
COMMANDS = [
    ["simulate", "--out", "@t.json"],
    ["simulate", "--run-config", "@run.json", "--out", "@t.json"],
    ["analyze", "--trace", "@trace.json", "--compare", "@ref.json"],
    ["label", "--trace", "@trace.json", "--vocab", "@vocab.json", "--out", "@s.jsonl"],
    ["tokenize", "train", "--traces", "@trace.json", "--out", "@v.json"],
    ["tokenize", "apply", "--vocab", "@vocab.json", "--traces", "@trace.json", "--out", "@e.jsonl"],
    ["eval-actions", "--gold", "@gold.jsonl", "--predicted", "@pred.jsonl"],
    ["ingest", "--audio", "@conv.wav", "--out", "@t.json"],
    ["ingest", "--audio-a", "@a.wav", "--audio-b", "@b.wav", "--out", "@t.json"],
]
VALUES = [None, True, -1, 1.5, "x", "nan", [], {}]


def _json_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _json_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _json_paths(child, prefix + (i,))


def _serialize(name, doc) -> bytes:
    if name.endswith(".jsonl") and isinstance(doc, list):
        return "\n".join(json.dumps(rec) for rec in doc).encode()
    return json.dumps(doc).encode()


def _set(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


MUTATIONS = [
    (name, path, value)
    for name, doc in JSON_INPUTS.items()
    for path in _json_paths(doc)
    for value in VALUES
    # an absent duration takes the 30 s default
    if not (value is None and path and path[-1] == "duration_ms")
]


@st.composite
def mutated_inputs(draw):
    """All input files, one of them mutated at a JSON path or truncated."""
    files = {name: _serialize(name, doc) for name, doc in JSON_INPUTS.items()}
    files.update(WAV_INPUTS)
    if draw(st.booleans()):
        name, path, value = draw(st.sampled_from(MUTATIONS))
        files[name] = _serialize(name, _set(JSON_INPUTS[name], path, value))
    else:
        name = draw(st.sampled_from(sorted(files)))
        files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
    return name, files


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_inputs())
def test_mutated_inputs_give_an_error_line_not_a_traceback(case):
    mutated, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content)
        env = {"DDE_CONFIG": str(Path(tmp, "pipeline.json"))}
        for argv in COMMANDS:
            if mutated != "pipeline.json" and f"@{mutated}" not in argv:
                continue
            argv = [str(Path(tmp, a[1:])) if a.startswith("@") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, env), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), argv
            if code == 1:
                assert err.getvalue().startswith("error:"), (argv, err.getvalue())
