"""The JSON boundary: record round trips, private-name imports, the package's
public names and version, the names the benchmark tracer patches, streamed
JSON lines, and a fuzz of every CLI input through `dde.cli.main`."""

import ast
import contextlib
import copy
import dataclasses
import importlib
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
from dde._schema import Record, integer, number, read_json_lines, read_value, shown
from dde.cli import main
from dde.errors import ValidationError
from dde.segments import FRAME_MS, ConversationTrace, SpeechSegment
from dde.simulate import ScriptedConfig
from dde.units import BpeVocab

from conftest import wav_bytes

SRC = Path(dde.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"


# ------------------------------------------------------------- round trips

def _record_classes():
    found, todo = set(), list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _units(drawn):
    """One unit id per frame of the segment drawn so far."""
    n = (drawn["end_ms"] - drawn["start_ms"]) // FRAME_MS
    return st.lists(st.integers(0, 99), min_size=n, max_size=n).map(tuple)


def _disjoint(segments):
    """The segments sorted by start, each one that overlaps or touches the
    last kept one left out."""
    kept = []
    for seg in sorted(segments, key=lambda s: s.start_ms):
        if not kept or seg.start_ms > kept[-1].end_ms:
            kept.append(seg)
    return tuple(kept)


@st.composite
def _merges(draw, base):
    """Merges valid over a base alphabet of `base` ids, none over an empty
    one: operands among the ids made so far, new ids consecutive from `base`."""
    n = draw(st.integers(0, 30)) if base > 0 else 0
    return tuple(
        (draw(st.integers(0, new - 1)), draw(st.integers(0, new - 1)), new)
        for new in range(base, base + n)
    )


# A bare `tuple` annotation says nothing about its items, and a field checked
# against the fields before it is almost never drawn valid. An entry is a
# strategy, or a function from the fields drawn so far to one.
FIELD_OVERRIDES = {
    (ScriptedConfig, "steps"): st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(["SIL", "CON", "SPK", "STP"]))
        | st.tuples(st.integers(0, 50), st.just("SPK"), st.none() | st.integers(1, 5000)),
        max_size=5,
    ).map(tuple),
    (SpeechSegment, "start_ms"): st.integers(0, 100).map(FRAME_MS.__mul__),
    (SpeechSegment, "end_ms"): lambda drawn: st.integers(1, 25).map(
        lambda n: drawn["start_ms"] + n * FRAME_MS),
    (SpeechSegment, "units"): _units,
    (ConversationTrace, "channels"): st.deferred(lambda: st.tuples(
        *[st.lists(_record_strategy(SpeechSegment), max_size=8).map(_disjoint)] * 2)),
    (ConversationTrace, "duration_ms"): lambda drawn: st.integers(0, 1000).map(
        max((ch[-1].end_ms for ch in drawn["channels"] if ch), default=0).__add__),
    (BpeVocab, "merges"): lambda drawn: _merges(drawn["base_alphabet_size"]),
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
    """Records of `cls`, their fields drawn in declaration order; a field with
    a default draws it too."""
    hints = typing.get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        drawn = FIELD_OVERRIDES.get((cls, f.name))
        if drawn is None:
            drawn = _strategy(hints[f.name], f.default)
        plan.append((f.name, f.default, drawn))

    @st.composite
    def build(draw):
        values = {}
        for name, default, drawn in plan:
            if callable(drawn):
                drawn = drawn(values)
            if default is not dataclasses.MISSING:
                drawn = st.just(default) | drawn
            values[name] = draw(drawn)
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
    assert {
        "EventCounts", "VadConfig", "ConversationReport", "ScriptedConfig",
        "ConversationTrace", "SpeechSegment", "BpeVocab",
    } <= names


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


def test_star_import_binds_the_public_names_of_the_submodules():
    namespace = {}
    exec("from dde import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == dde.__all__
    assert len(dde.__all__) == 53
    for name in dde.__all__:
        value = getattr(dde, name)
        assert not isinstance(value, types.ModuleType), name
        assert any(
            getattr(importlib.import_module(f"dde.{m}"), name, None) is value
            for m in sorted(SIBLINGS - {"__init__"})
        ), name


def test_the_version_is_written_once():
    # read as text: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0].splitlines()
    assert not any(line.split("=")[0].strip() == "version" for line in project)
    assert 'dynamic = ["version"]' in project
    assert 'version = {attr = "dde.__version__"}' in text.splitlines()


def test_every_name_the_benchmark_tracer_patches_exists():
    # executed from source, so that no bytecode is written next to it
    spans = types.ModuleType("spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    missing = [
        f"dde.{module}.{attr}"
        for module, attr, _, _ in spans.PATCHES
        if not hasattr(importlib.import_module(f"dde.{module}"), attr)
    ]
    assert len(spans.PATCHES) > 20
    assert missing == []


# ------------------------------------------------------------ file readers

def test_json_lines_stream_until_a_non_utf8_byte(tmp_path):
    # past the first 8 KiB the file is decoded while its lines are consumed
    p = tmp_path / "doc.jsonl"
    p.write_bytes(b'{"a": 1}\r\n\n' * 2000 + b'{"a": "\xff"}\n')
    seen = []
    with pytest.raises(ValidationError, match=r"doc\.jsonl: not UTF-8 text: "):
        for item in read_json_lines(p, "doc line"):
            seen.append(item)
    # lines before the bad byte's chunk were yielded before it was read
    assert 0 < len(seen) < 2000
    assert seen == [(2 * i + 1, {"a": 1}) for i in range(len(seen))]


# --------------------------------------------------------- rejected values

def _raise(exc):
    def read(value):
        raise exc
    return read


def test_read_value_returns_what_the_reader_returns():
    assert read_value("20", "--seed", int) == 20


@pytest.mark.parametrize("exc", [TypeError("bad type"), ValueError("bad type"), OverflowError("bad type")])
def test_read_value_names_a_rejected_value(exc):
    with pytest.raises(ValidationError) as info:
        read_value(1, "steps[2]", _raise(exc))
    assert str(info.value) == "steps[2]: bad type"
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("exc", [KeyError("k"), RuntimeError("r"), RecursionError("deep")])
def test_read_value_passes_other_exceptions_through(exc):
    with pytest.raises(type(exc)) as info:
        read_value(1, "steps[2]", _raise(exc))
    assert info.value is exc


def test_shown_repeats_at_most_40_characters_of_a_value():
    assert shown("x" * 38) == '"' + "x" * 38 + '"'
    assert shown("x" * 39) == '"' + "x" * 39 + "…(41 characters)"
    assert shown(10**400) == "1" + "0" * 39 + "…(401 characters)"
    assert shown("k" * 41, str) == "k" * 40 + "…(41 characters)"


@pytest.mark.parametrize("render", [json.dumps, str, repr])
def test_shown_renders_an_int_past_the_int_to_str_digit_limit(render):
    assert shown(-(10**5000), render) == "-1" + "0" * 38 + "…(5002 characters)"


@pytest.mark.parametrize("value", [2**53 - 1, -(2**53 - 1), float(2**53 - 1), str(2**53 - 1)])
def test_integer_reads_up_to_2_53_minus_1(value):
    assert integer(value) == int(value)


@pytest.mark.parametrize("value", [2**53 - 1, -(2**53 - 1)])
def test_number_keeps_integers_up_to_2_53_minus_1(value):
    assert number(value) == value


@pytest.mark.parametrize("value", [2**53, -(2**53), 2.0**53, 1e308, str(2**53), 10**400])
def test_integer_rejects_beyond_2_53_minus_1(value):
    with pytest.raises(ValueError, match=r"^expected an integer within ±9007199254740991, got "):
        integer(value)


@pytest.mark.parametrize("value", [2**53, -(2**53), 10**309])
def test_number_reads_integers_through_integer(value):
    with pytest.raises(ValueError, match=r"^expected an integer within ±9007199254740991, got "):
        number(value)


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
    """All input files, one of them mutated at a JSON path, truncated, or with
    one byte replaced by 0xff, which is never UTF-8."""
    files = {name: _serialize(name, doc) for name, doc in JSON_INPUTS.items()}
    files.update(WAV_INPUTS)
    how = draw(st.sampled_from(["json path", "truncate", "0xff"]))
    if how == "json path":
        name, path, value = draw(st.sampled_from(MUTATIONS))
        files[name] = _serialize(name, _set(JSON_INPUTS[name], path, value))
    else:
        name = draw(st.sampled_from(sorted(files)))
        at = draw(st.integers(0, len(files[name]) - 1))
        tail = b"" if how == "truncate" else b"\xff" + files[name][at + 1:]
        files[name] = files[name][:at] + tail
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
