"""How JSON input becomes values, and how records become JSON.

Every reader here answers a bad value with ValidationError naming its JSON
path, e.g. `channels[0][3].end_ms: expected an integer, got 19.9`, so that
each entry point (traces, run configs, vocabularies, samples, reports and
$DDE_CONFIG) rejects bad input the same way. The file readers answer a file
that is not UTF-8 text with a ValidationError naming the file.
"""

from __future__ import annotations

import json
import math
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import cache

from .errors import ValidationError

_REQUIRED = object()


def loads(text: str, what: str):
    """json.loads(text); text it cannot decode is a ValidationError naming
    `what`: bad syntax, an integer over Python's digit limit, or nesting
    deeper than the recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


@contextmanager
def _utf8_text(path):
    """The file as UTF-8 text; bytes that are not UTF-8 raise ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            yield fp
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason} (0x{bad:02x})") from None


def read_json(path, what: str):
    """The JSON document in file `path`, decoded by loads."""
    with _utf8_text(path) as fp:
        return loads(fp.read(), what)


def read_json_lines(path, what: str):
    """(line number, JSON value) per non-blank line of file `path`, streamed."""
    with _utf8_text(path) as fp:
        for n, line in enumerate(fp, 1):
            line = line.strip()
            if line:
                yield n, loads(line, what)


def expect_object(data, path) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(data).__name__}")


def expect_known_keys(data, known, path="") -> None:
    """Reject object `data` if it has a key outside `known`, naming the first
    such key in sorted order by its JSON path, e.g. `vad.bogus: unknown field`."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        name = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ValidationError(f"{name}: unknown field")


def integer(value) -> int:
    """An integer from a JSON number or numeric string: 20, 20.0 and "20" read
    as 20; booleans, non-integral numbers and anything else are errors, not 1
    or truncated."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {json.dumps(value)}") from None


def at_least(minimum: int):
    """A reader of integers no smaller than `minimum`."""
    def read(value):
        n = integer(value)
        if n < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {n}")
        return n
    return read


def finite_float(value) -> float:
    """A float from a JSON number or numeric string; booleans, NaN, the
    infinities and anything else are errors, not 1.0 or a value no parameter
    can take."""
    try:
        if isinstance(value, bool) or not math.isfinite(float(value)):
            raise ValueError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected a finite number, got {json.dumps(value)}") from None


def number(value):
    """A finite JSON number as written (5 stays 5); booleans, strings, NaN and
    the infinities are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    return finite_float(value) if isinstance(value, float) else value


def one_of(*choices):
    """A reader that accepts only the given strings."""
    def read(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {json.dumps(value)}")
        return value
    return read


def items(value, path=None, read=None) -> tuple:
    """The items of JSON list `value`, each through read(item), or with `path`
    through read(item, f"{path}[i]"). Anything else is `expected a list`, not
    its characters or keys: a ValueError, or a ValidationError naming `path`."""
    if not isinstance(value, (list, tuple)):
        raise ValueError("expected a list") if path is None else ValidationError(f"{path}: expected a list")
    if read is None:
        return tuple(value)
    if path is None:
        return tuple(map(read, value))
    return tuple(read(item, f"{path}[{i}]") for i, item in enumerate(value))


def unit_ids(value) -> tuple[int, ...]:
    """Unit ids from a JSON list; a string is an error, not a list of digits."""
    ids = items(value)
    return ids if set(map(type, ids)) <= {int} else items(ids, read=integer)


def _as_is(value):
    return value


def read_field(data, key, path="", convert=integer, default=_REQUIRED):
    """convert(data[key]); an absent or null key gives `default`. Bad values
    raise ValidationError naming the JSON path, e.g. channels[0][3].end_ms."""
    name = f"{path}.{key}" if path else key
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"{name}: missing")
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: {exc}") from None


def section(cfg, key) -> dict:
    """The pipeline config's `key` object, {} when absent."""
    value = cfg.get(key, {})
    expect_object(value, key)
    return value


def _reader(hint, default):
    """(reader, default) for a field annotated `hint`. The reader is a Record
    class for a nested record, else a converter. `X | None` reads as X, and
    null or absent as the default, None when the field has none."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and len(args) == 1:
        hint = args[0]
        default = None if default is MISSING else default
    read = {int: integer, float: finite_float, tuple[int, ...]: unit_ids}.get(hint, _as_is)
    if isinstance(hint, type) and issubclass(hint, Record):
        read = hint
    return read, _REQUIRED if default is MISSING else default


@cache
def _plan(cls):
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_reader(hints[f.name], f.default)) for f in fields(cls))


def read_record(cls, data, path):
    """Dataclass `cls` with each field read from `data` by read_field: `int`,
    `float` and `tuple[int, ...]` fields through integer, finite_float and
    unit_ids, nested records by their own from_dict, other types as given
    (cls validates them). Absent fields take their default; unknown keys are
    ignored."""
    expect_object(data, path)
    kwargs = {}
    for name, read, default in _plan(cls):
        if isinstance(read, type):
            value = read_field(data, name, path, _as_is, default)
            kwargs[name] = value if value is default else read.from_dict(value, f"{path}.{name}")
        else:
            kwargs[name] = read_field(data, name, path, read, default)
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _json_value(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


class Record:
    """A dataclass whose JSON form is its fields, in declaration order."""

    def to_dict(self):
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data, path=None):
        return read_record(cls, data, cls.__name__ if path is None else path)
