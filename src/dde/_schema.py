"""How JSON input becomes values, and how records become JSON.

Every reader here answers a bad value with ValidationError naming its JSON
path, e.g. `channels[0][3].end_ms: expected an integer, got 19.9`, so that
each entry point (traces, run configs, vocabularies, samples, reports and
$DDE_CONFIG) rejects bad input the same way; the value is repeated through
`shown`, so at most SHOWN characters of it. The file readers answer a file
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

# what a reader raises for a value it rejects; read_value names it
_REJECTED = (TypeError, ValueError, OverflowError)


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


def _as_is(value):
    return value


def read_json_lines(path, what: str, read=_as_is):
    """(line number, read(JSON value)) per non-blank line of file `path`, streamed;
    a line that loads or read rejects is an error `<path>:<n>: <reason>`."""
    with _utf8_text(path) as fp:
        for n, line in enumerate(fp, 1):
            line = line.strip()
            if line:
                try:
                    yield n, read(loads(line, what))
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{n}: {exc}") from None


# the most characters of an input value that an error repeats
SHOWN = 40


def shown(value, render=json.dumps) -> str:
    """render(value) as an error repeats it: a rendering longer than SHOWN
    characters becomes its first SHOWN, then `…(N characters)`."""
    try:
        text = render(value)
    except ValueError:  # an int past str()'s digit limit (sys.get_int_max_str_digits); decimal has none
        from decimal import Decimal
        text = str(Decimal(value))
    return text if len(text) <= SHOWN else f"{text[:SHOWN]}…({len(text)} characters)"


def expect_object(data, path) -> None:
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(data).__name__}")


def expect_known_keys(data, known, path="") -> None:
    """Reject object `data` if it has a key outside `known`, naming the first
    such key in sorted order by its JSON path, e.g. `vad.bogus: unknown field`."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        key = shown(unknown[0], str)
        name = f"{path}.{key}" if path else key
        raise ValidationError(f"{name}: unknown field")


# the integers RFC 8259 calls interoperable: every one of them is a float too
INT_LIMIT = 2**53 - 1


def _plain_int(value) -> bool:
    """True for a value integer() returns unchanged: a plain int within ±INT_LIMIT."""
    return type(value) is int and -INT_LIMIT <= value <= INT_LIMIT


def integer(value) -> int:
    """An integer from a JSON number or numeric string: 20, 20.0 and "20" read
    as 20; booleans, non-integral numbers, integers beyond ±INT_LIMIT and
    anything else are errors, not 1, truncated or an overflow later."""
    if _plain_int(value):
        return value
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        n = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"expected an integer, got {shown(value)}") from None
    if not -INT_LIMIT <= n <= INT_LIMIT:
        raise ValueError(f"expected an integer within ±{INT_LIMIT}, got {shown(value)}")
    return n


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
    except _REJECTED:
        raise ValueError(f"expected a finite number, got {shown(value)}") from None


def number(value):
    """A finite JSON number as written (5 stays 5); booleans, strings, NaN,
    the infinities and integers beyond ±INT_LIMIT are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {shown(value)}")
    return finite_float(value) if isinstance(value, float) else integer(value)


def one_of(*choices):
    """A reader that accepts only the given strings."""
    def read(value):
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {shown(value)}")
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


class UnitIds(tuple):
    """Unit ids as unit_ids returns them: a record that holds them has them
    read already, and reads them no further."""

    __slots__ = ()


class _UnsignedIds(UnitIds):
    """UnitIds that unit_ids found none negative of, so that non_negative
    takes their min no second time."""

    __slots__ = ()


def unit_ids(value) -> UnitIds:
    """Unit ids from a JSON list, each read as integer() reads it; a string is
    an error, not a list of digits. A list of ints within ±INT_LIMIT, the
    common case, is checked by its type set, min and max alone."""
    ids = items(value)
    if ids and set(map(type, ids)) == {int} and max(ids) <= INT_LIMIT:
        least = min(ids)
        if least >= 0:
            return _UnsignedIds(ids)
        if least >= -INT_LIMIT:
            return UnitIds(ids)
    return UnitIds(items(ids, read=integer))


def non_negative(ids: UnitIds) -> UnitIds:
    """ids, when none of them is negative: raw unit ids, as a segment's units
    and a corpus response's sequences hold them."""
    if type(ids) is _UnsignedIds:
        return ids
    if ids and min(ids) < 0:
        raise ValidationError("unit ids must be non-negative")
    return ids


def read_value(value, name, read):
    """read(value); a value it rejects is a ValidationError `<name>: <reason>`."""
    try:
        return read(value)
    except _REJECTED as exc:
        raise ValidationError(f"{name}: {exc}") from None


def read_field(data, key, path="", convert=integer, default=_REQUIRED):
    """convert(data[key]); an absent or null key gives `default`. Bad values
    raise ValidationError naming the JSON path, e.g. channels[0][3].end_ms,
    a name formatted only then."""
    value = data.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ValidationError(f"{f'{path}.{key}' if path else key}: missing")
        return default
    try:
        return convert(value)
    except _REJECTED:  # read_value converts it again, and names the rejection
        return read_value(value, f"{path}.{key}" if path else key, convert)


def section(cfg, key) -> dict:
    """The pipeline config's `key` object, {} when absent."""
    value = cfg.get(key, {})
    expect_object(value, key)
    return value


def _reader(hint, default):
    """(reader, default, unchanged) for a field annotated `hint`. The reader
    is a Record class for a nested record, else a converter. `X | None` reads
    as X, and null or absent as the default, None when the field has none.
    `unchanged` tests for a value the reader returns as it is, or is None."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
        default = None if default is MISSING else default
    read = {int: integer, float: finite_float, tuple[int, ...]: unit_ids}.get(hint, _as_is)
    if isinstance(hint, type) and issubclass(hint, Record):
        read = hint
    return read, _REQUIRED if default is MISSING else default, _plain_int if read is integer else None


@cache
def _plan(cls):
    hints = typing.get_type_hints(cls)
    return tuple((f.name, *_reader(hints[f.name], f.default)) for f in fields(cls))


def read_record(cls, data, path):
    """Dataclass `cls` with each field read from `data` by read_field: `int`,
    `float` and `tuple[int, ...]` fields through integer, finite_float and
    unit_ids, nested records by their own from_dict, other types as given
    (cls validates them). Absent fields take their default, and a value its
    reader would return unchanged, such as an in-bound int, is taken at once;
    unknown keys are ignored."""
    expect_object(data, path)
    kwargs = {}
    for name, read, default, unchanged in _plan(cls):
        value = data.get(name)
        if value is None and default is not _REQUIRED:  # as read_field would give it
            kwargs[name] = default
        elif unchanged is not None and unchanged(value):
            kwargs[name] = value
        elif isinstance(read, type):
            kwargs[name] = read.from_dict(read_field(data, name, path, _as_is), f"{path}.{name}")
        else:
            kwargs[name] = read_field(data, name, path, read)
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
    """A dataclass whose JSON form is its fields, in declaration order, and
    whose JSON text is that form with sorted keys."""

    def to_dict(self):
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data, path=None):
        return read_record(cls, data, cls.__name__ if path is None else path)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(loads(text, f"{cls.__name__} JSON"))
