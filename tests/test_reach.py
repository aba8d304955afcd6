"""The reach report's bookkeeping, checked on small instrumented functions."""

import importlib.util
import traceback
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


@pytest.fixture
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load(reach, source):
    """(outcomes, namespace) of `source` run as module sample.py through the hook."""
    outcomes = reach.Outcomes(["sample.py"])
    namespace = {"__name__": "sample", reach.RECORDER: outcomes}
    exec(outcomes.instrument(source, "sample.py"), namespace)
    return outcomes, namespace


def _never_run(outcomes):
    return [(line, is_raise) for _, line, is_raise in outcomes.never_run()]


SAMPLE = '''\
def clip(x, y):
    if (
        x is not None
        and y > 0
    ):
        return y
    if y is None:
        raise ValueError(
            "no y"
        )
    return 0
'''


CONDITIONS = '''\
def grade(x, y):
    while True:
        if x > 0 and not (
            y is None or y < 0
        ):
            return "up"
        return "down" if x < 0 else "flat"
'''


def test_reports_each_statement_none_of_whose_lines_ran(reach):
    outcomes, namespace = _load(reach, SAMPLE)
    assert namespace["clip"](None, 1) == 0
    # the condition cut short at line 3 and the `if (` line are not reported
    assert _never_run(outcomes) == [(6, False), (8, True)]


def _lines(code) -> set[int]:
    """The lines holding instructions of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _lines(const)
    return lines


def _raised_at(function, *args) -> list[int]:
    try:
        function(*args)
    except Exception as exc:
        return [frame.lineno for frame in traceback.extract_tb(exc.__traceback__)[1:]]
    raise AssertionError("no exception")


@pytest.mark.parametrize(
    "source, function, args, lines, starts_without_code",
    [
        # `y > 0` fails at line 4; the raise is at line 8, with its call's arguments below it
        (SAMPLE, "clip", [(1, None), (None, None)], [[4], [8]], {2}),
        (CONDITIONS, "grade", [("x", 1)], [[3]], set()),
    ],
)
def test_instrumented_code_keeps_the_lines_of_the_plain_code(reach, source, function, args, lines,
                                                              starts_without_code):
    outcomes, instrumented = _load(reach, source)
    plain = {}
    exec(compile(source, "sample.py", "exec"), plain)
    assert [_raised_at(plain[function], *a) for a in args] == lines
    assert [_raised_at(instrumented[function], *a) for a in args] == lines
    # every instruction stays on its line; the recorders add only the first
    # line of a statement that held none, such as an `if (`
    starts = {node.lineno for _, node, _ in outcomes.statements.outcomes()}
    plain_lines = _lines(compile(source, "sample.py", "exec"))
    assert _lines(outcomes.instrument(source, "sample.py")) == plain_lines | starts
    assert starts - plain_lines == starts_without_code


UNREACHED = '''\
"""A module docstring stays the docstring."""
from __future__ import annotations


def early(x):
    if x:
        return 1
    x = 2
    return x


def handler(x):
    try:
        return int(x)
    except ValueError:
        raise TypeError("not a number") from None


def ladder(x):
    if x > 0:
        return 1
    elif x < 0:
        return -1
    return 0


class Box:
    """A class docstring too."""

    def get(self):
        """And a method's."""
        return 1


def dropped():
    if False:
        x = 1
    return 2
    x = 3


if __name__ == "__main__":
    print("main")
'''


def test_reports_the_statements_a_line_tracer_reports(reach):
    outcomes, namespace = _load(reach, UNREACHED)
    calls = namespace["early"](1), namespace["handler"]("1"), namespace["ladder"](1), namespace["dropped"]()
    assert calls == (1, 1, 1, 2)
    assert namespace["__doc__"] == "A module docstring stays the docstring."
    assert namespace["Box"].__doc__ == "A class docstring too."
    assert namespace["Box"].get.__doc__ == "And a method's."
    # a line tracer sees the same statements unrun: a statement after an
    # early return, a raise in an except body, an elif and its branches, a
    # method body and the __main__ body; lines 37 and 39, which the compiler
    # drops, are reported too, where a line tracer never sees them
    assert _never_run(outcomes) == [
        (8, False), (9, False), (16, True), (22, False), (23, False), (24, False),
        (32, False), (37, False), (39, False), (43, False),
    ]


def test_reports_each_condition_seen_only_one_way(reach):
    outcomes, namespace = _load(reach, CONDITIONS)
    assert (namespace["grade"](1, 2), namespace["grade"](-1, None)) == ("up", "down")
    # a second load, as runpy makes, adds to the first load's conditions
    again = {reach.RECORDER: outcomes}
    exec(outcomes.instrument(CONDITIONS, "sample.py"), again)
    assert again["grade"](0, None) == "flat"
    # `while True` is not a condition, nor the `or` that `not` inverts;
    # `x > 0 and not ...`, `x > 0` and `x < 0` went both ways
    assert outcomes.one_way({"sample.py": CONDITIONS}) == [
        ("sample.py", 3, "not (\n            y is None or y < 0\n        )", "only true"),
        ("sample.py", 4, "y is None", "only false"),
        ("sample.py", 4, "y < 0", "only false"),
    ]
    assert _never_run(outcomes) == []
