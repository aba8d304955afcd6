"""The reach report's bookkeeping, checked on small traced and instrumented functions."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"

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


def test_reports_each_statement_none_of_whose_lines_ran():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    tracer = reach.LineTracer(["sample.py"])
    namespace = {}
    previous = sys.gettrace()  # the report's own tracer, when it runs this test
    sys.settrace(tracer)
    try:
        exec(compile(SAMPLE, "sample.py", "exec"), namespace)
        assert namespace["clip"](None, 1) == 0
    finally:
        sys.settrace(previous)
    # the condition cut short at line 3 and the `if (` line are not reported
    assert reach.never_run(SAMPLE, "sample.py", tracer.ran["sample.py"]) == [(6, False), (8, True)]


CONDITIONS = '''\
def grade(x, y):
    while True:
        if x > 0 and not (
            y is None or y < 0
        ):
            return "up"
        return "down" if x < 0 else "flat"
'''


def _run_grade(code, namespace, tracer):
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        exec(code, namespace)
        return namespace["grade"](1, 2), namespace["grade"](-1, None)
    finally:
        sys.settrace(previous)


def test_reports_each_condition_seen_only_one_way():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    outcomes = reach.Outcomes(["sample.py"])
    plain, instrumented = reach.LineTracer(["sample.py"]), reach.LineTracer(["sample.py"])
    code = outcomes.instrument(CONDITIONS, "sample.py")
    assert _run_grade(compile(CONDITIONS, "sample.py", "exec"), {}, plain) == ("up", "down")
    assert _run_grade(code, {reach.RECORDER: outcomes}, instrumented) == ("up", "down")
    # the recorder keeps every line where it was: the line report still holds
    assert instrumented.ran == plain.ran
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
