"""The line-reach report's bookkeeping, checked on a small traced function."""

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
