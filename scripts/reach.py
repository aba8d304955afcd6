#!/usr/bin/env python3
"""Which statements of src/dde does the Tier-1 suite never run?

Runs the tests in-process under sys.settrace and prints each statement of
src/dde none of whose executable lines ran, `raise` statements first, as
`path:line: source`. Executable lines come from the compiled code objects
(co_lines), so a line with no instruction of its own, such as the `if (` of a
multi-line condition, is never reported; a statement counts as run when any
of its lines ran, so a condition cut short by `and` is not reported either.

    python3 scripts/reach.py [pytest arguments]   # from the root of a checkout

Failing tests are listed but do not stop the report: a wall-time bound can
fail under tracing. This is a report, not a gate; it exits 0 whenever the
suite could be run.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dde"


def executable_lines(code) -> set[int]:
    """The lines holding instructions of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= executable_lines(const)
    return lines


def never_run(source: str, filename: str, ran: set[int]) -> list[tuple[int, bool]]:
    """(first line, is a raise) of each statement in `source` that has
    executable lines and none of them in `ran`, in line order."""
    tree = ast.parse(source, filename)
    owner = {}  # line -> first line of the innermost statement spanning it
    raises = set()
    for node in ast.walk(tree):  # breadth first: inner statements come later
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node.lineno
            if isinstance(node, ast.Raise):
                raises.add(node.lineno)
    reached = defaultdict(bool)
    for line in executable_lines(compile(source, filename, "exec", dont_inherit=True)):
        reached[owner.get(line, line)] |= line in ran
    return [(line, line in raises) for line, hit in sorted(reached.items()) if not hit]


class LineTracer:
    """Records the lines run in the given files; other code runs untraced."""

    def __init__(self, filenames):
        self.ran = {name: set() for name in filenames}

    def __call__(self, frame, event, arg):
        lines = self.ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


class FailedTests:
    """pytest plugin: the node ids of failed tests and collection errors."""

    def __init__(self):
        self.ids = []
        self.run = 0

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.run += 1
        if report.failed:
            self.ids.append(report.nodeid)

    def pytest_collectreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


def main(argv) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    sys.path.insert(0, str(PACKAGE.parent))
    tracer, failed = LineTracer(files), FailedTests()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *argv], plugins=[failed])
    finally:
        replaced = sys.gettrace() is not tracer
        sys.settrace(None)
        threading.settrace(None)
    if code in (pytest.ExitCode.INTERRUPTED, pytest.ExitCode.INTERNAL_ERROR, pytest.ExitCode.USAGE_ERROR):
        return int(code)
    print(f"\nreach: {failed.run} tests run, {len(failed.ids)} failed")
    for nodeid in failed.ids:
        print(f"  failed: {nodeid}")
    if replaced:
        print("  warning: a test replaced the line tracer; lines it ran after that are missing")
    rows = []
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line, is_raise in never_run(source, name, tracer.ran[name]):
            rows.append((not is_raise, path.relative_to(ROOT), line, text[line - 1].strip()))
    rows.sort()
    n_raise = sum(not r[0] for r in rows)
    print(f"never run in src/dde: {len(rows)} statements, {n_raise} of them raise")
    for _, path, line, text in rows:
        print(f"{path}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
