#!/usr/bin/env python3
"""Which statements of src/dde does the Tier-1 suite never run, and which
conditions does it take only one way?

Runs the tests in-process under sys.settrace and prints each statement of
src/dde none of whose executable lines ran, `raise` statements first, as
`path:line: source`. Executable lines come from the compiled code objects
(co_lines), so a line with no instruction of its own, such as the `if (` of a
multi-line condition, is never reported; a statement counts as run when any
of its lines ran, so a condition cut short by `and` is not reported either.

Conditions are seen through an import hook that loads src/dde with each
`if`/`while` test, each conditional-expression test and each `and`/`or`
operand inside such a test (looking through `not`) wrapped in a recorder,
on the lines they were written on. After the statement report it prints
each of them that was only true, only false or never evaluated, as
`path:line: source: outcome`.

    python3 scripts/reach.py [pytest arguments]   # from the root of a checkout

Failing tests are listed but do not stop the report: a wall-time bound can
fail under tracing. The script exits 0 whenever the suite could be run; CI
fails unless its summary line ends "0 of them raise".
"""

import ast
import builtins
import importlib.machinery
import importlib.util
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


RECORDER = "__reach_test__"  # a builtin while the hook is installed


class Conditions(ast.NodeTransformer):
    """Rewrites each condition `test` of a module as RECORDER(i, test), which
    records whether it was true and returns it; the `and`/`or` operands in a
    condition, looking through `not`, are rewritten too. number(node) gives i."""

    def __init__(self, number):
        self.number = number

    def wrap(self, node):
        self.operands(node)
        call = ast.Call(ast.Name(RECORDER, ast.Load()), [ast.Constant(self.number(node)), node], [])
        return ast.copy_location(call, node)

    def operands(self, node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self.operands(node.operand)
        elif isinstance(node, ast.BoolOp):
            node.values = [self.wrap(v) for v in node.values]

    def visit_If(self, node):
        self.generic_visit(node)
        if not isinstance(node.test, ast.Constant):  # `while True` has one way only
            node.test = self.wrap(node.test)
        return node

    visit_While = visit_IfExp = visit_If


def _place(path, node):
    """Source order, each condition before the operands it holds."""
    return path, node.lineno, node.col_offset, -node.end_lineno, -node.end_col_offset


class Outcomes:
    """The recorder, and an import hook that instruments the given files with
    it. seen[i] has bit 1 once condition i was true and bit 2 once false; a
    file run again, as runpy does, shares the indices of its first load."""

    def __init__(self, filenames):
        self.files, self.index, self.found, self.seen = set(filenames), {}, [], bytearray()

    def __call__(self, i, value):
        self.seen[i] |= 1 if value else 2
        return value

    def find_spec(self, name, path=None, target=None):
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.origin in self.files:
            spec.loader = Loader(name, spec.origin, self)
            return spec
        return None

    def instrument(self, source: str, path: str):
        def number(node):
            place = _place(path, node)
            if place not in self.index:
                self.index[place] = len(self.found)
                self.found.append((path, node))
                self.seen.append(0)
            return self.index[place]

        tree = Conditions(number).visit(ast.parse(source, path))
        return compile(ast.fix_missing_locations(tree), path, "exec", dont_inherit=True)

    def one_way(self, sources) -> list[tuple[str, int, str, str]]:
        """(path, line, source, outcome) per condition not seen both ways, in source order."""
        outcome = {0: "never evaluated", 1: "only true", 2: "only false"}
        rows = []
        for _, i in sorted(self.index.items()):
            path, node = self.found[i]
            if self.seen[i] != 3:
                text = ast.get_source_segment(sources[path], node)
                rows.append((path, node.lineno, text, outcome[self.seen[i]]))
        return rows


class Loader(importlib.machinery.SourceFileLoader):
    """Loads a file through Outcomes.instrument, never from or to a bytecode cache."""

    def __init__(self, name, path, outcomes):
        super().__init__(name, path)
        self.outcomes = outcomes

    def get_code(self, fullname):
        source = importlib.util.decode_source(self.get_data(self.path))
        return self.outcomes.instrument(source, self.path)


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
    tracer, failed, outcomes = LineTracer(files), FailedTests(), Outcomes(files)
    setattr(builtins, RECORDER, outcomes)  # a builtin, so code that runpy runs finds it too
    sys.meta_path.insert(0, outcomes)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *argv], plugins=[failed])
    finally:
        replaced = sys.gettrace() is not tracer
        sys.settrace(None)
        threading.settrace(None)
        sys.meta_path.remove(outcomes)
        delattr(builtins, RECORDER)
    if code in (pytest.ExitCode.INTERRUPTED, pytest.ExitCode.INTERNAL_ERROR, pytest.ExitCode.USAGE_ERROR):
        return int(code)
    print(f"\nreach: {failed.run} tests run, {len(failed.ids)} failed")
    for nodeid in failed.ids:
        print(f"  failed: {nodeid}")
    if replaced:
        print("  warning: a test replaced the line tracer; lines it ran after that are missing")
    rows = []
    sources = {name: path.read_text(encoding="utf-8") for name, path in files.items()}
    for name, path in files.items():
        text = sources[name].splitlines()
        for line, is_raise in never_run(sources[name], name, tracer.ran[name]):
            rows.append((not is_raise, path.relative_to(ROOT), line, text[line - 1].strip()))
    rows.sort()
    n_raise = sum(not r[0] for r in rows)
    print(f"never run in src/dde: {len(rows)} statements, {n_raise} of them raise")
    for _, path, line, text in rows:
        print(f"{path}:{line}: {text}")
    one_way = outcomes.one_way(sources)
    print(f"conditions in src/dde not seen both ways: {len(one_way)}")
    for name, line, text, outcome in one_way:
        print(f"{files[name].relative_to(ROOT)}:{line}: {' '.join(text.split())}: {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
