#!/usr/bin/env python3
"""Which statements of src/dde does the Tier-1 suite never run, and which
conditions does it take only one way?

Runs the tests in-process with src/dde loaded through an import hook that
puts a recorder before each statement, on that statement's line (docstrings
and `from __future__` imports stay first and unrecorded), and wraps each
`if`/`while` test, each conditional-expression test and each `and`/`or`
operand inside such a test (looking through `not`) in a recorder, on the
lines it was written on. It prints each statement whose recorder never ran,
`raise` statements first, as `path:line: source`, then each condition that
was only true, only false or never evaluated, as `path:line: source: outcome`.
Code the compiler drops, such as an `if False:` body, and every statement
of a file no test imports are reported as never run.

    python3 scripts/reach.py [pytest arguments]   # from the root of a checkout

Failing tests are listed but do not stop the report. The script exits 0
whenever the suite could be run; CI fails unless its summary line ends
"0 of them raise".
"""

import ast
import builtins
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dde"

RECORDER = "__reach__"  # a builtin while the hook is installed


def _place(path, node):
    """Source order, each node before the nodes it holds."""
    return path, node.lineno, node.col_offset, -node.end_lineno, -node.end_col_offset


class Found:
    """The nodes of one kind in the instrumented files, numbered in the order
    they were found, and a byte of outcome per node. A file run again, as
    runpy does, shares the numbers of its first load."""

    def __init__(self):
        self.index, self.nodes, self.seen = {}, [], bytearray()

    def number(self, path, node) -> int:
        place = _place(path, node)
        if place not in self.index:
            self.index[place] = len(self.nodes)
            self.nodes.append((path, node))
            self.seen.append(0)
        return self.index[place]

    def outcomes(self):
        """(path, node, outcome) per node, in source order."""
        for _, i in sorted(self.index.items()):
            yield *self.nodes[i], self.seen[i]


def _stays_first(owner, position, node) -> bool:
    """A docstring, or a `from __future__` import: moved, it is neither."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "__future__"
    docstring_owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return (position == 0 and isinstance(owner, docstring_owners) and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


class Instrument(ast.NodeTransformer):
    """Puts `RECORDER.ran[i] = 1` before each statement of a module, and
    rewrites each condition `test` as RECORDER(i, test), which records whether
    it was true and returns it; the `and`/`or` operands in a condition, looking
    through `not`, are rewritten too. i numbers the node in outcomes'
    statements or conditions."""

    def __init__(self, path, outcomes):
        self.path, self.outcomes = path, outcomes

    def wrap(self, node):
        self.operands(node)
        i = self.outcomes.conditions.number(self.path, node)
        call = ast.Call(ast.Name(RECORDER, ast.Load()), [ast.Constant(i), node], [])
        return ast.copy_location(call, node)

    def operands(self, node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            self.operands(node.operand)
        elif isinstance(node, ast.BoolOp):
            node.values = [self.wrap(v) for v in node.values]

    def record(self, node):
        """The statement recording `node`, every part of it on node's first line."""
        i = self.outcomes.statements.number(self.path, node)
        return ast.increment_lineno(ast.parse(f"{RECORDER}.ran[{i}] = 1").body[0], node.lineno - 1)

    def generic_visit(self, node):
        super().generic_visit(node)
        for name, value in ast.iter_fields(node):
            if isinstance(value, list) and value and isinstance(value[0], ast.stmt):
                body = []
                for position, stmt in enumerate(value):
                    if not _stays_first(node, position, stmt):
                        body.append(self.record(stmt))
                    body.append(stmt)
                setattr(node, name, body)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        if not isinstance(node.test, ast.Constant):  # `while True` has one way only
            node.test = self.wrap(node.test)
        return node

    visit_While = visit_IfExp = visit_If


class Outcomes:
    """The recorder, and an import hook that instruments the given files with
    it. statements.seen[i] is 1 once statement i ran; conditions.seen[i] has
    bit 1 once condition i was true and bit 2 once false."""

    def __init__(self, filenames):
        self.files, self.statements, self.conditions = set(filenames), Found(), Found()
        self.ran = self.statements.seen

    def __call__(self, i, value):
        self.conditions.seen[i] |= 1 if value else 2
        return value

    def find_spec(self, name, path=None, target=None):
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.origin in self.files:
            spec.loader = Loader(name, spec.origin, self)
            return spec
        return None

    def instrument(self, source: str, path: str):
        tree = Instrument(path, self).visit(ast.parse(source, path))
        return compile(ast.fix_missing_locations(tree), path, "exec", dont_inherit=True)

    def never_run(self) -> list[tuple[str, int, bool]]:
        """(path, line, is a raise) per line starting a statement that never ran, in source order."""
        rows = {}
        for path, node, ran in self.statements.outcomes():
            if not ran:
                rows[path, node.lineno] = rows.get((path, node.lineno), False) or isinstance(node, ast.Raise)
        return [(path, line, is_raise) for (path, line), is_raise in rows.items()]

    def one_way(self, sources) -> list[tuple[str, int, str, str]]:
        """(path, line, source, outcome) per condition not seen both ways, in source order."""
        outcome = {0: "never evaluated", 1: "only true", 2: "only false"}
        return [(path, node.lineno, ast.get_source_segment(sources[path], node), outcome[seen])
                for path, node, seen in self.conditions.outcomes() if seen != 3]


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
    failed, outcomes = FailedTests(), Outcomes(files)
    setattr(builtins, RECORDER, outcomes)  # a builtin, so code that runpy runs finds it too
    sys.meta_path.insert(0, outcomes)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), *argv], plugins=[failed])
    finally:
        sys.meta_path.remove(outcomes)
        delattr(builtins, RECORDER)
    if code in (pytest.ExitCode.INTERRUPTED, pytest.ExitCode.INTERNAL_ERROR, pytest.ExitCode.USAGE_ERROR):
        return int(code)
    print(f"\nreach: {failed.run} tests run, {len(failed.ids)} failed")
    for nodeid in failed.ids:
        print(f"  failed: {nodeid}")
    sources = {name: path.read_text(encoding="utf-8") for name, path in files.items()}
    for name, source in sources.items():  # numbers the nodes of files no test imported
        outcomes.instrument(source, name)
    lines = {name: source.splitlines() for name, source in sources.items()}
    rows = sorted((not is_raise, files[name].relative_to(ROOT), line, lines[name][line - 1].strip())
                  for name, line, is_raise in outcomes.never_run())
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
