"""Line and branch coverage of the package over the tier-1 tests: which lines does no test run, which branches go one way?

    python tools/linecov.py      # about 80 s on one core, against about 20 s untraced

Not part of tier-1.  Runs pytest on ``tests/`` in this process under a
``sys.settrace`` line tracer that records the lines run in each module of
``src/disclosuregame``, then prints every executable line that no test ran.
The executable lines are those the compiler gives a line number, less each
function's ``def`` line as seen from inside the function.

The same run records branches.  The package is imported from its source
with the test of every ``if``, ``while``, conditional expression and
comprehension filter wrapped in a probe that records the test's truth value
and returns it (all that these constructs read of the test), so the line
numbers, and the line report, are those of the plain source.  A line tracer
cannot tell the two ways of a test that stays on one line, as a conditional
expression or a comprehension filter does; the probes can.  Every branch
that the tests take only one way, or never evaluate, is printed with the
way it was taken.

A few lines are left unexecuted on purpose, and a few branches one-way;
each is listed in UNEXECUTED or ONE_WAY with its reason and is found by its
source text (stripped), which must match exactly one line of its module, so
the lists survive edits that move lines.  The exit code is 1 when an
unexecuted line or a one-way branch is not listed, or a listing is stale
(its line ran, its branches go both ways, or it matches no line); 2 when
the tests fail; else 0.  Stdlib only; needs ``pytest`` and ``hypothesis``
like the tests themselves.
"""

from __future__ import annotations

import ast
import importlib.machinery
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "disclosuregame"

# (module, stripped source line) -> why no tier-1 test runs it
UNEXECUTED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is executed as a script; the tests call main() in-process",
}

# (module, stripped source line) -> why tier-1 takes its branches only one way
ONE_WAY = {
    ("cli.py", 'if __name__ == "__main__":'):
        "true only when the module is executed as a script; the tests import it",
}

PROBE = "__linecov_branch__"  # the probe's name in each module's globals


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiler gives any instruction of the module, less each function's def line."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [top]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
        if code is not top:
            own.discard(code.co_firstlineno)  # the def (or decorator) line runs in the enclosing code
        lines |= own
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class Probes(ast.NodeTransformer):
    """Wraps the test of each if, while, conditional expression and comprehension filter in PROBE(index, test).

    sites[index] is that branch's (line, kind).
    """

    def __init__(self):
        self.sites: list[tuple[int, str]] = []

    def probe(self, test: ast.expr, kind: str) -> ast.expr:
        self.sites.append((test.lineno, kind))
        call = ast.Call(ast.Name(PROBE, ast.Load()), [ast.Constant(len(self.sites) - 1), test], [])
        return ast.copy_location(call, test)

    def visit_If(self, node):
        self.generic_visit(node)
        node.test = self.probe(node.test, "if")
        return node

    def visit_While(self, node):
        self.generic_visit(node)
        node.test = self.probe(node.test, "while")
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        node.test = self.probe(node.test, "conditional expression")
        return node

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self.probe(test, "comprehension filter") for test in node.ifs]
        return node


class ProbingFinder:
    """Finds the package's modules and loads them with their branch tests probed.

    sites[module] lists each probe's (line, kind) and ways[module] the truth
    values its test has had.
    """

    def __init__(self):
        self.sites: dict[str, list[tuple[int, str]]] = {}
        self.ways: dict[str, list[set[bool]]] = {}

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] != PACKAGE.name:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is not None and spec.origin and spec.origin.endswith(".py"):
            spec.loader = ProbingLoader(spec.name, spec.origin, self)
        return spec


class ProbingLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source, never from cached bytecode, with its branch tests probed."""

    def __init__(self, fullname: str, path: str, finder: ProbingFinder):
        super().__init__(fullname, path)
        self.module = Path(path).name
        self.finder = finder

    def get_code(self, fullname):
        probes = Probes()
        tree = probes.visit(ast.parse(self.get_data(self.path), self.path))
        self.finder.sites[self.module] = probes.sites
        self.finder.ways[self.module] = [set() for _ in probes.sites]
        return compile(ast.fix_missing_locations(tree), self.path, "exec")

    def exec_module(self, module):
        finder, name = self.finder, self.module

        def probe(index, test):
            test = bool(test)
            finder.ways[name][index].add(test)
            return test

        module.__dict__[PROBE] = probe
        super().exec_module(module)


def traced_test_run() -> tuple[int, dict[str, set[int]], ProbingFinder]:
    """pytest's exit code over tests/, the lines run in each package module, and the probes' record."""
    hits: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def on_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(PACKAGE.parent))
    finder = ProbingFinder()
    sys.meta_path.insert(0, finder)
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.meta_path.remove(finder)
    return int(code), {Path(name).name: lines for name, lines in hits.items()}, finder


def check_listed(found: dict[tuple[str, str], str], listed: dict[tuple[str, str], str], sources: dict[str, list[str]]) -> int:
    """Print every finding, keyed (module, stripped line), and every stale listing; the number unlisted or stale."""
    bad = 0
    for key, where in found.items():
        reason = listed.get(key)
        bad += reason is None
        print(f"UNLISTED  {where}" if reason is None else f"listed    {where}  ({reason})")
    for module, text in listed:
        if sum(src.strip() == text for src in sources[module]) != 1:
            bad += 1
            print(f"STALE     {module}: {text!r} does not match exactly one line")
        elif (module, text) not in found:
            bad += 1
            print(f"STALE     {module}: {text!r} is listed, but the tests cover it")
    return bad


def main() -> int:
    if any(name == "disclosuregame" or name.startswith("disclosuregame.") for name in sys.modules):
        print("the package is already imported, so its import-time lines would go unseen", file=sys.stderr)
        return 2
    code, hits, probes = traced_test_run()
    if code != 0:
        print(f"the tests fail (pytest exit code {code})", file=sys.stderr)
        return 2
    sources: dict[str, list[str]] = {}
    missed: dict[tuple[str, str], str] = {}  # (module, stripped line) -> where, for each unexecuted line
    one_way: dict[tuple[str, str], str] = {}  # the same for each branch not taken both ways
    for path in sorted(PACKAGE.glob("*.py")):
        source = sources[path.name] = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hits[path.name]):
            text = source[line - 1].strip()
            missed[path.name, text] = f"{path.name}:{line}  {text}"
        for (line, kind), ways in zip(probes.sites[path.name], probes.ways[path.name]):
            if len(ways) < 2:
                text = source[line - 1].strip()
                taken = f"only {ways.pop()}" if ways else "never evaluated"
                where = one_way.get((path.name, text), f"{path.name}:{line}  {text}")
                one_way[path.name, text] = f"{where}  [{kind}: {taken}]"
    bad = check_listed(missed, UNEXECUTED, sources) + check_listed(one_way, ONE_WAY, sources)
    branches = sum(map(len, probes.sites.values()))
    print(f"{len(missed)} unexecuted lines, {len(one_way)} of {branches} branches not taken both ways; "
          f"{bad} unlisted or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
