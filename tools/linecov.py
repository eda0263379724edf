"""Line coverage of the package over the tier-1 tests: which source lines does no test run?

    python tools/linecov.py      # about 80 s on one core, against about 20 s untraced

Not part of tier-1.  Runs pytest on ``tests/`` in this process under a
``sys.settrace`` line tracer that records the lines run in each module of
``src/disclosuregame``, then prints every executable line that no test ran.
The executable lines are those the compiler gives a line number, less each
function's ``def`` line as seen from inside the function.

A few lines are left unexecuted on purpose; each is listed in UNEXECUTED
with its reason and is found by its source text (stripped), which must match
exactly one line of its module, so the list survives edits that move lines.
The exit code is 1 when an unexecuted line is not listed, or a listed line
ran or matches no line (its reason is stale); 2 when the tests fail; else 0.
Stdlib only; needs ``pytest`` and ``hypothesis`` like the tests themselves.
"""

from __future__ import annotations

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


def traced_test_run() -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code over tests/, and the lines run in each package module."""
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
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {Path(name).name: lines for name, lines in hits.items()}


def main() -> int:
    if any(name == "disclosuregame" or name.startswith("disclosuregame.") for name in sys.modules):
        print("the package is already imported, so its import-time lines would go unseen", file=sys.stderr)
        return 2
    code, hits = traced_test_run()
    if code != 0:
        print(f"the tests fail (pytest exit code {code})", file=sys.stderr)
        return 2
    bad = listed = total = 0
    missed: set[tuple[str, str]] = set()  # (module, stripped line) of every unexecuted line
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - hits[path.name]):
            total += 1
            text = source[line - 1].strip()
            missed.add((path.name, text))
            reason = UNEXECUTED.get((path.name, text))
            if reason is None:
                bad += 1
                print(f"UNLISTED  {path.name}:{line}  {text}")
            else:
                listed += 1
                print(f"listed    {path.name}:{line}  {text}  ({reason})")
        for module, text in UNEXECUTED:
            if module == path.name and sum(src.strip() == text for src in source) != 1:
                bad += 1
                print(f"STALE     {module}: {text!r} does not match exactly one line")
    for module, text in UNEXECUTED:
        if (module, text) not in missed:
            bad += 1
            print(f"STALE     {module}: {text!r} is listed as unexecuted, but a test runs it or it is gone")
    print(f"{total} unexecuted lines, {listed} listed with a reason; {bad} unlisted or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
