"""tools/mutants.py stays runnable: every named mutant's snippet matches the package exactly once and still parses.

A refactor that moves or rewrites the code a mutant targets makes it stale;
this check, which reuses the tool's own `locate`, says so in milliseconds,
long before anyone runs the full mutation run.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_matches_once_and_parses():
    sources = {path.relative_to(mutants.ROOT): path.read_text() for path in (mutants.ROOT / mutants.PACKAGE).glob("*.py")}
    stale = {m.name: why for m in mutants.MUTANTS for path, why in [mutants.locate(m, sources)] if path is None}
    assert not stale, stale
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
