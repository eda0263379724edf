"""The package's public names: __all__ is written out and matches README's Library section."""

import pathlib
import re
from types import ModuleType

import disclosuregame

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_exports() -> list[str]:
    """The names listed under README's "exports exactly these names", in order."""
    library = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    listed = library.split("(`disclosuregame.__all__`)", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", listed)


def test_all_matches_readme_library_section():
    assert disclosuregame.__all__ == readme_exports()
    assert len(set(disclosuregame.__all__)) == len(disclosuregame.__all__) == 39


def test_star_import_gives_exactly_all_and_no_modules():
    namespace: dict = {}
    exec("from disclosuregame import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(disclosuregame.__all__)
    assert not any(isinstance(obj, ModuleType) for obj in namespace.values())
