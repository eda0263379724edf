"""The package's public names: __all__ is written out and matches README's Library section; no file imports a name it never reads.

Every annotation in the package resolves, although no module imports typing.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import typing
from types import ModuleType

import disclosuregame

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; a name listed in its __all__ counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
    unused = {str(path.relative_to(ROOT)): names for path in files if (names := unused_imports(path.read_text()))}
    assert len(files) > 25 and not unused, unused


def test_unused_import_check_sees_each_kind():
    source = "import os\nimport a.b\nfrom x import y as z\nfrom q import r, s\n__all__ = ['r']\nprint(os)\n"
    assert unused_imports(source) == ["a (line 2)", "z (line 3)", "s (line 4)"]


def annotated_objects() -> list:
    """Every function and class the package's modules define, with the functions in each class's namespace."""
    found = []
    for info in pkgutil.iter_modules(disclosuregame.__path__):
        module = importlib.import_module(f"disclosuregame.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__ or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            found.append(obj)
            if inspect.isclass(obj):
                for member in vars(obj).values():
                    # a property's getter, a cached_property's function, a static or class method's function
                    member = getattr(member, "fget", None) or getattr(member, "func", None) or getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        found.append(member)
    return found


def test_every_annotation_resolves():
    objects = annotated_objects()
    assert len(objects) > 150
    for obj in objects:
        typing.get_type_hints(obj)  # a NameError names an annotation that does not resolve
