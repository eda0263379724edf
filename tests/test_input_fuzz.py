"""A fuzz of the input boundary: edited fixtures through every subcommand, in process.

Each example takes one bundled fixture, game or structure, and makes one edit
at one place in it: a value of another type, a key renamed, dropped or
repeated, a value nested deeply (past the JSON parser's recursion limit, or
not), a rational with 41 digits, a sign or a zero denominator, or an empty
string.  Every subcommand must then return 0, 1 or 2 and raise nothing but
SystemExit.  A renamed or repeated key must give 2 from every subcommand: a
renamed key is one its object does not list, and each subcommand reads every
object of the file it is given.  When `solve --json` gives 0, it answered the
game the file holds: its JSON is that of the library's solve of the loaded
game, and that equilibrium passes verify_equilibrium.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from disclosuregame import pnbp, solve, verify_equilibrium
from disclosuregame.cli import main
from disclosuregame.gamefile import equilibrium_to_obj, load_game

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FILES = {path.name: json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))}
COMMANDS = (
    lambda path: ["solve", path, "--json"],
    lambda path: ["oracle", path],
    lambda path: ["compare", path, path],
    lambda path: ["optimal", path, "--sender"],
    lambda path: ["witness", path, path],
)
VALUES = (0, 1, -1, 1.5, True, False, None, "x", [], {}, [["0"]], {"lo": "0"})
RATIONALS = ("1" + "0" * 40, "1/" + "3" * 41, "-1/2", "+1/3", "-0", "1/0", "0/0", "")


class Raw(str):
    """JSON text written as it is (a deep nesting that dumps could not recurse through)."""


class Repeated(dict):
    """An object whose `key` is written twice: first with `first`, then with its value."""

    def __init__(self, obj: dict, key: str, first):
        super().__init__(obj)
        self.key, self.first = key, first


def dump(node) -> str:
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, dict):
        pairs = list(node.items())
        if isinstance(node, Repeated):
            pairs.insert(0, (node.key, node.first))
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(dump, node)) + "]"
    return json.dumps(node)


def places(node, at=()) -> list:
    """The path of every value below node, as a tuple of keys and indices."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        found.append(at + (key,))
        found += places(child, at + (key,))
    return found


def edited(obj, at: tuple, edit):
    """obj with edit(parent, key) applied to the value at `at`, copying only the way down."""
    if len(at) == 1:
        return edit(obj, at[0])
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[at[0]] = edited(obj[at[0]], at[1:], edit)
    return copy


def replaced(value):
    def edit(parent, key):
        copy = dict(parent) if isinstance(parent, dict) else list(parent)
        copy[key] = value
        return copy
    return edit


def key_edit(kind: str, data):
    """Rename, drop or repeat the key of the value at a place (in a list, swap the value's type instead)."""
    def edit(parent, key):
        if not isinstance(parent, dict):
            return replaced(data.draw(st.sampled_from(VALUES)))(parent, key)
        if kind == "repeat":
            return Repeated(parent, key, data.draw(st.sampled_from((parent[key],) + VALUES)))
        if kind == "drop":
            return {k: v for k, v in parent.items() if k != key}
        renamed = data.draw(st.sampled_from((key + "x", key[:-1], key.upper(), "")))
        return {renamed if k == key else k: v for k, v in parent.items()}
    return edit


def run(argv: list) -> tuple:
    """(exit code, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the one exception a subcommand may raise
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_edited_fixtures_exit_zero_one_or_two(data):
    name = data.draw(st.sampled_from(sorted(FILES)), label="fixture")
    obj = FILES[name]
    at = data.draw(st.sampled_from(places(obj)), label="place")
    kind = data.draw(st.sampled_from(("type", "rename", "drop", "repeat", "nest", "rational", "empty")), label="edit")
    if kind in ("rename", "drop", "repeat"):
        edit = key_edit(kind, data)
    elif kind == "nest":
        depth = data.draw(st.sampled_from((40, 5_000)))
        edit = replaced(Raw("[" * depth + '"0"' + "]" * depth))
    else:
        edit = replaced(data.draw(st.sampled_from({"type": VALUES, "rational": RATIONALS, "empty": ("",)}[kind])))
    text = dump(edited(obj, at, edit))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / name)
        pathlib.Path(path).write_text(text)
        (code, out), *others = [run(command(path)) for command in COMMANDS]
        if code == 0:
            game = load_game(path)
            eq = solve(game)
            assert json.loads(out) == equilibrium_to_obj(eq, pnbp(game).holds), text
            assert verify_equilibrium(game, eq).ok, text
    codes = [code, *(c for c, _ in others)]
    assert set(codes) <= {0, 1, 2}, codes
    parent = obj
    for key in at[:-1]:
        parent = parent[key]
    if kind in ("rename", "repeat") and isinstance(parent, dict):
        assert codes == [2] * len(COMMANDS), (text, codes)
