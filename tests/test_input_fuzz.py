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

Few of those edits leave a game file valid, so a second fuzz makes only edits
that do: it reorders or renames a game fixture's messages, repeats a
message's support under a fresh name, moves the prior within [0,1] and maps
the payoff's values by a positive affine map.  There `solve --json` must give
0 on every example, with the same check of its answer.
"""

import contextlib
import io
import json
import pathlib
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from disclosuregame import pnbp, solve, verify_equilibrium
from disclosuregame.cli import main
from disclosuregame.gamefile import equilibrium_to_obj, load_game
from disclosuregame.rationals import format_rational, parse_rational
from disclosuregame.verifiability import IDENTITY_PREFIX

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
GAMES = sorted(name for name, obj in FILES.items() if "prior" in obj)
NAMES = st.text(max_size=6).filter(lambda name: not name.startswith(IDENTITY_PREFIX))
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


def answered(path: str, out: str, text: str) -> None:
    """`solve --json`'s output on the file at path is the library's solve of the loaded game, which verifies."""
    game = load_game(path)
    eq = solve(game)
    assert json.loads(out) == equilibrium_to_obj(eq, pnbp(game).holds), text
    assert verify_equilibrium(game, eq).ok, text


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
            answered(path, out, text)
    codes = [code, *(c for c, _ in others)]
    assert set(codes) <= {0, 1, 2}, codes
    parent = obj
    for key in at[:-1]:
        parent = parent[key]
    if kind in ("rename", "repeat") and isinstance(parent, dict):
        assert codes == [2] * len(COMMANDS), (text, codes)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_valid_edits_of_a_game_solve(data):
    name = data.draw(st.sampled_from(GAMES), label="fixture")
    obj = FILES[name]
    messages = obj["structure"]["messages"]
    if messages and data.draw(st.booleans(), label="repeat a support"):
        taken = {message["name"] for message in messages}
        support = data.draw(st.sampled_from(messages))["support"]
        messages = messages + [{"name": data.draw(NAMES.filter(lambda n: n not in taken)), "support": support}]
    if data.draw(st.booleans(), label="rename"):
        fresh = data.draw(st.lists(NAMES, min_size=len(messages), max_size=len(messages), unique=True))
        messages = [dict(message, name=new) for message, new in zip(messages, fresh)]
    obj = dict(obj, structure=dict(obj["structure"], messages=data.draw(st.permutations(messages), label="order")))
    if data.draw(st.booleans(), label="move the prior"):
        obj["prior"] = format_rational(data.draw(st.fractions(0, 1, max_denominator=24)))
    if data.draw(st.booleans(), label="affine payoff"):
        scale = data.draw(st.fractions(Fraction(1, 12), 12, max_denominator=12))
        shift = data.draw(st.fractions(-12, 12, max_denominator=12))
        values = [format_rational(scale * parse_rational(v) + shift) for v in obj["payoff"]["values"]]
        obj["payoff"] = dict(obj["payoff"], values=values)
    text = json.dumps(obj)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / name)
        pathlib.Path(path).write_text(text)
        code, out = run(["solve", path, "--json"])
        assert code == 0, text
        answered(path, out, text)
