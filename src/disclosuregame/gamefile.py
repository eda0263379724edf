"""JSON schemas for games, structures, equilibria and verdicts.

All rationals travel as strings ("p/q" or an integer string); floats are
rejected so files round-trip exactly.  Each distinct string is parsed once per
file, to a canonical (numerator, denominator) pair, and a Fraction is built
once per file, only for the payoff, the prior and the support endpoints read
as numbers.

One table, FIELDS, lists each object's fields, and one walker, _fields,
reads every object of a file against it: the object's type, then its key
set (a key the table does not list is refused), then each field's type, with
a missing field at its default.  A repeated key is refused as the file is
decoded.  Every failure raises GameFileError with a field-path diagnostic
like ``payoff.values[2]``, built only when a failure occurs: the error's
text starts with the path below the object being read, and each object on
the way up prefixes its own step.

Each check runs once, on ints, in code that a library caller's constructors
run too (verifiability.check_interval for a support interval).  The
structure is built from its endpoint pairs, and written back from them
(VerifStructure._intervals), so no SupportInterval or IntervalUnion object is
built either way; the game widens its coordinate table with the payoff's
breakpoints and the prior.

A file that cannot be read, or that json cannot decode (malformed JSON,
bytes that are not UTF-8, a repeated key, nesting too deep for the parser,
an integer over Python's digit limit), raises GameFileError naming the file.

Input size is capped, so the solver's quadratic paths and exact arithmetic
cannot be fed unbounded input: at most MAX_MESSAGES messages per structure,
MAX_PAYOFF_PIECES payoff pieces per game, and MAX_RATIONAL_DIGITS digits in
the numerator and in the denominator of every rational, as written.  Larger
input raises GameFileError, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from fractions import Fraction

from .equilibrium import Equilibrium, GameSpec
from .errors import ConstructionError, GameFileError
from .piecewise import StepFunction
from .rationals import format_pair, format_rational, from_pair, parse_pair
from .verifiability import Interval, Pair, VerifStructure, _canonical, check_interval

MAX_MESSAGES = 2_000
MAX_PAYOFF_PIECES = 2_000
MAX_RATIONAL_DIGITS = 40

RATIONAL = "rational"  # a field the file's reader parses to a pair

# Each object's fields, in the order the walker returns them: (name, type,
# default).  A required field's default is None, which no type admits, so a
# missing one fails its type check as a JSON null would.
FIELDS = {
    "game": (("prior", RATIONAL, None), ("payoff", dict, None), ("structure", dict, None)),
    "payoff": (("breakpoints", list, None), ("values", list, None)),
    "structure": (("full_verifiability", bool, False), ("messages", list, [])),
    "message": (("name", str, None), ("support", list, None)),
    "interval": (("lo", RATIONAL, None), ("hi", RATIONAL, None), ("hi_closed", bool, True)),
}
_KINDS = {kind: ({name for name, _, _ in fields}, fields) for kind, fields in FIELDS.items()}  # kind: (its keys, its fields)

Reader = Callable[[object], Pair]


def _parse(obj: object) -> Pair:
    """parse_pair under the digit cap; ValueError says what is wrong, the caller says where."""
    if isinstance(obj, (str, int)) and len(text := str(obj)) > MAX_RATIONAL_DIGITS and any(
        len(part.strip().lstrip("+-")) > MAX_RATIONAL_DIGITS for part in text.split("/")
    ):
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a numerator or denominator")
    return parse_pair(obj)


def _reader() -> Reader:
    """_parse for one file: each distinct string is parsed once.

    Only strings are memoised: JSON's true would otherwise find the int 1's
    entry, since True == 1 and both hash alike.
    """
    memo: dict[str, Pair] = {}

    def read(obj: object) -> Pair:
        if isinstance(obj, str):
            pair = memo.get(obj)
            if pair is None:  # a string no longer than the cap cannot break it
                pair = memo[obj] = parse_pair(obj) if len(obj) <= MAX_RATIONAL_DIGITS else _parse(obj)
            return pair
        return _parse(obj)

    return read


def _fields(obj: object, kind: str, read: Reader) -> list:
    """The walker: obj's fields as FIELDS lists kind's, each rational read by read.

    It checks obj's type, then its keys, then each field's type.  A failure
    raises GameFileError whose text starts with the path below obj (``.hi: ``,
    or ``: `` for obj itself); each object on the way up prefixes its own
    step (_each, _below).
    """
    keys, fields = _KINDS[kind]
    if not isinstance(obj, dict):
        raise GameFileError(f": expected dict, got {type(obj).__name__}")
    if not keys.issuperset(obj):
        raise GameFileError(f": unknown key {next(key for key in obj if key not in keys)!r}")
    values = []
    for key, kind_of, default in fields:
        value = obj.get(key, default)
        if kind_of is RATIONAL:
            try:
                value = read(value)
            except ValueError as exc:
                raise GameFileError(f".{key}: {exc}") from exc
        elif not isinstance(value, kind_of):
            got = "" if kind_of is bool else f", got {type(value).__name__}"  # a bool field's error text names no type
            raise GameFileError(f".{key}: expected {kind_of.__name__}{got}")
        values.append(value)
    return values


def _each(items: list, read_item: Callable, read: Reader, field: str) -> list:
    """read_item(item, read) for each of items, the list at field; an error's path gains the field and the item's index."""
    done = []
    try:
        for item in items:
            done.append(read_item(item, read))
    except GameFileError as exc:
        exc.args = (f".{field}[{len(done)}]{exc}",)
        raise
    return done


def _rats(raw: list, read: Reader, path: str) -> list[Pair]:
    """Every entry of raw, the list at path; an error names the first bad entry's index, found by a second reading."""
    try:
        return list(map(read, raw))
    except ValueError:
        pass
    for k, obj in enumerate(raw):
        _below(f"{path}[{k}]", read, obj)


def _below(step: str, read_obj: Callable, *args):
    """read_obj(*args), which reads the object at step below the caller's ("" for the caller's own).

    A GameFileError's path gains step; any other ValueError (a constructor's
    refusal, or a rational's) is the object's own error.  A game is read at
    the file's top, so its fields are named bare (``prior``, not
    ``game.prior``), and only the game itself is named "game".
    """
    try:
        return read_obj(*args)
    except GameFileError as exc:
        where = exc.args[0]
        exc.args = (where[1:] if step == "game" and where[0] == "." else step + where,)
        raise
    except ValueError as exc:
        raise GameFileError(f"{step}: {exc}") from exc


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def structure_to_obj(structure: VerifStructure) -> dict:
    messages = [
        {"name": name, "support": [{"lo": format_pair(*lo), "hi": format_pair(*hi), "hi_closed": hi_closed} for lo, hi, hi_closed in ivs]}
        for name, ivs in structure._intervals().items()
    ]
    return {"full_verifiability": structure.full_verifiability, "messages": messages}


def structure_from_obj(obj: object) -> VerifStructure:
    return _below("structure", _structure, obj, _reader(), {})


def _structure(obj: object, read: Reader, built: dict[Pair, Fraction]) -> VerifStructure:
    """structure_from_obj with the file's reader, and the Fractions the file has built so far, by pair."""
    full, raw_msgs = _fields(obj, "structure", read)
    if len(raw_msgs) > MAX_MESSAGES:
        raise GameFileError(f".messages: {len(raw_msgs)} messages, more than {MAX_MESSAGES}")
    return _below("", VerifStructure._from_pairs, _each(raw_msgs, _message, read, "messages"), full, built)


def _message(obj: object, read: Reader) -> tuple[str, list[Interval]]:
    name, raw_supp = _fields(obj, "message", read)
    ivs = _each(raw_supp, _interval, read, "support")
    if not ivs:
        raise GameFileError(".support: support must be non-empty")
    return name, _canonical(ivs) if len(ivs) > 1 else ivs


def _interval(obj: object, read: Reader) -> Interval:
    lo, hi, hi_closed = _fields(obj, "interval", read)
    try:  # _below's rule, written out: this runs once per interval
        check_interval(lo, hi, hi_closed)
    except ConstructionError as exc:
        raise GameFileError(f": {exc}") from exc
    return lo, hi, hi_closed


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------

def game_to_obj(game: GameSpec) -> dict:
    return {
        "prior": format_rational(game.prior),
        "payoff": {
            "breakpoints": [format_rational(b) for b in game.payoff.breakpoints],
            "values": [format_rational(v) for v in game.payoff.values],
        },
        "structure": structure_to_obj(game.structure),
    }


def game_from_obj(obj: object) -> GameSpec:
    return _below("game", _game, obj, _reader())


def _game(obj: object, read: Reader) -> GameSpec:
    prior, payoff_obj, structure_obj = _fields(obj, "game", read)
    built: dict[Pair, Fraction] = {}

    def fraction(pair: Pair) -> Fraction:
        """The Fraction of a pair the file holds, built once per file."""
        q = built.get(pair)
        if q is None:
            q = built[pair] = from_pair(*pair)
        return q

    raw_b, raw_v = _below(".payoff", _fields, payoff_obj, "payoff", read)
    if max(len(raw_b), len(raw_v)) > MAX_PAYOFF_PIECES:
        raise GameFileError(f".payoff: more than {MAX_PAYOFF_PIECES} pieces")
    bps, vals = _rats(raw_b, read, ".payoff.breakpoints"), _rats(raw_v, read, ".payoff.values")
    payoff = _below(".payoff", StepFunction._from_pairs, bps, vals, fraction)
    structure = _below(".structure", _structure, structure_obj, read, built)
    return _below("", GameSpec, payoff, fraction(prior), structure)


def load_game(path: str) -> GameSpec:
    return game_from_obj(_load_json(path))


def load_structure(path: str) -> VerifStructure:
    """Read a structure file, or a game file's structure: an object with a "structure" key and no "messages" key is read whole, as a game."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "structure" in obj and "messages" not in obj:
        return game_from_obj(obj).structure
    return structure_from_obj(obj)


def _unique(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a repeated key (json.load would keep the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        raise ValueError(f"repeated key {next(key for key, _ in pairs if key in seen or seen.add(key))!r}")
    return obj


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique)
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, a repeated key, an integer over Python's digit limit, nesting too deep
        raise GameFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# equilibria and verdicts
# ---------------------------------------------------------------------------

def equilibrium_to_obj(eq: Equilibrium, pnbp_holds: bool) -> dict:
    return {
        "value": format_rational(eq.value),
        "signal": [
            {
                "posterior": format_rational(s),
                "weight": format_rational(w),
                "message": eq.messaging[s],
            }
            for s, w in zip(eq.signal.support, eq.signal.weights)
        ],
        "beliefs": {name: format_rational(b) for name, b in sorted(eq.beliefs.items())},
        "pnbp": pnbp_holds,
        "s_minus": format_rational(eq.s_minus),
        "s_plus": format_rational(eq.s_plus),
    }


def verdict_to_obj(verdict: object) -> dict:
    """The JSON object of a comparative.OrderVerdict (typed object, so loading this module imports no comparative)."""
    witness: object = None
    if not verdict.holds:
        if verdict.relation == "lc":
            witness = {"type": format_rational(verdict.witness)}
        else:
            s, pieces = verdict.witness
            witness = {
                "type": format_rational(s),
                "separating_set": [
                    {
                        "lo": format_rational(lo),
                        "lo_closed": lo_closed,
                        "hi": format_rational(hi),
                        "hi_closed": hi_closed,
                    }
                    for lo, lo_closed, hi, hi_closed in pieces
                ],
            }
    return {"relation": verdict.relation, "holds": verdict.holds, "witness": witness}
