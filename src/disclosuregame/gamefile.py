"""JSON schemas for games, structures, equilibria and verdicts.

All rationals travel as strings ("p/q" or an integer string); floats are
rejected so files round-trip exactly.  Each distinct string is parsed once per
file, to a canonical (numerator, denominator) pair, and a Fraction is built
once per file, only for the payoff, the prior and the support endpoints read
as numbers.  Parse failures raise GameFileError with a field-path diagnostic
like ``payoff.values[2]``, built only when a failure occurs.

Each check runs once, on ints, in code that a library caller's constructors
run too (verifiability.check_interval for a support interval).  The
structure is built from its endpoint pairs, and written back from them
(VerifStructure._intervals), so no SupportInterval or IntervalUnion object is
built either way; the game widens its coordinate table with the payoff's
breakpoints and the prior.

A file that cannot be read, or that json cannot decode (malformed JSON,
bytes that are not UTF-8, nesting too deep for the parser, an integer over
Python's digit limit), raises GameFileError naming the file.

Input size is capped, so the solver's quadratic paths and exact arithmetic
cannot be fed unbounded input: at most MAX_MESSAGES messages per structure,
MAX_PAYOFF_PIECES payoff pieces per game, and MAX_RATIONAL_DIGITS digits in
the numerator and in the denominator of every rational, as written.  Larger
input raises GameFileError, which the CLI reports with exit code 2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable

from .equilibrium import Equilibrium, GameSpec
from .errors import ConstructionError, GameFileError
from .piecewise import StepFunction
from .rationals import format_pair, format_rational, from_pair, parse_pair
from .verifiability import Interval, Pair, VerifStructure, _canonical, check_interval

MAX_MESSAGES = 2_000
MAX_PAYOFF_PIECES = 2_000
MAX_RATIONAL_DIGITS = 40


def _parse(obj: Any) -> Pair:
    """parse_pair under the digit cap; ValueError says what is wrong, the caller says where."""
    if isinstance(obj, (str, int)) and len(text := str(obj)) > MAX_RATIONAL_DIGITS and any(
        len(part.strip().lstrip("+-")) > MAX_RATIONAL_DIGITS for part in text.split("/")
    ):
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a numerator or denominator")
    return parse_pair(obj)


def _rat(obj: Any, path: str, read: Callable[[Any], Pair]) -> Pair:
    try:
        return read(obj)
    except ValueError as exc:
        raise GameFileError(f"{path}: {exc}") from exc


def _reader() -> Callable[[Any], Pair]:
    """_parse for one file: each distinct string is parsed once.

    Only strings are memoised: JSON's true would otherwise find the int 1's
    entry, since True == 1 and both hash alike.
    """
    memo: dict[str, Pair] = {}

    def read(obj: Any) -> Pair:
        if isinstance(obj, str):
            pair = memo.get(obj)
            if pair is None:  # a string no longer than the cap cannot break it
                pair = memo[obj] = parse_pair(obj) if len(obj) <= MAX_RATIONAL_DIGITS else _parse(obj)
            return pair
        return _parse(obj)

    return read


def _rats(raw: list, read: Callable[[Any], Pair], path: str) -> list[Pair]:
    """Every entry of raw; an error names the first bad entry's index, found by a second reading."""
    try:
        return list(map(read, raw))
    except ValueError:
        pass
    for k, obj in enumerate(raw):
        _rat(obj, f"{path}[{k}]", read)


def _expect(obj: Any, kind: type, path: str):
    if not isinstance(obj, kind):
        raise GameFileError(f"{path}: expected {kind.__name__}, got {type(obj).__name__}")
    return obj


class _Invalid(Exception):
    """A parse failure below the object being read: where is the path suffix from that object."""

    def __init__(self, where: str, reason: object):
        super().__init__(str(reason))
        self.where = where


def _check(obj: Any, kind: type, where: str):
    if not isinstance(obj, kind):
        raise _Invalid(where, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def structure_to_obj(structure: VerifStructure) -> dict:
    messages = [
        {"name": name, "support": [{"lo": format_pair(*lo), "hi": format_pair(*hi), "hi_closed": hi_closed} for lo, hi, hi_closed in ivs]}
        for name, ivs in structure._intervals().items()
    ]
    return {"full_verifiability": structure.full_verifiability, "messages": messages}


def structure_from_obj(obj: Any, path: str = "structure") -> VerifStructure:
    return _structure(obj, path, _reader(), {})


def _structure(obj: Any, path: str, read: Callable[[Any], Pair], built: dict[Pair, Fraction]) -> VerifStructure:
    """structure_from_obj with the file's reader, and the Fractions the file has built so far, by pair.

    Field paths are built only on error: each message is read by _message,
    whose failures carry their path below the message, prefixed here.
    """
    _expect(obj, dict, path)
    full = obj.get("full_verifiability", False)
    if not isinstance(full, bool):
        raise GameFileError(f"{path}.full_verifiability: expected bool")
    raw_msgs = _expect(obj.get("messages", []), list, f"{path}.messages")
    if len(raw_msgs) > MAX_MESSAGES:
        raise GameFileError(f"{path}.messages: {len(raw_msgs)} messages, more than {MAX_MESSAGES}")
    messages = []
    for m in raw_msgs:
        try:
            messages.append(_message(m, read))
        except _Invalid as exc:
            raise GameFileError(f"{path}.messages[{len(messages)}]{exc.where}: {exc}") from exc
    try:
        return VerifStructure._from_pairs(messages, full, built)
    except ConstructionError as exc:
        raise GameFileError(f"{path}: {exc}") from exc


def _message(m: Any, read: Callable[[Any], Pair]) -> tuple[str, list[Interval]]:
    _check(m, dict, "")
    name = _check(m.get("name"), str, ".name")
    raw_supp = _check(m.get("support"), list, ".support")
    ivs = []
    for iv in raw_supp:
        try:
            ivs.append(_interval(iv, read))
        except _Invalid as exc:
            exc.where = f".support[{len(ivs)}]{exc.where}"
            raise
    if not ivs:
        raise _Invalid(".support", "support must be non-empty")
    return name, _canonical(ivs) if len(ivs) > 1 else ivs


def _interval(iv: Any, read: Callable[[Any], Pair]) -> Interval:
    _check(iv, dict, "")
    ends = []
    for key in ("lo", "hi"):
        try:
            ends.append(read(iv.get(key)))
        except ValueError as exc:
            raise _Invalid(f".{key}", exc) from exc
    lo, hi = ends
    hi_closed = iv.get("hi_closed", True)
    if not isinstance(hi_closed, bool):
        raise _Invalid(".hi_closed", "expected bool")
    try:
        check_interval(lo, hi, hi_closed)
    except ConstructionError as exc:
        raise _Invalid("", exc) from exc
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


def game_from_obj(obj: Any) -> GameSpec:
    _expect(obj, dict, "game")
    read, built = _reader(), {}

    def fraction(pair: Pair) -> Fraction:
        """The Fraction of a pair the file holds, built once per file."""
        q = built.get(pair)
        if q is None:
            q = built[pair] = from_pair(*pair)
        return q

    prior = _rat(obj.get("prior"), "prior", read)
    payoff_obj = _expect(obj.get("payoff"), dict, "payoff")
    raw_b = _expect(payoff_obj.get("breakpoints"), list, "payoff.breakpoints")
    raw_v = _expect(payoff_obj.get("values"), list, "payoff.values")
    if max(len(raw_b), len(raw_v)) > MAX_PAYOFF_PIECES:
        raise GameFileError(f"payoff: more than {MAX_PAYOFF_PIECES} pieces")
    bps = _rats(raw_b, read, "payoff.breakpoints")
    vals = _rats(raw_v, read, "payoff.values")
    try:
        payoff = StepFunction(tuple(map(fraction, bps)), tuple(map(fraction, vals)))
    except ValueError as exc:
        raise GameFileError(f"payoff: {exc}") from exc
    structure = _structure(obj.get("structure"), "structure", read, built)
    try:
        return GameSpec(payoff, fraction(prior), structure)
    except ValueError as exc:
        raise GameFileError(f"game: {exc}") from exc


def load_game(path: str) -> GameSpec:
    return game_from_obj(_load_json(path))


def load_structure(path: str) -> VerifStructure:
    """Read a structure file, or the structure part of a full game file."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "structure" in obj and "messages" not in obj:
        return structure_from_obj(obj["structure"])
    return structure_from_obj(obj)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer over Python's digit limit, nesting too deep
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


def verdict_to_obj(verdict: Any) -> dict:
    """The JSON object of a comparative.OrderVerdict (typed Any, so loading this module imports no comparative)."""
    witness: Any = None
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
