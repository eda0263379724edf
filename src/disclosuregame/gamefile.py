"""JSON schemas for games, structures, equilibria and verdicts.

All rationals travel as strings ("p/q" or an integer string); floats are
rejected so files round-trip exactly.  Each distinct string is parsed once per
file.  Parse failures raise GameFileError with a field-path diagnostic like
``payoff.values[2]``, built only when a failure occurs.

Each check runs once, on ints, in the constructor that a library caller uses
too; the structure ranks its support endpoints in one coordinate table, and
the game widens it once with the payoff's breakpoints and the prior.

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

from .comparative import OrderVerdict
from .equilibrium import Equilibrium, GameSpec
from .errors import ConstructionError, GameFileError
from .piecewise import StepFunction
from .rationals import format_rational, parse_rational
from .verifiability import IntervalUnion, SupportInterval, VerifStructure

MAX_MESSAGES = 2_000
MAX_PAYOFF_PIECES = 2_000
MAX_RATIONAL_DIGITS = 40


def _parse(obj: Any) -> Fraction:
    """parse_rational under the digit cap; ValueError says what is wrong, the caller says where."""
    if isinstance(obj, (str, int)) and len(text := str(obj)) > MAX_RATIONAL_DIGITS and any(
        len(part.strip().lstrip("+-")) > MAX_RATIONAL_DIGITS for part in text.split("/")
    ):
        raise ValueError(f"more than {MAX_RATIONAL_DIGITS} digits in a numerator or denominator")
    return parse_rational(obj)


def _rat(obj: Any, path: str, read: Callable[[Any], Fraction]) -> Fraction:
    try:
        return read(obj)
    except ValueError as exc:
        raise GameFileError(f"{path}: {exc}") from exc


def _reader() -> Callable[[Any], Fraction]:
    """_parse for one file: each distinct string is parsed once.

    Only strings are memoised: JSON's true would otherwise find the int 1's
    entry, since True == 1 and both hash alike.
    """
    memo: dict[str, Fraction] = {}

    def read(obj: Any) -> Fraction:
        if isinstance(obj, str):
            q = memo.get(obj)
            if q is None:
                q = memo[obj] = _parse(obj)
            return q
        return _parse(obj)

    return read


def _rats(raw: list, read: Callable[[Any], Fraction], path: str) -> tuple[Fraction, ...]:
    """Every entry of raw; an error names the entry's index."""
    out = []
    for obj in raw:
        try:
            out.append(read(obj))
        except ValueError as exc:
            raise GameFileError(f"{path}[{len(out)}]: {exc}") from exc
    return tuple(out)


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
    return {
        "full_verifiability": structure.full_verifiability,
        "messages": [
            {
                "name": name,
                "support": [
                    {
                        "lo": format_rational(iv.lo),
                        "hi": format_rational(iv.hi),
                        "hi_closed": iv.hi_closed,
                    }
                    for iv in supp.intervals
                ],
            }
            for name, supp in structure.messages
        ],
    }


def structure_from_obj(obj: Any, path: str = "structure") -> VerifStructure:
    return _structure(obj, path, _reader())


def _structure(obj: Any, path: str, read: Callable[[Any], Fraction]) -> VerifStructure:
    """structure_from_obj with the file's reader.

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
        return VerifStructure(tuple(messages), full)
    except ConstructionError as exc:
        raise GameFileError(f"{path}: {exc}") from exc


def _message(m: Any, read: Callable[[Any], Fraction]) -> tuple[str, IntervalUnion]:
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
    try:
        return name, IntervalUnion(tuple(ivs))
    except ConstructionError as exc:
        raise _Invalid(".support", exc) from exc


def _interval(iv: Any, read: Callable[[Any], Fraction]) -> SupportInterval:
    _check(iv, dict, "")
    ends = []
    for key in ("lo", "hi"):
        try:
            ends.append(read(iv.get(key)))
        except ValueError as exc:
            raise _Invalid(f".{key}", exc) from exc
    hi_closed = iv.get("hi_closed", True)
    if not isinstance(hi_closed, bool):
        raise _Invalid(".hi_closed", "expected bool")
    try:
        return SupportInterval(ends[0], ends[1], hi_closed)
    except ConstructionError as exc:
        raise _Invalid("", exc) from exc


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
    read = _reader()
    prior = _rat(obj.get("prior"), "prior", read)
    payoff_obj = _expect(obj.get("payoff"), dict, "payoff")
    raw_b = _expect(payoff_obj.get("breakpoints"), list, "payoff.breakpoints")
    raw_v = _expect(payoff_obj.get("values"), list, "payoff.values")
    if max(len(raw_b), len(raw_v)) > MAX_PAYOFF_PIECES:
        raise GameFileError(f"payoff: more than {MAX_PAYOFF_PIECES} pieces")
    bps = _rats(raw_b, read, "payoff.breakpoints")
    vals = _rats(raw_v, read, "payoff.values")
    try:
        payoff = StepFunction(bps, vals)
    except ValueError as exc:
        raise GameFileError(f"payoff: {exc}") from exc
    structure = _structure(obj.get("structure"), "structure", read)
    try:
        return GameSpec(payoff, prior, structure)
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
        raise GameFileError(f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


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


def verdict_to_obj(verdict: OrderVerdict) -> dict:
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
