"""Expected answers computed by the benchmark itself, and the output checks.

Nothing here imports the program.  The value of a game is evaluated the way
the paper defines it, on the benchmark's own grid: the skeptical interim value
w(s) = v(max over messages available at s of the support minimum) at every
support endpoint, payoff breakpoint and the prior, plus the value on each open
piece between them (taken at its midpoint and placed at both ends), then the
upper concave hull of those points at the prior.  Without PNBP the value is
v(prior).  The pre-orders and optimality tests are re-derived from their
definitions.  Each check returns None on success or a one-line reason.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

import gen
from gen import (
    ONE, ZERO, Game, Interval, Structure, base_points, contains, fmt, has_pnbp, lc_types, v_at,
)


def parse_q(text: str) -> Fraction:
    return Fraction(text.strip())


def _minimum(ivs: tuple[Interval, ...]) -> Fraction:
    return min(lo for lo, _, _ in ivs)


def available(st: Structure, s: Fraction) -> list[str]:
    out = [name for name, ivs in st.messages if contains(ivs, s)]
    if st.full:
        out.append("id:" + fmt(s))
    return out


def belief_floor(st: Structure, name: str) -> Fraction:
    """Support minimum of a message, identity messages included."""
    if name.startswith("id:"):
        return parse_q(name[3:])
    return _minimum(dict(st.messages)[name])


@dataclass(frozen=True)
class Expected:
    value: Fraction
    pnbp: bool
    tag: str
    grid_points: int
    hull_vertices: int


def _upper_hull(points: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        if x not in best or y > best[x]:
            best[x] = y
    hull: list[tuple[Fraction, Fraction]] = []
    for x, y in sorted(best.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y - y0) * (x1 - x0) >= (y1 - y0) * (x - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _hull_at(hull, x: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return hull[0][1]


def expected(game: Game) -> Expected:
    base = sorted(base_points(game))
    mids = [(a + b) / 2 for a, b in zip(base, base[1:])]
    pts = sorted(base + mids)
    st = game.structure
    if st.full:
        w = [v_at(game, s) for s in pts]
    else:
        w = [None] * len(pts)
        for _, ivs in st.messages:
            val = v_at(game, _minimum(ivs))
            for lo, hi, closed in ivs:
                stop = bisect_right(pts, hi) if closed else bisect_left(pts, hi)
                for i in range(bisect_left(pts, lo), stop):
                    if w[i] is None or val > w[i]:
                        w[i] = val
    ws = dict(zip(pts, w))
    cand = [(s, ws[s]) for s in base]
    for a, b, m in zip(base, base[1:], mids):
        cand += [(a, ws[m]), (b, ws[m])]
    hull = _upper_hull(cand)
    pnbp = has_pnbp(game)
    if pnbp:
        value, tag = _hull_at(hull, game.prior), "unique"
    else:
        value, tag = v_at(game, game.prior), "sender_preferred"
    return Expected(value, pnbp, tag, len(pts), len(hull))


# ---------------------------------------------------------------------------
# pre-orders and optimality, from their definitions
# ---------------------------------------------------------------------------

def lc_holds(hi: Structure, lo: Structure) -> bool:
    if hi.full:
        return True
    if lo.full:
        return False
    return lc_types(hi) >= lc_types(lo)


def canonical(ivs: tuple[Interval, ...]) -> tuple[Interval, ...]:
    """Sorted, merged form: touching left-closed pieces join into one."""
    out: list[Interval] = []
    for lo, hi, closed in sorted(ivs):
        if out and lo <= out[-1][1]:
            plo, phi, pclosed = out[-1]
            if hi > phi or (hi == phi and closed):
                out[-1] = (plo, hi, closed)
        else:
            out.append((lo, hi, closed))
    return tuple(out)


def _sep_violations(hi: Structure, lo: Structure, s: Fraction) -> list[tuple[Interval, ...]]:
    """Supports of lo-messages available at s that hi cannot match at s."""
    offered = {canonical(i) for _, i in hi.messages if contains(i, s)}
    point = ((s, s, True),)
    lo_supports = [canonical(i) for _, i in lo.messages if contains(i, s)]
    if lo.full:
        lo_supports.append(point)
    return [
        supp for supp in lo_supports if supp not in offered and not (hi.full and supp == point)
    ]


def _sep_grid(hi: Structure, lo: Structure) -> list[Fraction]:
    pts = {ZERO, ONE}
    for st in (hi, lo):
        for _, ivs in st.messages:
            for a, b, _ in ivs:
                pts.update((a, b))
    base = sorted(pts)
    return sorted(set(base) | {(a + b) / 2 for a, b in zip(base, base[1:])})


def sep_holds(hi: Structure, lo: Structure) -> bool:
    return not any(_sep_violations(hi, lo, s) for s in _sep_grid(hi, lo))


def complement_text(ivs: tuple[Interval, ...]) -> str:
    pieces = []
    cursor, cursor_closed = ZERO, True
    for lo, hi, closed in canonical(ivs):
        if cursor < lo:
            pieces.append((cursor, cursor_closed, lo, False))
        cursor, cursor_closed = hi, not closed
    if cursor < ONE or cursor_closed:
        pieces.append((cursor, cursor_closed, ONE, True))
    return " u ".join(
        f"{'[' if a_c else '('}{fmt(a)},{fmt(b)}{']' if b_c else ')'}" for a, a_c, b, b_c in pieces
    )


# ---------------------------------------------------------------------------
# output checks: (op, exit code, stdout, stderr) -> None or a reason
# ---------------------------------------------------------------------------

def _check_equilibrium(game: Game, exp: Expected, value, pnbp, signal, beliefs, s_minus, s_plus):
    """Invariants every reported equilibrium must satisfy, plus the expected value."""
    if value != exp.value:
        return f"value {value} != expected {exp.value}"
    if pnbp != exp.pnbp:
        return f"pnbp {pnbp} != expected {exp.pnbp}"
    if not signal or any(w <= 0 for _, w, _ in signal) or sum(w for _, w, _ in signal) != 1:
        return "signal weights are not a distribution"
    if sum(w * s for s, w, _ in signal) != game.prior:
        return "signal is not Bayes-plausible"
    groups: dict[str, Fraction] = {}
    achieved = ZERO
    for s, w, m in signal:
        if m not in available(game.structure, s):
            return f"posterior {s} sends unavailable message {m}"
        b = beliefs.get(m, belief_floor(game.structure, m) if m.startswith("id:") else None)
        if b is None:
            return f"no belief for message {m}"
        achieved += w * v_at(game, b)
        groups[m] = groups.get(m, ZERO) + w * (s - b)
    if achieved != value:
        return "value does not match signal, messages and beliefs"
    if any(groups.values()):
        return "on-path beliefs violate Bayes' rule"
    if (s_minus, s_plus) != (signal[0][0], signal[-1][0]):
        return "split points differ from the signal's support"
    return None


def check_solve_json(game: Game, exp: Expected, code: int, out: str, svg: str | None):
    if code != 0:
        return f"exit {code}"
    obj = json.loads(out)
    signal = [(parse_q(e["posterior"]), parse_q(e["weight"]), e["message"]) for e in obj["signal"]]
    beliefs = {k: parse_q(b) for k, b in obj["beliefs"].items()}
    bad = _check_equilibrium(
        game, exp, parse_q(obj["value"]), obj["pnbp"], signal, beliefs,
        parse_q(obj["s_minus"]), parse_q(obj["s_plus"]),
    )
    if bad is None and not (svg and svg.startswith("<svg") and svg.endswith("</svg>\n")):
        bad = "figure is not a complete SVG document"
    return bad


def check_solve_text(game: Game, exp: Expected, code: int, out: str):
    if code != 0:
        return f"exit {code}"
    lines = out.splitlines()
    head, val_line = lines[0], lines[1]
    pnbp = head.startswith("pnbp: yes")
    if pnbp:
        witness = head[len("pnbp: yes (witness "):-1]
        if v_at(game, belief_floor(game.structure, witness)) <= v_at(game, game.prior):
            return f"pnbp witness {witness} proves no news better than the prior"
    value_text, tag = val_line[len("value: "):].split(" (")
    if tag != exp.tag + ")":
        return f"tag {tag[:-1]} != expected {exp.tag}"
    signal, beliefs = [], {}
    section = s_minus = s_plus = None
    for line in lines[2:]:
        if line in ("signal:", "beliefs:"):
            section = line
        elif line.startswith("split points:"):
            parts = line.split()
            s_minus, s_plus = parse_q(parts[4]), parse_q(parts[7])
        elif section == "signal:":
            parts = line.split()
            signal.append((parse_q(parts[1]), parse_q(parts[3]), parts[5]))
        else:
            name, b = line.strip().split(" = ")
            beliefs[name] = parse_q(b)
    return _check_equilibrium(game, exp, parse_q(value_text), pnbp, signal, beliefs, s_minus, s_plus)


def check_oracle(game: Game, exp: Expected, code: int, out: str):
    if code != 0:
        return f"exit {code} (oracle disagrees or refused)"
    lines = out.splitlines()
    analytic = parse_q(lines[0][len("analytic value: "):])
    body = lines[1][len("oracle values: {"):-1]
    values = [parse_q(x) for x in body.split(",")] if body else []
    if lines[2] != "agreement: yes":
        return "oracle reports disagreement"
    if analytic != exp.value:
        return f"analytic value {analytic} != expected {exp.value}"
    if not values or max(values) != exp.value:
        return f"largest oracle value != expected {exp.value}"
    if not exp.pnbp and v_at(game, game.prior) not in values:
        return "no-information value missing from the oracle's set"
    return None


def check_compare(pair, relation: str, code: int, out: str):
    hi, lo = pair
    holds = lc_holds(hi, lo) if relation == "lc" else sep_holds(hi, lo)
    if code != (0 if holds else 1):
        return f"exit {code}, expected relation {relation} to {'hold' if holds else 'fail'}"
    if holds:
        return None if out.strip() == f"relation {relation}: holds" else "unexpected output"
    if relation == "lc":
        s = parse_q(out.strip().rsplit(" ", 1)[1])
        ok = (lo.full and ZERO <= s <= ONE or s in lc_types(lo)) and s not in lc_types(hi)
        return None if ok else f"witness type {s} does not separate the lc sets"
    head, desc = out.strip().split(", separating set ")
    s = parse_q(head.rsplit(" ", 1)[1])
    if desc not in {complement_text(supp) for supp in _sep_violations(hi, lo, s)}:
        return f"type {s} with set {desc} is not a separation the higher structure lacks"
    return None


def check_optimal(st: Structure, side: str, code: int, out: str):
    if side == "sender":
        holds = st.full
    else:
        holds = not st.full and lc_types(st) == {ZERO, ONE}
    if code != (0 if holds else 1) or out.strip() != f"{side}-optimal: {'yes' if holds else 'no'}":
        return f"expected {side}-optimal {holds}"
    return None


def check_witness(pair, code: int, out: str, err: str):
    hi, lo = pair
    if code != 0:
        return f"exit {code}"
    s_star = min(lc_types(lo) - lc_types(hi))
    obj = json.loads(out)
    emitted = gen.game_from_obj(obj).structure
    if {(n, canonical(i)) for n, i in emitted.messages} != {(n, canonical(i)) for n, i in lo.messages} \
            or emitted.full != lo.full:
        return "emitted game does not carry the lower structure"
    bps = tuple(parse_q(b) for b in obj["payoff"]["breakpoints"])
    vals = tuple(parse_q(v) for v in obj["payoff"]["values"])
    if (parse_q(obj["prior"]), bps, vals) != (s_star / 2, (ZERO, s_star), (ZERO, ONE)):
        return f"emitted game is not the indicator at s* = {s_star} with prior s*/2"
    value_lo = expected(Game(s_star / 2, bps, vals, lo)).value
    value_hi = expected(Game(s_star / 2, bps, vals, hi)).value
    want = f"s* = {fmt(s_star)}  value_lo = {fmt(value_lo)}  sup_value_hi = {fmt(value_hi)}"
    if err.strip() != want or not value_lo > value_hi:
        return f"expected '{want}' with a strict reversal"
    return None


def check_op(op, exp: Expected | None, code, out: str, err: str, figure: str | None):
    """Check one op's captured result; `exp` is the expectation for the op's game, if it has one."""
    try:
        if op.kind == "solve_json":
            return check_solve_json(op.inputs[0], exp, code, out, figure)
        if op.kind == "solve_text":
            return check_solve_text(op.inputs[0], exp, code, out)
        if op.kind == "oracle":
            return check_oracle(op.inputs[0], exp, code, out)
        if op.kind.startswith("compare_"):
            return check_compare(op.inputs, op.kind[len("compare_"):], code, out)
        if op.kind.startswith("optimal_"):
            return check_optimal(op.inputs[0], op.kind[len("optimal_"):], code, out)
        return check_witness(op.inputs, code, out, err)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
