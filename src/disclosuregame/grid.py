"""Condition (1) of verify_equilibrium on a grid: the critical grid, the interim value w on it, and the supporting-line test.

The oracle works on the critical grid: every payoff breakpoint and support
endpoint, 0, 1, the prior, and the midpoint of each gap between them.  The
interim value w(s) = max over available m of v(beliefs[m]) (v(s) for an
identity message) is constant on each open gap, since availability and v
only change at grid points.

Precondition for exactness: w must be upper semicontinuous.  Then an optimal
signal can be supported on contact points of cav w, all of which lie on the
grid, and the discrete hull over the grid equals the continuum optimum.  A
right-open support can break this: w may then jump down at the open end, and
the supremum over signals that approach that end from the left is not attained
and not on the grid, so the grid's optimum lies below it.  Structures whose
supports are all right-closed meet the precondition (the payoff is
non-decreasing, so identity messages keep it too).  Condition (1)'s
"above best response" detail says that no signal attains the claim only
under this precondition; with a right-open support it names the grid's best
response instead (_supporting_line).

Arithmetic stays exact throughout.  The oracle builds its own table once
per game and keeps it on the game (the solver never reads it): a
rationals.Coordinates over the grid's points other than the midpoints, grid
slot i at table position i, the payoff piece of every slot, read at any
belief's position, and the slots each support interval covers.  A payoff
value is ranked by its piece's index (the payoff is non-decreasing with
merged pieces, so its values strictly increase).  w is one fill of those
slots, in descending order of level, that writes each slot once
(_interim_values).  Condition (1) is a supporting-line test on ints
(_supporting_line) and builds no hull; verify's condition (2), which runs
after it, ranks each message by the piece table read at its belief's
position.  So the grid test shares with the solver only the Coordinates table, and reads the game only through its
fields, the pairs its payoff keeps (StepFunction.breakpoint_pairs and
value_pairs) and the pairs of the structure's support endpoints and the
spans over them.  The exhaustive search (oracle) runs on the same grid.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .equilibrium import GameSpec, Signal, VerifyReport
from .rationals import ONE, Coordinates


def _table_and_grid(game: GameSpec) -> tuple[Coordinates, tuple[tuple[int, int], ...], tuple[int, ...], tuple[tuple[int, int, str], ...]]:
    """The oracle's own coordinate table, the critical grid on it, the payoff piece of every grid slot, and each support interval's slots.

    The table holds 0, 1, the prior, the payoff breakpoints and the support
    endpoints, read off game.prior, the payoff's breakpoint pairs and the
    pairs of the structure's endpoints (never the solver's table); the grid adds the
    midpoint of each gap between them, so grid[i], a (numerator,
    denominator) pair not always in lowest terms, sits at table position i.
    Every breakpoint is a table point, and the first is 0, so piece k holds
    the slots from 2 rank(b_k) up to 2 rank(b_k+1): appending k once per
    slot of its range writes each slot of piece once, piece[i] the index of
    v's piece at grid[i], and piece[table.position(q)] is that index at any
    q in [0,1].  An interval [lo, hi] covers the slots from
    a = 2 rank(lo) up to b = 2 rank(hi), b + 1 when closed: (a, b, name).
    """
    structure, p, breaks = game.structure, game.prior, game.payoff.breakpoint_pairs
    ends = structure._table.pairs
    table = Coordinates(dict.fromkeys([(p.numerator, p.denominator), *breaks, *ends]))
    rank, pairs, grid = table.rank, table.pairs, []
    for (an, ad), (bn, bd) in zip(pairs, pairs[1:]):
        grid += (an, ad), (an * bd + bn * ad, 2 * ad * bd)  # a, (a + b) / 2
    grid.append(pairs[-1])
    starts = [2 * rank[b] for b in breaks] + [len(grid)]
    piece = []
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        piece += [k] * (b - a)
    slot = [2 * rank[pair] for pair in ends]
    slots = tuple((slot[start >> 1], slot[end >> 1] + (end & 1), name) for start, end, _, name in structure._spans)
    return table, tuple(grid), tuple(piece), slots


def _interim_values(game: GameSpec, beliefs: Mapping[str, Fraction]) -> list[int]:
    """w(s) = max over available m of v(beliefs[m]), v(s) for an identity message, at every grid point.

    Slot i, the grid's point i and the table's position i, holds w's payoff
    piece index (game.payoff.values[w[i]] is w there).  Each belief's level
    is the game's piece table read at its position, on the table or on a
    gap.  The intervals' slots (_table_and_grid) are written in descending
    order of level, each slot once, so it keeps the highest level available
    there: free[i] is i at an unwritten slot, else a later slot with every
    slot between written, and each search for an unwritten slot halves its
    path.  Under full verifiability each slot is then raised to v(s)'s
    piece, the identity message's level (the only one under mandatory
    disclosure).
    """
    table, grid, piece, slots = game._oracle_grid
    position, n = table.position, len(grid)
    w, free = [-1] * n, list(range(n + 1))
    for lvl, a, b in sorted([(piece[position(beliefs[name])], a, b) for a, b, name in slots], reverse=True):
        i = a
        while i < b:
            if free[i] != i:  # written: leap on, halving the path
                free[i] = free[free[i]]
                i = free[i]
                continue
            j = i + 1
            while j < b and free[j] == j:
                j += 1
            w[i:j] = [lvl] * (j - i)
            free[i:j] = [j] * (j - i)
            i = j
    if game.structure.full_verifiability:
        w = list(map(max, w, piece))
    return w


def _supporting_line(game: GameSpec, beliefs: Mapping[str, Fraction], value: Fraction) -> VerifyReport | None:
    """Condition (1) of verify_equilibrium: None iff a line through (p, value) lies weakly above w and touches it.

    Else the failing report.  verify has put every belief in its message's hull.

    Let C be the grid's best response at the prior p: the largest value of
    a signal on grid points with mean p, the upper hull of w at p.  A line
    L(x) = v* + l (x - p) pays the claimed value v* on every such signal, so
    L >= w on the grid gives C <= v*, and L > w gives C < v* (C is attained).
    Conversely, the hull edge over p, raised by v* - C >= 0 (> 0), is such
    an L.  With s(x) = (w(x) - v*) / (x - p), L >= w reads w(p) <= v*,
    l >= s(x) right of p and l <= s(x) left of it; so with lo the largest s
    right of p and hi the smallest s left of it (-inf, +inf on an empty side):
    C > v* (below) iff w(p) > v* or lo > hi; else C = v* (pass) iff
    w(p) = v* or lo = hi; else C < v* (above).  At p = 0 or 1 one side is
    empty, lo = hi cannot hold, and w(p) alone decides, as it must: the only
    signal with mean p is degenerate.

    w is constant on each run of grid slots, so s is monotone over the part
    of a run on one side of p, and only the run's first and last slots bind
    (the run through p has the level w(p) <= v* by then: its far ends bind).
    Each s is an int pair num / den, den > 0, times the factor p_d / v*_d
    that all share; (-1, 0) and (1, 0) stand for -inf and +inf.

    Below, the witness is a signal worth u > v*, not always the best
    response: the degenerate one at p, or the pair x_l < p < x_r whose
    slopes cross, worth v* + (p - x_l)(x_r - p)(s(x_r) - s(x_l)) / (x_r - x_l).
    Above, it is a slope strictly between lo and hi (lo + 1 or hi - 1 with
    one side empty): the line through (p, v*) with that slope clears w.
    The detail says that no signal attains v* only when every support is
    right-closed, where the grid is exact (the module's precondition); with
    a right-open support it says only that v* is above the grid's best
    response, since signals that approach an open end may be worth more.
    """
    table, grid, _, _ = game._oracle_grid
    w = _interim_values(game, beliefs)
    vals, p, n = game.payoff.values, game.prior, len(w)
    k = 2 * table.rank[p.numerator, p.denominator]
    vn, vd, pn, pd = value.numerator, value.denominator, p.numerator, p.denominator
    # (v_l - v*) times v*_d v_ld, and v_ld, for each payoff level l
    rise = [(yn * vd - vn * yd, yd) for yn, yd in game.payoff.value_pairs]
    at_p = rise[w[k]][0]
    if at_p > 0:
        return _below(value, vals[w[k]], Signal((p,), (ONE,)))
    # the runs of w: [a, b) for consecutive a, b in cuts
    cuts = [0, *(i for i in range(1, n) if w[i] != w[i - 1]), n]
    # lo = max s right of p and hi = min s left of it, as (num, den, slot)
    lo, hi = (-1, 0, None), (1, 0, None)
    for a, b in zip(cuts, cuts[1:]):
        for i in (a, b - 1):
            xn, xd = grid[i]
            dy, yd = rise[w[i]]
            num, den = dy * xd, (xn * pd - pn * xd) * yd
            if i > k:
                if num * lo[1] > lo[0] * den:
                    lo = num, den, i
            elif i < k:
                num, den = -num, -den
                if num * hi[1] < hi[0] * den:
                    hi = num, den, i
    if lo[0] * hi[1] > hi[0] * lo[1]:
        left, right = Fraction(*grid[hi[2]]), Fraction(*grid[lo[2]])
        w_lo = (right - p) / (right - left)
        u = w_lo * vals[w[hi[2]]] + (1 - w_lo) * vals[w[lo[2]]]
        return _below(value, u, Signal((left, right), (w_lo, 1 - w_lo)))
    if at_p == 0:  # the line touches w at p
        return None
    if lo[0] * hi[1] == hi[0] * lo[1]:  # the line touches w on both sides of p
        return None
    lo_s, hi_s = (Fraction(num, den) if den else None for num, den, _ in (lo, hi))
    slope = lo_s + 1 if hi_s is None else hi_s - 1 if lo_s is None else (lo_s + hi_s) / 2
    exact = all(end & 1 for _, end, _, _ in game.structure._spans)  # every support right-closed
    best = "best response: no signal attains it" if exact else "the critical grid's best response (a support is right-open)"
    return VerifyReport(False, 1, f"value {value} above {best}", slope * pd / vd)


def _below(value: Fraction, u: Fraction, signal: Signal) -> VerifyReport:
    """The report of a profitable deviation: the signal, worth u > value."""
    detail = f"profitable deviation: value {value} below {u}, the witness signal's value (not necessarily the best response)"
    return VerifyReport(False, 1, detail, signal)
