"""Brute-force verification: condition (1) on a grid, and an exhaustive equilibrium search.

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
non-decreasing, so identity messages keep it too).

Arithmetic stays exact throughout.  The oracle builds its own table once
per game and keeps it on the game (the solver never reads it): a
rationals.Coordinates over the grid's points other than the midpoints, grid
slot i at table position i, and the payoff piece of every slot, read at any
belief's position.  A payoff value is ranked by its piece's index (the
payoff is non-decreasing with merged pieces, so its values strictly
increase).  Condition (1) is a supporting-line test on ints
(_supporting_line) and builds no hull.  The exhaustive search caps its grid
at max_grid points, scales it to ints over the lcm of its denominators, and
tests each messaging profile once on Python ints, at the one assignment of
levels whose value the weights cannot move, against a best response from
its one hull call (_hull_segment); the profiles that pass build Fractions,
and verify_equilibrium alone decides which are kept.  So the oracle shares
with the solver only the Coordinates table and the search's
rationals.upper_hull, and reads the game only through its fields, the
structure's support_endpoints() and verifiability.messages_at.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from operator import itemgetter
from typing import Mapping, Optional, Sequence

from .errors import DomainError, OracleSizeError
from .equilibrium import (
    Equilibrium,
    GameSpec,
    Signal,
    VerifyReport,
    verify_equilibrium,
)
from .piecewise import Point
from .rationals import ONE, ZERO, Coordinates, upper_hull
from .verifiability import messages_at


def _table_and_grid(game: GameSpec) -> tuple[Coordinates, tuple[Fraction, ...], tuple[int, ...]]:
    """The oracle's own coordinate table, the critical grid on it, and the payoff piece of every grid slot.

    The table holds 0, 1, the prior, the payoff breakpoints and the support
    endpoints, derived from game.payoff and game.structure (never the
    solver's table); the grid adds the midpoint of each gap between them, so
    grid[i] sits at table position i.  Every breakpoint is a table point, so
    piece k holds the slots from 2 rank(b_k) up to 2 rank(b_k+1): one range
    fill gives piece[i], the index of v's piece at grid[i], and
    piece[table.position(q)] is that index at any q in [0,1].
    """
    points = (ZERO, ONE, game.prior, *game.payoff.breakpoints, *game.structure.support_endpoints())
    table = Coordinates({(q.numerator, q.denominator): q for q in points})
    base, pairs, rank = table.points, table.pairs, table.rank
    grid = []
    for a, (an, ad), (bn, bd) in zip(base, pairs, pairs[1:]):
        grid.append(a)
        grid.append(Fraction(an * bd + bn * ad, 2 * ad * bd))  # (a + b) / 2
    grid.append(base[-1])
    starts = [2 * rank[b.numerator, b.denominator] for b in game.payoff.breakpoints] + [len(grid)]
    piece = [0] * len(grid)
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        piece[a:b] = [k] * (b - a)
    return table, tuple(grid), tuple(piece)


def _hull_segment(pts: Sequence[Point], x: Fraction) -> tuple[Point, Point]:
    """The edge of the upper concave hull of pts whose x-range holds x.

    pts are exact points (Fractions, or ints on a scaled grid) sorted by
    strictly increasing x, as the critical grid is.  A vertex at x comes back
    as a degenerate edge (vertex, vertex); otherwise the edge's ends bracket x
    strictly.  The hull is rationals.upper_hull on each point's numerators
    and denominators (an int is its own numerator, over 1).
    """
    if not pts or not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(f"query {x} outside the hull's x-range")
    hull = [pts[i] for i in upper_hull([(px.numerator, px.denominator, py.numerator, py.denominator) for px, py in pts])]
    xs = [px for px, _ in hull]
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return hull[i], hull[i]
    return hull[i], hull[i + 1]


def _interim_values(game: GameSpec, beliefs: Mapping[str, Fraction]) -> list[int]:
    """w(s) = max over available m of v(beliefs[m]), v(s) for an identity message, at every grid point.

    Slot i, the grid's point i and the table's position i, holds w's payoff
    piece index (game.payoff.values[w[i]] is w there).  Each belief's level
    is the game's piece table read at its position, on the table or on a
    gap.  Then a range fill over positions: every support endpoint is a
    table point, so an interval [lo, hi] covers the slots from 2 rank(lo) to
    2 rank(hi), one fewer when it is open at hi.  Messages are written in
    ascending order of their level, so each slot keeps the highest level
    available there.  Under full verifiability each slot is then raised to
    v(s)'s piece, the identity message's level (the only one under
    mandatory disclosure).
    """
    table, grid, piece = game._oracle_grid
    structure, rank = game.structure, table.rank
    w = [-1] * len(grid)
    levels = [(piece[table.position(beliefs[name])], supp) for name, supp in structure.messages]
    for lvl, supp in sorted(levels, key=itemgetter(0)):
        for iv in supp.intervals:
            a = 2 * rank[iv.lo.numerator, iv.lo.denominator]
            b = 2 * rank[iv.hi.numerator, iv.hi.denominator] + iv.hi_closed
            w[a:b] = [lvl] * (b - a)
    if structure.full_verifiability:
        w = list(map(max, w, piece))
    return w


def _supporting_line(game: GameSpec, beliefs: Mapping[str, Fraction], value: Fraction) -> Optional[VerifyReport]:
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
    """
    table, grid, _ = game._oracle_grid
    w = _interim_values(game, beliefs)
    vals, p, n = game.payoff.values, game.prior, len(w)
    k = 2 * table.rank[p.numerator, p.denominator]
    vn, vd, pn, pd = value.numerator, value.denominator, p.numerator, p.denominator
    # (v_l - v*) times v*_d v_ld, and v_ld, for each payoff level l
    rise = [(y.numerator * vd - vn * y.denominator, y.denominator) for y in vals]
    at_p = rise[w[k]][0]
    if at_p > 0:
        return _below(value, vals[w[k]], Signal((p,), (ONE,)))
    # the runs of w: [a, b) for consecutive a, b in cuts
    cuts = [0, *(i for i in range(1, n) if w[i] != w[i - 1]), n]
    # lo = max s right of p and hi = min s left of it, as (num, den, slot)
    lo, hi = (-1, 0, None), (1, 0, None)
    for a, b in zip(cuts, cuts[1:]):
        for i in (a, b - 1):
            x = grid[i]
            dy, yd = rise[w[i]]
            num, den = dy * x.denominator, (x.numerator * pd - pn * x.denominator) * yd
            if i > k:
                if num * lo[1] > lo[0] * den:
                    lo = num, den, i
            elif i < k:
                num, den = -num, -den
                if num * hi[1] < hi[0] * den:
                    hi = num, den, i
    if lo[0] * hi[1] > hi[0] * lo[1]:
        left, right = grid[hi[2]], grid[lo[2]]
        w_lo = (right - p) / (right - left)
        u = w_lo * vals[w[hi[2]]] + (1 - w_lo) * vals[w[lo[2]]]
        return _below(value, u, Signal((left, right), (w_lo, 1 - w_lo)))
    if at_p == 0:  # the line touches w at p
        return None
    if lo[0] * hi[1] == hi[0] * lo[1]:  # the line touches w on both sides of p
        return None
    lo_s, hi_s = (Fraction(num, den) if den else None for num, den, _ in (lo, hi))
    slope = lo_s + 1 if hi_s is None else hi_s - 1 if lo_s is None else (lo_s + hi_s) / 2
    return VerifyReport(False, 1, f"value {value} above best response: no signal attains it", slope * pd / vd)


def _below(value: Fraction, u: Fraction, signal: Signal) -> VerifyReport:
    """The report of a profitable deviation: the signal, worth u > value."""
    detail = f"profitable deviation: value {value} below {u}, the witness signal's value (not necessarily the best response)"
    return VerifyReport(False, 1, detail, signal)


def exhaustive_search(
    game: GameSpec, max_messages: int = 4, max_grid: int = 12
) -> set[Fraction]:
    """All equilibrium values over supports of size <= 3 on the critical grid.

    Pure messaging maps are enumerated over available messages; on-path beliefs
    come from Bayes, off-path beliefs are maximally skeptical; candidates are
    kept iff they pass verify_equilibrium.  Size-3 supports carry a
    one-parameter family of Bayes-plausible weights, covered exactly (see
    exhaustive_equilibria).  The support-size cap is a desk-scale scope
    bound, not a theorem.
    """
    found = exhaustive_equilibria(game, max_messages, max_grid, dedup_values=True)
    return {eq.value for eq in found}


def exhaustive_equilibria(
    game: GameSpec,
    max_messages: int = 4,
    max_grid: int = 12,
    dedup_values: bool = False,
) -> list[Equilibrium]:
    """The verified equilibrium profiles behind exhaustive_search, in the order found.

    Every candidate first passes two of verify's tests on Python ints,
    condition (2) and the best response at its levels.  Only then does
    full_check assemble it in Fractions (Bayes beliefs, skeptical off path,
    and the value read from the piece table) and keep it iff
    verify_equilibrium accepts it, without testing either again.  The
    grid, the prior and the payoff breakpoints are scaled over the lcm of
    the grid's denominators; a payoff value is ranked by its piece's index,
    for comparisons, and scaled over the lcm of the values' denominators,
    for sums.  Condition (2) compares ranks; once it holds, the levels (the
    rank of v at each message's belief, messages in name order) form a
    tuple that keys the memoised best response, and the value test is
    cross-multiplied.

    Size-3 supports a < b < c around the prior p carry a one-parameter family
    of Bayes-plausible weights W(t), affine in t on [0, t_hi].  At fixed
    levels L the value W(t).L is affine in t and never above the best
    response: by condition (2) each (s, L) is a point of w on the grid, so on
    or under its hull, and W(t) has mean p.  The two can meet inside
    (0, t_hi) only if they meet throughout, so a candidate's value must not
    move with t:

    * if all types pool, the belief is p at any weights: the value is v(p);
    * if none pool, the beliefs are the types: the value is constant iff
      (b, v(b)) lies on the chord from (a, v(a)) to (c, v(c)), one test per
      support, and it is then that chord at p;
    * if a pair pools at level r beside a singleton k, the value is
      r + W_k(t) (L_k - r), and W_k moves with t (W_b = t; W_a and W_c fall),
      so only r = L_k can pass.

    In the first and last cases every sent message has one level l, so the
    value is v_l and condition (2) asks only that no message available in
    the support rank above l (at_one_level).  The pair's level changes at
    the cuts where its posterior crosses a payoff breakpoint; the cuts and
    levels depend on the support and the pair's positions, not on the
    messages, so each (support, pair) is planned once: its cut and
    subinterval midpoint at level L_k are the candidates (pair_candidates),
    and where it has none, its later profiles are skipped untested.

    With dedup_values=True, a profile whose value is already certified is
    skipped before assembly, where its value is known (v_l, or the best
    response it must equal); cheaper when only the value set matters.
    full_check need not test again: only a pair plan sends one profile to
    it twice, with equal levels, so verify accepts both or neither.  If
    both, v_l is the best response and a < p < c sit at level l, so w is at
    most l on the grid (its hull is flat at v_l over [a, c]).  Two
    candidates mean a cut, where the pair's posterior q is breakpoint l, a
    grid point across p from the singleton s_k: the size-2 profile on
    {q, s_k} (s_k keeps its message; q sends another, or the same) is then
    an equilibrium of value v_l, certified before any size-3 support.
    """
    structure = game.structure
    if structure.full_verifiability:
        raise OracleSizeError("full verifiability carries infinitely many messages")
    if len(structure.messages) > max_messages:
        raise OracleSizeError(f"structure has more than {max_messages} messages")
    table, grid, v_grid = game._oracle_grid
    if len(grid) > max_grid:
        raise OracleSizeError(f"critical grid exceeds {max_grid} points")
    v, p = game.payoff, game.prior
    skeptical = {name: supp.minimum for name, supp in structure.messages}
    names = tuple(sorted(skeptical))
    found: list[Equilibrium] = []
    values: set[tuple[int, int]] = set()  # certified values as (numerator, denominator)

    # integer coordinates: grid points, the prior and the payoff breakpoints
    # (all on the grid) over the lcm of the grid's denominators
    scale = lcm(*(s.denominator for s in grid))
    xs = [s.numerator * (scale // s.denominator) for s in grid]
    n, ip = len(grid), 2 * table.rank[p.numerator, p.denominator]
    P = xs[ip]
    bps = [b.numerator * (scale // b.denominator) for b in v.breakpoints]
    # payoff levels: the payoff is non-decreasing with merged pieces, so its
    # values strictly increase and a piece's index ranks its value; the values
    # themselves, for sums, over the lcm of their denominators, and as keys
    vscale = lcm(*(y.denominator for y in v.values))
    scaled = [y.numerator * (vscale // y.denominator) for y in v.values]
    keys = [(y.numerator, y.denominator) for y in v.values]

    index = {name: k for k, name in enumerate(names)}
    avail = [tuple(index[m] for m in sorted(messages_at(structure, s))) for s in grid]
    skeptical_levels = [v_grid[table.position(skeptical[m])] for m in names]

    target_memo: dict[tuple[int, ...], tuple[int, int, tuple[int, int]]] = {}

    def target_for(lev: tuple[int, ...]) -> tuple[int, int, tuple[int, int]]:
        """The best response to levels lev, memoised: num, den with value
        num / (den * vscale), and that value in lowest terms as (numerator, denominator)."""
        hit = target_memo.get(lev)
        if hit is None:
            pts = [(x, scaled[max(lev[o] for o in av)]) for x, av in zip(xs, avail)]
            (x0, y0), (x1, y1) = _hull_segment(pts, P)
            num, den = (y0, 1) if x0 == x1 else (y0 * (x1 - x0) + (y1 - y0) * (P - x0), x1 - x0)
            g = gcd(num, den * vscale)
            hit = target_memo[lev] = (num, den, (num // g, den * vscale // g))
        return hit

    def best_is(lev, vn, vd) -> bool:
        """The best response to levels lev is the value vn / (vd * vscale), not yet certified."""
        num, den, target = target_for(lev)
        return not (dedup_values and target in values) and vn * den == num * vd

    def at_one_level(support, mu, l) -> bool:
        """The int tests of a profile whose sent messages all have level l, so its value is v_l."""
        if dedup_values and keys[l] in values or any(  # full_check would drop a certified value
            skeptical_levels[o] > l for s in support for o in avail[s] if o not in mu
        ):
            return False
        lev = list(skeptical_levels)
        for m in mu:
            lev[m] = l
        return best_is(tuple(lev), scaled[l], 1)

    def separating(support, mu, vn, vd) -> bool:
        """The int tests of a profile that sends each type's own message, with value vn / (vd * vscale)."""
        lev = list(skeptical_levels)
        for s, m in zip(support, mu):
            lev[m] = v_grid[s]
        cond2 = not any(lev[o] > lev[m] for s, m in zip(support, mu) for o in avail[s])
        return cond2 and best_is(tuple(lev), vn, vd)

    def full_check(support_idx, mu_idx, weights):
        """Exact assembly of one candidate profile (grid and message indices), kept iff verify_equilibrium accepts it."""
        support = tuple(grid[i] for i in support_idx)
        mu = tuple(names[m] for m in mu_idx)
        beliefs = dict(skeptical)
        for m in set(mu):
            idx = [i for i, sent in enumerate(mu) if sent == m]
            beliefs[m] = sum(weights[i] * support[i] for i in idx) / sum(weights[i] for i in idx)
        value = sum(w * v.values[v_grid[table.position(beliefs[m])]] for w, m in zip(weights, mu))
        eq = Equilibrium(signal=Signal(support, weights), messaging=dict(zip(support, mu)), beliefs=beliefs, value=value)
        if verify_equilibrium(game, eq).ok:
            values.add((value.numerator, value.denominator))
            found.append(eq)

    def weights_at(support, t):
        a, b, c = (grid[i] for i in support)
        return ((c - p) - t * (c - b)) / (c - a), t, ((p - a) - t * (b - a)) / (c - a)

    def pair_candidates(support, S, k, tn, td, w0, w1, level):
        """The t (num, den), ascending, where the pair pooled beside the
        singleton at position k has level `level`: at the cut where its
        posterior crosses breakpoint `level`, and at the midpoint of the
        subinterval between cuts that holds that level.

        At each end of [0, t_hi] one type carries no weight (b at 0, a or
        c at t_hi), so the pooled posterior there is a grid point: the
        other pooled type, or p when the pair carries all the weight (or
        none: b = p pooling a with c).  In between it is a ratio of affine
        functions n(t)/d(t) with d > 0, so it is monotone: the cuts are the
        breakpoints strictly between its end values, met in order.  At a
        cut the posterior is the breakpoint; on a subinterval the level is
        v at its lower end's posterior, since payoff pieces are left-closed.
        So the subinterval at level L runs from the lower end or cut L to
        cut L + 1 or the upper end, and only those two cuts are computed.
        """
        i, j = (x for x in range(3) if x != k)
        e0, e1 = (
            ip if w[k] == 0 or w[i] == w[j] == 0  # all the weight, or none
            else support[j] if w[i] == 0
            else support[i]
            for w in (w0, w1)
        )
        rising = xs[e0] <= xs[e1]
        # the cuts are at breakpoints first .. last - 1; the lower end is on piece first - 1
        first, last = bisect_right(bps, min(xs[e0], xs[e1])), bisect_left(bps, max(xs[e0], xs[e1]))
        if not (level == first - 1 or first <= level < last):
            return []
        # n(t) = x d(t) at the cut at breakpoint x: t = t_hi (x d0 - n0) /
        # ((n1 - n0) - x (d1 - d0)), with W0 brought over W1's denominator
        n0, d0 = (w0[i] * S[i] + w0[j] * S[j]) * td, (w0[i] + w0[j]) * td
        n1, d1 = w1[i] * S[i] + w1[j] * S[j], w1[i] + w1[j]

        def cut(q):
            return tn * (bps[q] * d0 - n0), td * ((n1 - n0) - bps[q] * (d1 - d0))

        lower, upper = ((0, 1), (tn, td)) if rising else ((tn, td), (0, 1))  # t at the lower and upper ends
        (an, ad), (bn, bd) = cut(level) if level >= first else lower, cut(level + 1) if level + 1 < last else upper
        mid = an * bd + bn * ad, 2 * ad * bd
        if level < first:
            return [mid]
        return [cut(level), mid] if rising else [mid, cut(level)]

    # size 1: no information acquisition
    for m in avail[ip]:
        if at_one_level((ip,), (m,), v_grid[ip]):
            full_check((ip,), (m,), (ONE,))

    # size 2: weights pinned by Bayes plausibility, (B - P, P - A) / (B - A)
    for a in range(ip):
        for b in range(ip + 1, n):
            A, B = xs[a], xs[b]
            value = scaled[v_grid[a]] * (B - P) + scaled[v_grid[b]] * (P - A)  # when separating
            for mu in product(avail[a], avail[b]):
                if at_one_level((a, b), mu, v_grid[ip]) if mu[0] == mu[1] else separating((a, b), mu, value, B - A):
                    w_lo = Fraction(B - P, B - A)
                    full_check((a, b), mu, (w_lo, 1 - w_lo))

    # size 3: the supports a < ip < c, in the order of combinations(range(n), 3)
    for a in range(ip):
        for b in range(a + 1, n - 1):
            for c in range(max(b, ip) + 1, n):
                support = a, b, c
                S = A, B, C = xs[a], xs[b], xs[c]
                span = C - A
                # t_hi = min((C - P) / (C - B), (P - A) / (B - A)) = tn / td
                tn, td = (C - P, C - B) if (C - P) * (B - A) <= (P - A) * (C - B) else (P - A, B - A)
                w0 = (C - P, 0, P - A)  # W(0), over span
                w1 = ((C - P) * td - tn * (C - B), tn * span, (P - A) * td - tn * (B - A))  # W(t_hi), over span * td
                ya, yb, yc = scaled[v_grid[a]], scaled[v_grid[b]], scaled[v_grid[c]]
                flat = yb * span == ya * (C - B) + yc * (B - A)
                plans: list = [None] * 3  # by the singleton's position, which fixes the level
                for mu in product(avail[a], avail[b], avail[c]):
                    m0, m1, m2 = mu
                    if m0 == m1 == m2 or m0 != m1 != m2 != m0:  # weight-independent: try t_hi / 2
                        if at_one_level(support, mu, v_grid[ip]) if m0 == m1 else (
                            flat and separating(support, mu, ya * (C - P) + yc * (P - A), span)
                        ):
                            full_check(support, mu, weights_at(support, Fraction(tn, 2 * td)))
                    else:
                        k = 0 if m1 == m2 else 1 if m0 == m2 else 2
                        level = v_grid[support[k]]
                        if plans[k] != [] and at_one_level(support, mu, level):
                            if plans[k] is None:
                                plans[k] = pair_candidates(support, S, k, tn, td, w0, w1, level)
                            for t_n, t_d in plans[k]:
                                full_check(support, mu, weights_at(support, Fraction(t_n, t_d)))
    return found
