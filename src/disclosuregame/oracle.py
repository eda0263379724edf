"""Brute-force verification: grid best responses and exhaustive equilibrium search.

The deviation oracle works on the critical grid: every payoff breakpoint and
support endpoint, 0, 1, the prior, and the midpoint of each gap between them.
The interim value w(s) = max over available m of v(beliefs[m]) (v(s) for an
identity message) is constant on each open gap, since availability and v only
change at grid points.

Precondition for exactness: w must be upper semicontinuous.  Then an optimal
signal can be supported on contact points of cav w, all of which lie on the
grid, and the discrete hull over the grid equals the continuum optimum.  A
right-open support can break this: w may then jump down at the open end, and
the supremum over signals that approach that end from the left is not attained
and not on the grid, so the oracle returns a value below it.  Structures whose
supports are all right-closed meet the precondition (the payoff is
non-decreasing, so identity messages keep it too).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import DomainError, OracleSizeError, PreconditionError
from .equilibrium import (
    Equilibrium,
    GameSpec,
    Signal,
    verify_equilibrium,
)
from .piecewise import Point, step_eval
from .rationals import ONE, ZERO
from .verifiability import messages_at

CriticalGrid = tuple[Fraction, ...]


def critical_grid(game: GameSpec) -> CriticalGrid:
    """0, 1, the prior, all payoff breakpoints and support endpoints, plus midpoints."""
    pts = {ZERO, ONE, game.prior}
    pts.update(game.payoff.breakpoints)
    pts.update(game.structure.support_endpoints())
    base = sorted(pts)
    grid = []
    for a, b in zip(base, base[1:]):
        grid.append(a)
        grid.append((a + b) / 2)
    grid.append(base[-1])
    return tuple(grid)


def discrete_cav(points: Sequence[Point], x: Fraction) -> Fraction:
    """Value at x of the upper concave hull of a finite point set (exact).

    Implemented independently of the analytic envelope: slope-monotone scan
    over the sorted points, then interpolation on the hull chain.
    """
    x = Fraction(x)
    (x0, y0), (x1, y1) = _hull_segment(points, x)
    if x0 == x1:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _hull_segment(points: Sequence[Point], x: Fraction) -> tuple[Point, Point]:
    """The edge of the points' upper concave hull whose x-range holds x.

    A vertex at x comes back as a degenerate edge (vertex, vertex); otherwise
    the edge's ends bracket x strictly.
    """
    best: dict[Fraction, Fraction] = {}
    for px, py in points:
        px, py = Fraction(px), Fraction(py)
        if px not in best or py > best[px]:
            best[px] = py
    pts = sorted(best.items())
    if not pts or not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(f"query {x} outside the hull's x-range")
    hull: list[Point] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (pt[1] - y1) * (x1 - x0) >= (y1 - y0) * (pt[0] - x1):
                hull.pop()  # slope does not strictly decrease through hull[-1]
            else:
                break
        hull.append(pt)
    xs = [px for px, _ in hull]
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return hull[i], hull[i]
    return hull[i], hull[i + 1]


def _interim_values(game: GameSpec, beliefs: Mapping[str, Fraction], grid: CriticalGrid) -> list[Fraction]:
    """w(s) = max over available m of v(beliefs[m]), v(s) for an identity message, at every grid point.

    A range fill over grid indices: every support endpoint is a grid point, so
    an interval [lo, hi] covers exactly the grid indices from index(lo) to
    index(hi), one fewer when it is open at hi.  Messages are written in
    ascending order of their level v(beliefs[m]), so each slot ends up holding
    the highest level available there.  Under full verifiability each slot is
    then compared with v(s), the level of the identity message; with no finite
    message covering a slot (mandatory disclosure), v(s) is the value.
    """
    structure, v = game.structure, game.payoff
    index = {s: i for i, s in enumerate(grid)}
    w: list[Fraction | None] = [None] * len(grid)
    levels = [(step_eval(v, beliefs[name]), supp) for name, supp in structure.messages]
    for level, supp in sorted(levels, key=itemgetter(0)):
        for iv in supp.intervals:
            a, b = index[iv.lo], index[iv.hi] + iv.hi_closed
            w[a:b] = [level] * (b - a)
    if structure.full_verifiability:
        for i, s in enumerate(grid):
            own = step_eval(v, s)
            if w[i] is None or w[i] < own:
                w[i] = own
    return w


def best_deviation(game: GameSpec, beliefs: Mapping[str, Fraction]) -> tuple[Fraction, Signal]:
    """Best-response value against fixed beliefs, with an achieving signal.

    The value is the discrete hull of the interim value w over the critical
    grid, at the prior.  When the prior is not itself optimal, the signal
    splits it between the nearest grid points on either side whose w lies on
    the hull edge over the prior.  Any chord through (prior, value) between
    two grid points lies on that edge (the hull is a concave majorant), so
    these are the closest such pair, not the edge's end vertices.

    The value is the exact best response only when w is upper
    semicontinuous (see the module docstring); at a right-open support end
    where w drops, the supremum can lie above the returned value, unattained.
    """
    for name, supp in game.structure.messages:
        if name not in beliefs:
            raise PreconditionError(f"beliefs missing message {name!r}")
        lo, hi = supp.hull_bounds()
        if not (lo <= beliefs[name] <= hi):
            raise PreconditionError(f"belief for {name!r} outside conv support")
    grid = critical_grid(game)
    w = _interim_values(game, beliefs, grid)
    p = game.prior
    (x0, y0), (x1, y1) = _hull_segment(list(zip(grid, w)), p)

    def on_edge(i: int) -> bool:
        return (w[i] - y0) * (x1 - x0) == (y1 - y0) * (grid[i] - x0)

    k = grid.index(p)
    if x0 == x1 or on_edge(k):
        return w[k], Signal((p,), (ONE,))
    value = y0 + (y1 - y0) * (p - x0) / (x1 - x0)
    i = k - 1
    while not on_edge(i):
        i -= 1
    j = k + 1
    while not on_edge(j):
        j += 1
    left, right = grid[i], grid[j]
    w_lo = (right - p) / (right - left)
    return value, Signal((left, right), (w_lo, 1 - w_lo))


def exhaustive_search(
    game: GameSpec, max_messages: int = 4, max_grid: int = 12
) -> set[Fraction]:
    """All equilibrium values over supports of size <= 3 on the critical grid.

    Pure messaging maps are enumerated over available messages; on-path beliefs
    come from Bayes, off-path beliefs are maximally skeptical; candidates are
    kept iff they pass verify_equilibrium.  Size-3 supports carry a
    one-parameter family of Bayes-plausible weights, handled exactly by
    subdividing the parameter range where a pooled posterior crosses a payoff
    breakpoint; between crossings achieved and best-response values are
    affine/constant, so each subinterval contributes at most one equilibrium
    value.  The support-size cap is a desk-scale scope bound, not a theorem.
    """
    found = exhaustive_equilibria(game, max_messages, max_grid, dedup_values=True)
    return {eq.value for eq in found}


def exhaustive_equilibria(
    game: GameSpec,
    max_messages: int = 4,
    max_grid: int = 12,
    dedup_values: bool = False,
) -> list[Equilibrium]:
    """The verified equilibrium profiles behind exhaustive_search.

    With dedup_values=True, profiles whose value is already certified are
    skipped (cheaper when only the value set matters).
    """
    structure = game.structure
    if structure.full_verifiability:
        raise OracleSizeError("full verifiability carries infinitely many messages")
    if len(structure.messages) > max_messages:
        raise OracleSizeError(f"structure has more than {max_messages} messages")
    grid = critical_grid(game)
    if len(grid) > max_grid:
        raise OracleSizeError(f"critical grid exceeds {max_grid} points")
    v, p = game.payoff, game.prior
    skeptical = {name: supp.minimum for name, supp in structure.messages}
    v_skeptical = {m: step_eval(v, b) for m, b in skeptical.items()}
    avail = {s: sorted(messages_at(structure, s)) for s in grid}
    found: list[Equilibrium] = []
    values: set[Fraction] = set()

    def vcache_for(beliefs_overrides: dict[str, Fraction]) -> dict[str, Fraction]:
        out = dict(v_skeptical)
        for m, b in beliefs_overrides.items():
            out[m] = step_eval(v, b)
        return out

    def cond2_ok(support, mu, vcache) -> bool:
        for s, m in zip(support, mu):
            vm = vcache[m]
            if any(vcache[o] > vm for o in avail[s]):
                return False
        return True

    names_order = tuple(sorted(skeptical))
    target_memo: dict[tuple, Fraction] = {}

    def target_for(vcache) -> Fraction:
        # the best response depends only on the per-message payoff levels,
        # which live in the finite set of payoff values: memoize
        key = tuple(vcache[m] for m in names_order)
        hit = target_memo.get(key)
        if hit is None:
            pts = [(s, max(vcache[m] for m in avail[s])) for s in grid]
            hit = target_memo[key] = discrete_cav(pts, p)
        return hit

    def full_check(support, mu, weights):
        """Exact assembly and verification of one candidate profile."""
        groups: dict[str, list[int]] = {}
        for i, m in enumerate(mu):
            groups.setdefault(m, []).append(i)
        beliefs = dict(skeptical)
        for m, idx in groups.items():
            tot = sum(weights[i] for i in idx)
            beliefs[m] = sum(weights[i] * support[i] for i in idx) / tot
        vcache = vcache_for({m: beliefs[m] for m in groups})
        if not cond2_ok(support, mu, vcache):
            return
        value = sum(w * vcache[m] for w, m in zip(weights, mu))
        if dedup_values and value in values:
            return  # another profile already certified this value
        if value != target_for(vcache):
            return
        eq = Equilibrium(
            signal=Signal(support, weights),
            messaging=dict(zip(support, mu)),
            beliefs=beliefs,
            value=value,
            s_minus=min(support),
            s_plus=max(support),
        )
        if verify_equilibrium(game, eq).ok:
            values.add(value)
            found.append(eq)

    # size 1: no information acquisition
    for m in avail[p]:
        full_check((p,), (m,), (ONE,))

    # size 2: weights pinned by Bayes plausibility
    lows = [s for s in grid if s < p]
    highs = [s for s in grid if s > p]
    for a in lows:
        for b in highs:
            w_lo = (b - p) / (b - a)
            weights = (w_lo, 1 - w_lo)
            for mu in product(avail[a], avail[b]):
                full_check((a, b), mu, weights)

    # size 3: one-parameter family of Bayes-plausible weights
    for support in combinations(grid, 3):
        a, b, c = support
        if not (a < p < c):
            continue
        span = c - a
        t_hi = min((c - p) / (c - b), (p - a) / (b - a))
        if t_hi <= 0:
            continue

        def weights_at(t, a=a, b=b, c=c, span=span):
            return ((c - p) - t * (c - b)) / span, t, ((p - a) - t * (b - a)) / span

        for mu in product(avail[a], avail[b], avail[c]):
            groups: dict[str, list[int]] = {}
            for i, m in enumerate(mu):
                groups.setdefault(m, []).append(i)
            sizes = sorted(len(idx) for idx in groups.values())

            if sizes == [3]:
                # everyone pools: the posterior is the prior at any weight
                vcache = vcache_for({mu[0]: p})
                if cond2_ok(support, mu, vcache):
                    value = step_eval(v, p)
                    if value == target_for(vcache):
                        full_check(support, mu, weights_at(t_hi / 2))
                continue

            if sizes == [1, 1, 1]:
                # beliefs are the types themselves: weight-independent
                vcache = vcache_for({m: support[i] for i, m in enumerate(mu)})
                if not cond2_ok(support, mu, vcache):
                    continue
                target = target_for(vcache)
                vals = [vcache[m] for m in mu]

                def value_at(t):
                    w = weights_at(t)
                    return sum(w[i] * vals[i] for i in range(3))

                v0, v1 = value_at(ZERO), value_at(t_hi)
                if v0 == v1:
                    if v0 == target:
                        full_check(support, mu, weights_at(t_hi / 2))
                    continue
                t_star = (target - v0) * t_hi / (v1 - v0)
                if 0 < t_star < t_hi:
                    full_check(support, mu, weights_at(t_star))
                continue

            # one pooled pair plus a singleton: the pooled posterior moves with t
            (pair_idx,) = [idx for idx in groups.values() if len(idx) == 2]
            i, j = pair_idx

            def pool_nd(t):
                w = weights_at(t)
                return w[i] * support[i] + w[j] * support[j], w[i] + w[j]

            n0, d0 = pool_nd(ZERO)
            n1, d1 = pool_nd(t_hi)
            cuts = []
            for theta in v.breakpoints:
                g0 = n0 - theta * d0
                g1 = n1 - theta * d1
                if g0 == g1:
                    continue
                t_cut = -g0 * t_hi / (g1 - g0)
                if 0 < t_cut < t_hi:
                    cuts.append(t_cut)

            def profile_gap(t):
                """achieved value minus best-response value at parameter t."""
                w = weights_at(t)
                num, den = pool_nd(t)
                overrides = {m: support[k] for k, m in enumerate(mu) if len(groups[m]) == 1}
                overrides[mu[i]] = num / den
                vcache = vcache_for(overrides)
                if not cond2_ok(support, mu, vcache):
                    return None
                value = sum(w[k] * vcache[mu[k]] for k in range(3))
                return value - target_for(vcache), value

            candidate_ts = set(cuts)
            borders = [ZERO] + sorted(set(cuts)) + [t_hi]
            for t0, t1 in zip(borders, borders[1:]):
                if not t0 < t1:
                    continue
                tm = (t0 + t1) / 2
                res = profile_gap(tm)
                if res is None:
                    continue
                gap_a, _ = res
                if gap_a == 0:
                    candidate_ts.add(tm)
                    continue
                t2 = (tm + t1) / 2
                res2 = profile_gap(t2)
                if res2 is None:
                    continue
                gap_b, _ = res2
                if gap_a == gap_b:
                    continue
                t_star = tm - gap_a * (t2 - tm) / (gap_b - gap_a)
                if t0 < t_star < t1:
                    candidate_ts.add(t_star)
            for t in sorted(candidate_ts):
                if 0 < t < t_hi:
                    full_check(support, mu, weights_at(t))
    return found
