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

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter, mul
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
    over the sorted points, then interpolation on the hull chain.  The points
    may come in any order, as any numbers, with repeated x (the highest y
    counts).
    """
    best: dict[Fraction, Fraction] = {}
    for px, py in points:
        px, py = Fraction(px), Fraction(py)
        if px not in best or py > best[px]:
            best[px] = py
    return _sorted_cav(sorted(best.items()), Fraction(x))


def _sorted_cav(pts: Sequence[Point], x: Fraction) -> Fraction:
    """discrete_cav for Fraction points already sorted by strictly increasing x."""
    (x0, y0), (x1, y1) = _hull_segment(pts, x)
    if x0 == x1:
        return y0
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _hull_segment(pts: Sequence[Point], x: Fraction) -> tuple[Point, Point]:
    """The edge of the upper concave hull of pts whose x-range holds x.

    pts are Fraction points sorted by strictly increasing x, as the critical
    grid is.  A vertex at x comes back as a degenerate edge (vertex, vertex);
    otherwise the edge's ends bracket x strictly.
    """
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
    one-parameter family of Bayes-plausible weights, covered exactly: its
    range is cut where a pooled posterior crosses a payoff breakpoint, and
    each cut and each subinterval between cuts is one candidate (see
    exhaustive_equilibria).  The support-size cap is a desk-scale scope bound,
    not a theorem.
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

    full_check assembles every candidate exactly and keeps it iff it passes
    condition (2) (no type has an available message with a higher level than
    the one it sends), its value equals the best response to its beliefs (the
    discrete hull of w at the prior) and verify_equilibrium accepts it.

    Size-3 supports a < b < c around the prior p are planned per support.
    Their Bayes-plausible weights W(t) are affine in t on [0, t_hi]; W0 = W(0)
    and W1 = W(t_hi) are computed once per support, and v at the grid points
    once per game.  The levels L (v at each sent message's belief) are
    constant in t unless two types pool; then they change only at the cuts
    where the pooled posterior crosses a payoff breakpoint.  The cuts and the
    pooled level at each cut and on each subinterval between them depend on
    the support and the pooled pair, not on the messages, so they are built
    once per (support, pair) and memoised.  A messaging profile is then
    lookups, condition (2) and two dot products.

    At fixed levels the value W(t).L is affine in t, and it is never above
    the best response: by condition (2) each (s, L) is a point of w on the
    grid, so on or under its hull, and W(t) has mean p.  So the gap between
    the two is zero inside (0, t_hi) only if it is zero throughout; with a
    nonzero slope its closed-form root t* = (target - W0.L) t_hi /
    (W1.L - W0.L) lies at or beyond an end.  A candidate at t therefore
    exists iff W0.L = target = W1.L; each subinterval is tried at its
    midpoint and each cut at the cut.

    With dedup_values=True, a profile whose value is already certified is
    skipped (cheaper when only the value set matters).  A size-3 profile is
    skipped before assembly only when its value is known, because it equals
    the best response, and that value is already certified; full_check
    drops every other repeat.
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
            hit = target_memo[key] = _sorted_cav(pts, p)
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

    # size 3: the Bayes-plausible weights form a segment, affine in t
    v_grid = {s: step_eval(v, s) for s in grid}
    for support in combinations(grid, 3):
        a, b, c = support
        if not (a < p < c):
            continue
        span = c - a
        t_hi = min((c - p) / (c - b), (p - a) / (b - a))

        def weights_at(t, a=a, b=b, c=c, span=span):
            return ((c - p) - t * (c - b)) / span, t, ((p - a) - t * (b - a)) / span

        w0, w1 = weights_at(ZERO), weights_at(t_hi)
        pair_plans: dict[tuple[int, int], list[tuple[Fraction, Fraction]]] = {}

        def pair_plan(i, j, support=support, t_hi=t_hi, w0=w0, w1=w1):
            """(t, level of the pooled message) at each cut where the posterior
            of pooled types i, j crosses a payoff breakpoint, and at the
            midpoint of each subinterval between cuts, in ascending t.

            The posterior n(t)/d(t) is a ratio of affine functions with d > 0
            before t_hi, so it is monotone: the cuts are the breakpoints
            strictly between its end values, met in order.  At a cut the
            posterior is the breakpoint; on a subinterval the level is v at
            its lower end's posterior, since payoff pieces are left-closed.
            """
            n0 = w0[i] * support[i] + w0[j] * support[j]
            d0 = w0[i] + w0[j]
            n1 = w1[i] * support[i] + w1[j] * support[j]
            d1 = w1[i] + w1[j]
            q0 = n0 / d0
            q1 = n1 / d1 if d1 else q0  # d1 = 0 only when b = p pools a with c: q is p throughout
            bps = v.breakpoints
            thetas = bps[bisect_right(bps, min(q0, q1)) : bisect_left(bps, max(q0, q1))]
            if q1 < q0:
                thetas = thetas[::-1]
            cuts = [((theta * d0 - n0) * t_hi / ((n1 - n0) - theta * (d1 - d0)), theta) for theta in thetas]
            plan = []
            for (t0, x0), (t1, x1) in zip([(ZERO, q0), *cuts], [*cuts, (t_hi, q1)]):
                plan.append(((t0 + t1) / 2, step_eval(v, min(x0, x1))))
                if t1 < t_hi:
                    plan.append((t1, step_eval(v, x1)))
            return plan

        for mu in product(avail[a], avail[b], avail[c]):
            if mu[0] == mu[1] == mu[2]:
                # everyone pools: the posterior is the prior at any weight
                candidates = [(t_hi / 2, {**v_skeptical, mu[0]: v_grid[p]})]
            elif len(set(mu)) == 3:
                # beliefs are the types themselves: weight-independent
                candidates = [(t_hi / 2, {**v_skeptical, **{m: v_grid[s] for s, m in zip(support, mu)}})]
            else:
                # one pooled pair plus a singleton k: the pooled posterior moves with t
                i, j = next((i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if mu[i] == mu[j])
                k = 3 - i - j
                plan = pair_plans.get((i, j))
                if plan is None:
                    plan = pair_plans[i, j] = pair_plan(i, j)
                single = {**v_skeptical, mu[k]: v_grid[support[k]]}
                candidates = [(t, {**single, mu[i]: level}) for t, level in plan]
            for t, vcache in candidates:
                if not cond2_ok(support, mu, vcache):
                    continue
                target = target_for(vcache)
                if dedup_values and target in values:
                    continue  # full_check would drop it: this value is already certified
                levels = [vcache[m] for m in mu]
                # at fixed levels the value is affine in t and never above the target
                if sum(map(mul, w0, levels)) == target == sum(map(mul, w1, levels)):
                    full_check(support, mu, weights_at(t))
    return found
