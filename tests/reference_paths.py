"""Slow, direct implementations that the solver's fast paths are tested against.

Each one evaluates its definition head-on: which messages a type can send is
decided by testing every support, step functions are sampled at the midpoint
of every gap between support endpoints, and the exhaustive search redoes its
exact algebra for every messaging profile.  The Fraction paths at the end are
the solver's and the oracle's loops as they were before those ran on ranks:
they compare, sort and scan every point as a Fraction.  Then come the
separation pre-order as it was before it compared supports (a scan of every
message at every endpoint and gap midpoint of both structures), and the
Fraction kernels that integer ones replaced: Fraction(str) for every
rational, sorting a set of Fractions, hull turns as Fraction cross-products,
and a split walk that evaluates the envelope at every point with g(x) = x.
Last come the Fraction searches that lookups and int tests replaced: step
and envelope evaluation by bisecting Fractions, availability by testing
every support's Fraction bounds, on-line tests as Fraction products, each
belief's payoff level by bisection, and the figure's coordinates as
Fractions.  The references above are built on these, not on the fast paths.
"""

import heapq
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter
from typing import Optional

from disclosuregame import GameSpec, IntervalUnion, Signal, StepFunction, VerifStructure, min_inverse
from disclosuregame.comparative import OrderVerdict
from disclosuregame.equilibrium import (
    Equilibrium,
    PnbpVerdict,
    _skeptical_beliefs,
    _walk,
    skeptical_value,
    value_hull,
    verify_equilibrium,
)
from disclosuregame.errors import ConstructionError, DomainError, OracleSizeError, PreconditionError
from disclosuregame.figures import PLOT_BOTTOM, PLOT_LEFT, PLOT_RIGHT, PLOT_TOP, _fmt
from disclosuregame.oracle import critical_grid, discrete_cav
from disclosuregame.piecewise import ConcavePL, Point, hull_candidates
from disclosuregame.verifiability import IDENTITY_PREFIX, identity_name

ZERO, ONE = Fraction(0), Fraction(1)


def pointwise_g(structure: VerifStructure, s: Fraction) -> Fraction:
    """Best support minimum among the messages available at s, by testing every support."""
    return max(min_inverse(structure, m) for m in contains_messages_at(structure, s))


def pointwise_adjusted(game: GameSpec, s: Fraction) -> Fraction:
    """v(g(s)), with g by testing every support."""
    return fraction_step_eval(game.payoff, pointwise_g(game.structure, s))


def midpoint_type_map(structure: VerifStructure) -> StepFunction:
    """g as a step function, sampled at the midpoint of every gap between endpoints.

    Only for structures without full verifiability, where g is a step function.
    """
    grid = structure.support_endpoints()
    bps, vals = [], []
    for a, b in zip(grid, grid[1:]):
        v = pointwise_g(structure, (a + b) / 2)
        if not vals or v != vals[-1]:
            bps.append(a)
            vals.append(v)
    v1 = pointwise_g(structure, ONE)
    if v1 != vals[-1]:
        bps.append(ONE)
        vals.append(v1)
    return StepFunction(tuple(bps), tuple(vals))


def candidate_value_hull(game: GameSpec) -> ConcavePL:
    """Envelope of v(g) from the midpoint map's pieces plus pointwise values at every endpoint."""
    if game.structure.full_verifiability:
        adjusted = game.payoff
    else:
        adjusted = midpoint_type_map(game.structure).map_values(lambda t: fraction_step_eval(game.payoff, t))
    pts = hull_candidates(adjusted)
    if not game.structure.full_verifiability:
        for e in game.structure.support_endpoints():
            pts.append((e, fraction_step_eval(game.payoff, pointwise_g(game.structure, e))))
    return ConcavePL(tuple(fraction_upper_hull_points(pts)))


def pointwise_interim_values(game: GameSpec, beliefs, grid) -> list[Fraction]:
    """w at every grid point, by testing every support there (identity messages score v(s))."""
    levels = {name: fraction_step_eval(game.payoff, beliefs[name]) for name in game.structure.names}
    return [
        max(
            fraction_step_eval(game.payoff, s) if m.startswith(IDENTITY_PREFIX) else levels[m]
            for m in contains_messages_at(game.structure, s)
        )
        for s in grid
    ]


def chord_best_deviation(game: GameSpec, beliefs) -> tuple[Fraction, Signal]:
    """Best response by searching every pair of grid points for a chord through the optimum."""
    grid = critical_grid(game)
    w = dict(zip(grid, pointwise_interim_values(game, beliefs, grid)))
    p = game.prior
    value = discrete_cav(list(w.items()), p)
    if value == w[p]:
        return value, Signal((p,), (ONE,))

    def chord(a, b):
        return w[a] + (w[b] - w[a]) * (p - a) / (b - a)

    left = max(s for s in grid if s < p and any(b > p and chord(s, b) == value for b in grid))
    right = min(s for s in grid if s > p and chord(left, s) == value)
    w_lo = (right - p) / (right - left)
    return value, Signal((left, right), (w_lo, 1 - w_lo))


def per_profile_exhaustive_equilibria(
    game: GameSpec,
    max_messages: int = 4,
    max_grid: int = 12,
    dedup_values: bool = False,
) -> list[Equilibrium]:
    """oracle.exhaustive_equilibria as it was before its size-3 loop shared work across profiles.

    Every size-3 messaging profile redoes the weight, pooled-posterior and
    breakpoint algebra and finds each subinterval's root by a two-sample secant.
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
    v_skeptical = {m: fraction_step_eval(v, b) for m, b in skeptical.items()}
    avail = {s: sorted(contains_messages_at(structure, s)) for s in grid}
    found: list[Equilibrium] = []
    values: set[Fraction] = set()

    def vcache_for(beliefs_overrides: dict[str, Fraction]) -> dict[str, Fraction]:
        out = dict(v_skeptical)
        for m, b in beliefs_overrides.items():
            out[m] = fraction_step_eval(v, b)
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
                    value = fraction_step_eval(v, p)
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


# ---------------------------------------------------------------------------
# Fraction paths replaced by rank coordinates
# ---------------------------------------------------------------------------

def heap_best_minima(structure: VerifStructure) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """VerifStructure._best_minima with Fractions in the heap: g at every endpoint and on every gap."""
    intervals = sorted(
        (iv.lo, supp.minimum, iv.hi, iv.hi_closed)
        for _, supp in structure.messages
        for iv in supp.intervals
    )
    heap: list[tuple[Fraction, Fraction, bool]] = []
    at_point: list[Fraction] = []
    on_gap: list[Fraction] = []
    k = 0
    for e in structure.support_endpoints():
        while k < len(intervals) and intervals[k][0] <= e:
            _, minimum, hi, hi_closed = intervals[k]
            heapq.heappush(heap, (-minimum, hi, hi_closed))
            k += 1
        # an interval that has ended at e has ended for every later point
        while heap and (heap[0][1] < e or (heap[0][1] == e and not heap[0][2])):
            heapq.heappop(heap)
        at_point.append(_heap_best(heap, e))
        if e == ONE:
            break
        while heap and heap[0][1] <= e:
            heapq.heappop(heap)
        on_gap.append(_heap_best(heap, e))
    return tuple(at_point), tuple(on_gap)


def _heap_best(heap: list[tuple[Fraction, Fraction, bool]], s: Fraction) -> Fraction:
    if not heap:
        raise ConstructionError(f"no message available near type {s}: structure violates coverage")
    return -heap[0][0]


def stepwise_pnbp(game: GameSpec) -> PnbpVerdict:
    """pnbp by evaluating v at the prior and at every support minimum."""
    v, p = game.payoff, game.prior
    vp = fraction_step_eval(v, p)
    if game.structure.full_verifiability:
        if fraction_step_eval(v, ONE) > vp:
            return PnbpVerdict(True, identity_name(ONE))
        return PnbpVerdict(False)
    best: Optional[tuple[Fraction, str]] = None
    for name, supp in game.structure.messages:
        val = fraction_step_eval(v, supp.minimum)
        if val > vp and (best is None or val > best[0] or (val == best[0] and name < best[1])):
            best = (val, name)
    if best is None:
        return PnbpVerdict(False)
    return PnbpVerdict(True, best[1])


def endpoint_value_hull(game: GameSpec) -> ConcavePL:
    """value_hull from every piece end of v(g) plus the exact value at every support endpoint."""
    pts = hull_candidates(skeptical_value(game))
    if not game.structure.full_verifiability:
        for e in game.structure.support_endpoints():
            pts.append((e, pointwise_adjusted(game, e)))
    return ConcavePL(tuple(fraction_upper_hull_points(pts)))


def full_scan_solve_pnbp(game: GameSpec) -> Equilibrium:
    """_solve_pnbp by testing every support endpoint, payoff breakpoint and the prior."""
    structure, v, p = game.structure, game.payoff, game.prior
    hull = value_hull(game)
    # Hull vertices and breakpoints of v(g) are support endpoints or
    # breakpoints of v, so this set holds them all.
    xs = set(structure.support_endpoints()) | set(v.breakpoints) | {p}
    candidates = []
    for x in sorted(xs):
        if pointwise_g(structure, x) != x:
            continue
        if fraction_pl_eval(hull, x) == pointwise_adjusted(game, x):
            candidates.append(x)
    if p in candidates:
        s_minus = s_plus = p
        signal = Signal((p,), (ONE,))
    else:
        s_minus = max(x for x in candidates if x < p)
        s_plus = min(x for x in candidates if x > p)
        w_lo = (s_plus - p) / (s_plus - s_minus)
        signal = Signal((s_minus, s_plus), (w_lo, 1 - w_lo))
    beliefs = _skeptical_beliefs(structure)
    messaging = {}
    for s in signal.support:
        m = contains_best_message(structure, s)
        messaging[s] = m
        if m.startswith(IDENTITY_PREFIX):
            beliefs[m] = s
    return Equilibrium(
        signal=signal,
        messaging=messaging,
        beliefs=beliefs,
        value=fraction_pl_eval(hull, p),
        s_minus=s_minus,
        s_plus=s_plus,
    )


def fraction_interim_values(game: GameSpec, beliefs, grid) -> list[Fraction]:
    """oracle._interim_values with Fraction levels: the same range fill, v evaluated per message and grid point."""
    structure, v = game.structure, game.payoff
    index = {s: i for i, s in enumerate(grid)}
    w: list[Fraction | None] = [None] * len(grid)
    levels = [(fraction_step_eval(v, beliefs[name]), supp) for name, supp in structure.messages]
    for level, supp in sorted(levels, key=itemgetter(0)):
        for iv in supp.intervals:
            a, b = index[iv.lo], index[iv.hi] + iv.hi_closed
            w[a:b] = [level] * (b - a)
    if structure.full_verifiability:
        for i, s in enumerate(grid):
            own = fraction_step_eval(v, s)
            if w[i] is None or w[i] < own:
                w[i] = own
    return w


def full_grid_best_deviation(game: GameSpec, beliefs) -> tuple[Fraction, Signal]:
    """best_deviation with the Fraction hull over every grid point and an unfiltered walk."""
    for name, supp in game.structure.messages:
        if name not in beliefs:
            raise PreconditionError(f"beliefs missing message {name!r}")
        lo, hi = supp.hull_bounds()
        if not (lo <= beliefs[name] <= hi):
            raise PreconditionError(f"belief for {name!r} outside conv support")
    grid = set_critical_grid(game)
    w = fraction_interim_values(game, beliefs, grid)
    p = game.prior
    (x0, y0), (x1, y1) = fraction_hull_segment(list(zip(grid, w)), p)

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


def _sep_grid(m_hi: VerifStructure, m_lo: VerifStructure) -> list[Fraction]:
    pts = sorted(set(m_hi.support_endpoints()) | set(m_lo.support_endpoints()))
    grid = []
    for a, b in zip(pts, pts[1:]):
        grid.append(a)
        grid.append((a + b) / 2)
    grid.append(pts[-1])
    return grid


def _separates_same(m_hi: VerifStructure, s: Fraction, support: IntervalUnion) -> bool:
    """Can s separate in m_hi from exactly the complement of `support`?"""
    for name in contains_messages_at(m_hi, s):
        if name.startswith(IDENTITY_PREFIX):
            continue  # identity handled by the caller
        if m_hi.support(name) == support:
            return True
    return False


def _has_identity_for(m_hi: VerifStructure, s: Fraction) -> bool:
    if m_hi.full_verifiability:
        return True
    singleton = IntervalUnion.from_pairs([(s, s)])
    return _separates_same(m_hi, s, singleton)


def grid_geq_sep(m_hi: VerifStructure, m_lo: VerifStructure) -> OrderVerdict:
    """geq_sep by scanning every message of m_lo at every endpoint and gap midpoint.

    Separation sets are compared as exact set identities; since complements are
    determined by supports, two messages separate the same set iff their
    supports coincide as canonical interval unions.  Availability is piecewise
    constant between support endpoints, so the endpoint+midpoint grid decides
    the comparison exactly.
    """
    for s in _sep_grid(m_hi, m_lo):
        for name in sorted(contains_messages_at(m_lo, s)):
            if name.startswith(IDENTITY_PREFIX):
                if not _has_identity_for(m_hi, s):
                    singleton = IntervalUnion.from_pairs([(s, s)])
                    return OrderVerdict("sep", False, (s, singleton.complement_pieces()))
                continue
            supp = m_lo.support(name)
            if not _separates_same(m_hi, s, supp) and not (
                m_hi.full_verifiability and supp == IntervalUnion.from_pairs([(s, s)])
            ):
                return OrderVerdict("sep", False, (s, supp.complement_pieces()))
    return OrderVerdict("sep", True)


# ---------------------------------------------------------------------------
# Fraction kernels replaced by integer ones
# ---------------------------------------------------------------------------

def fraction_str_parse_rational(text) -> Fraction:
    """parse_rational with every string going through Fraction(str), as before its int() fast path."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string like '2/5', got {text!r}")
    s = text.strip()
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"rational {text!r} must be exact (no decimal/float forms)")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from exc


def set_critical_grid(game: GameSpec) -> tuple[Fraction, ...]:
    """critical_grid by sorting a set of Fractions."""
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


def fraction_upper_hull_points(points) -> list[Point]:
    """upper_hull_points with a dict of Fractions, a Fraction sort and Fraction cross-products."""
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        if x not in best or y > best[x]:
            best[x] = y
    pts = sorted(best.items())
    if len(pts) == 1:
        return pts
    hull: list[Point] = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            cross = (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def fraction_hull_segment(pts, x) -> tuple[Point, Point]:
    """oracle._hull_segment with each turn decided by Fraction arithmetic."""
    if not pts or not pts[0][0] <= x <= pts[-1][0]:
        raise DomainError(f"query {x} outside the hull's x-range")
    hull: list[Point] = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (pt[1] - y1) * (x1 - x0) >= (y1 - y0) * (pt[0] - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    xs = [px for px, _ in hull]
    i = bisect_right(xs, x) - 1
    if xs[i] == x:
        return hull[i], hull[i]
    return hull[i], hull[i + 1]


def pl_eval_walk_split(game: GameSpec) -> tuple[Fraction, Fraction]:
    """(s-, s+) of _solve_pnbp's walk with no rank test before pl_eval."""
    p, hull = game.prior, value_hull(game)
    xs, _, at, _, fixed = game._levels
    vals = game.payoff.values

    def contact(i: int) -> bool:
        return fixed[i] and fraction_pl_eval(hull, xs[i]) == vals[at[i]]

    k = bisect_left(xs, p)
    if xs[k] == p and contact(k):
        return p, p
    return xs[_walk(contact, k - 1, -1, len(xs))], xs[_walk(contact, k + (xs[k] == p), 1, len(xs))]


# ---------------------------------------------------------------------------
# Fraction searches and comparisons replaced by lookups and int tests
# ---------------------------------------------------------------------------

def fraction_step_eval(f: StepFunction, x: Fraction) -> Fraction:
    """step_eval by bisecting the Fraction breakpoints."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"step function argument {x} outside [0,1]")
    return f.values[bisect_right(f.breakpoints, x) - 1]


def fraction_pl_eval(g: ConcavePL, x: Fraction) -> Fraction:
    """pl_eval by bisecting the Fraction vertex x-coordinates."""
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise DomainError(f"piecewise-linear argument {x} outside [0,1]")
    xs = [vx for vx, _ in g.vertices]
    i = bisect_right(xs, x) - 1
    if i == len(xs) - 1:
        return g.vertices[-1][1]
    (x0, y0), (x1, y1) = g.vertices[i], g.vertices[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def contains_messages_at(structure: VerifStructure, s: Fraction) -> set[str]:
    """messages_at by testing every support with Fraction comparisons."""
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"type {s} outside [0,1]")
    out = {name for name, supp in structure.messages if supp.contains(s)}
    if structure.full_verifiability:
        out.add(identity_name(s))
    return out


def contains_best_message(structure: VerifStructure, s: Fraction) -> str:
    """_best_message by testing every support with Fraction comparisons."""
    candidates = [(supp.minimum, name) for name, supp in structure.messages if supp.contains(s)]
    if structure.full_verifiability:
        candidates.append((s, identity_name(s)))
    return min(candidates, key=lambda c: (-c[0], c[1]))[1]


def fraction_on_line(p0: Point, p1: Point, x: Fraction, y: Fraction) -> bool:
    """(x, y) on the line through p0 and p1, by Fraction arithmetic."""
    (x0, y0), (x1, y1) = p0, p1
    return (y - y0) * (x1 - x0) == (y1 - y0) * (x - x0)


def fraction_level_pieces(game: GameSpec) -> list[int]:
    """The level table's payoff pieces, each by a bisect into the Fraction breakpoints."""
    bps = game.payoff.breakpoints
    return [bisect_right(bps, x) - 1 for x in game._levels[0]]


def bisect_interim_levels(game: GameSpec, beliefs, grid) -> list[int]:
    """oracle._interim_values with each message's level bisected in the Fraction breakpoints."""
    structure, bps = game.structure, game.payoff.breakpoints
    index = {s: i for i, s in enumerate(grid)}
    w = [-1] * len(grid)
    levels = [(bisect_right(bps, beliefs[name]) - 1, supp) for name, supp in structure.messages]
    for level, supp in sorted(levels, key=itemgetter(0)):
        for iv in supp.intervals:
            a, b = index[iv.lo], index[iv.hi] + iv.hi_closed
            w[a:b] = [level] * (b - a)
    if structure.full_verifiability:
        w = [max(level, bisect_right(bps, s) - 1) for level, s in zip(w, grid)]
    return w


class FractionMapper:
    """figures._Mapper with each coordinate computed as a Fraction and then converted by float()."""

    def __init__(self, y_lo: Fraction, y_hi: Fraction):
        self.y_lo, self.y_hi = y_lo, y_hi

    def x(self, v: Fraction) -> str:
        return _fmt(PLOT_LEFT + float(v) * (PLOT_RIGHT - PLOT_LEFT))

    def y(self, v: Fraction) -> str:
        t = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return _fmt(PLOT_BOTTOM - float(t) * (PLOT_BOTTOM - PLOT_TOP))


def fraction_mapper(game: GameSpec, eq: Equilibrium) -> FractionMapper:
    """figures._mapper over the sorted set of every value drawn."""
    ys = set(game.payoff.values) | set(skeptical_value(game).values)
    ys |= {y for _, y in value_hull(game).vertices} | {eq.value, ZERO}
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    pad = (y_hi - y_lo) / 12
    return FractionMapper(y_lo - pad, y_hi + pad)
