"""Slow, direct implementations that the solver's and the oracle's fast paths are tested against.

There is one reference per quantity, each evaluating its definition head-on.
Which messages a type can send is decided by testing every support; g, the
skeptical type map, is the best support minimum among them; the envelope is
the Fraction hull of v(g) at every point and at both ends of every gap
between points, each gap sampled at its midpoint; PNBP and the split scan
every support minimum and every candidate point; the interim value tests
every support at every grid point (and its slice fill writes every
interval's slots, messages in ascending level order), and a signal's value
and a line's clearance read it; the best deviation searches every pair of grid points
for a chord through the optimum; the exhaustive search redoes its exact
algebra for every messaging profile; and the separation pre-order scans
every message at every endpoint and gap midpoint of both structures.

Then come the Fraction twins of the program's integer kernels: Fraction(str)
for every rational (the reader before it read pairs), hull turns as Fraction cross-products, step and envelope
evaluation by bisecting Fractions, on-line tests as Fraction products,
the figure's coordinates as Fractions, and Signal's checks and
verify_equilibrium's gate with their sums (the weights', Bayes
plausibility, the value identity and on-path Bayes) in Fraction
arithmetic.  The references above are built on these twins, never on the
fast paths.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from operator import itemgetter

from disclosuregame import (
    ConcavePL,
    GameSpec,
    IntervalUnion,
    PnbpVerdict,
    Signal,
    StepFunction,
    VerifStructure,
    verify_equilibrium,
)
from disclosuregame.comparative import OrderVerdict
from disclosuregame.equilibrium import Equilibrium, VerifyReport, skeptical_value, value_hull
from disclosuregame.errors import DomainError, OracleSizeError, UnknownMessageError
from disclosuregame.figures import PLOT_BOTTOM, PLOT_LEFT, PLOT_RIGHT, PLOT_TOP, _fmt
from disclosuregame.grid import _supporting_line
from disclosuregame.piecewise import Point
from disclosuregame.verifiability import IDENTITY_PREFIX, identity_name, min_inverse

from genutil import critical_grid

ZERO, ONE = Fraction(0), Fraction(1)


def in_support(supp: IntervalUnion, s: Fraction) -> bool:
    """s lies in one of the support's intervals, each closed on the left."""
    for iv in supp.intervals:
        if iv.lo <= s and (s <= iv.hi if iv.hi_closed else s < iv.hi):
            return True
    return False


def contains_messages_at(structure: VerifStructure, s: Fraction) -> set[str]:
    """messages_at by testing every support with Fraction comparisons."""
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise DomainError(f"type {s} outside [0,1]")
    out = {name for name, supp in structure.messages if in_support(supp, s)}
    if structure.full_verifiability:
        out.add(identity_name(s))
    return out


def contains_best_message(structure: VerifStructure, s: Fraction) -> str:
    """_best_message by testing every support with Fraction comparisons."""
    candidates = [(supp.minimum, name) for name, supp in structure.messages if in_support(supp, s)]
    if structure.full_verifiability:
        candidates.append((s, identity_name(s)))
    return min(candidates, key=lambda c: (-c[0], c[1]))[1]


def pointwise_g(structure: VerifStructure, s: Fraction) -> Fraction:
    """Best support minimum among the messages available at s (s itself for an identity message), by testing every support."""
    minima = [supp.minimum for _, supp in structure.messages if in_support(supp, s)]
    return max(minima + [s] * structure.full_verifiability)


def swept_g(structure: VerifStructure, s: Fraction) -> Fraction:
    """g at s read off the structure's endpoint sweep at s's position in its table (s itself under full verifiability)."""
    s = Fraction(s)
    if structure.full_verifiability:
        return s
    at_point, on_gap = structure._best_minima
    pos = structure._table.position(s)
    return structure._table.points[on_gap[pos // 2] if pos % 2 else at_point[pos // 2]]


def piece_ends(f: StepFunction) -> list[Point]:
    """(x, value) at both ends of every piece of f, read off its breakpoints and values.

    The smallest concave majorant of f is the upper hull of these points, so
    brute-force splits over them check cav without piecewise.hull_candidates.
    """
    his = (*f.breakpoints[1:], ONE)
    return [pt for lo, hi, v in zip(f.breakpoints, his, f.values) for pt in ((lo, v), (hi, v))]


def pointwise_adjusted(game: GameSpec, s: Fraction) -> Fraction:
    """v(g(s)), with g by testing every support."""
    return fraction_step_eval(game.payoff, pointwise_g(game.structure, s))


def _candidate_points(game: GameSpec) -> list[Fraction]:
    """0, 1, the prior, every support endpoint and every payoff breakpoint, sorted.

    v(g) is constant on each open gap between consecutive points: g only
    changes at support endpoints, and v at its breakpoints.
    """
    return sorted({ZERO, ONE, game.prior, *game.structure.support_endpoints(), *game.payoff.breakpoints})


def pointwise_envelope(game: GameSpec) -> ConcavePL:
    """The concave envelope of v(g): the Fraction hull of v(g) at every point and at both ends of every gap.

    v(g) is constant on each open gap, so any concave majorant is at least
    that constant at both ends of the gap; the hull of these points is the
    smallest one.
    """
    xs = _candidate_points(game)
    pts = [(x, pointwise_adjusted(game, x)) for x in xs]
    for a, b in zip(xs, xs[1:]):
        level = pointwise_adjusted(game, (a + b) / 2)
        pts += [(a, level), (b, level)]
    return ConcavePL(tuple(fraction_upper_hull_points(pts)))


def scan_solve(game: GameSpec) -> tuple[PnbpVerdict, ConcavePL, Equilibrium]:
    """pnbp, the envelope (pointwise_envelope) and solve from their definitions.

    PNBP: some message's support minimum has v above v(prior), the witness
    having the highest v, ties to the smallest name; under full
    verifiability, v(1) above v(prior), witnessed by the identity message of
    type 1.  With PNBP the prior is split between the nearest candidate
    points x with g(x) = x where the envelope touches v(g); without it, no
    information, and the best message at the prior is read as the prior.
    """
    structure, v, p = game.structure, game.payoff, game.prior
    vp = fraction_step_eval(v, p)
    if structure.full_verifiability:
        above = [(fraction_step_eval(v, ONE), identity_name(ONE))]
    else:
        above = [(fraction_step_eval(v, supp.minimum), name) for name, supp in structure.messages]
    above = [(level, name) for level, name in above if level > vp]
    verdict = PnbpVerdict(True, min(above, key=lambda c: (-c[0], c[1]))[1]) if above else PnbpVerdict(False)
    hull = pointwise_envelope(game)
    beliefs = {name: supp.minimum for name, supp in structure.messages}
    if not verdict.holds:
        m0 = contains_best_message(structure, p)
        beliefs[m0] = p
        return verdict, hull, Equilibrium(Signal((p,), (ONE,)), {p: m0}, beliefs, vp)
    contacts = [
        x for x in _candidate_points(game)
        if pointwise_g(structure, x) == x and fraction_pl_eval(hull, x) == fraction_step_eval(v, x)
    ]
    if p in contacts:
        signal = Signal((p,), (ONE,))
    else:
        s_minus = max(x for x in contacts if x < p)
        s_plus = min(x for x in contacts if x > p)
        w_lo = (s_plus - p) / (s_plus - s_minus)
        signal = Signal((s_minus, s_plus), (w_lo, 1 - w_lo))
    messaging = {}
    for s in signal.support:
        m = messaging[s] = contains_best_message(structure, s)
        if m.startswith(IDENTITY_PREFIX):
            beliefs[m] = s
    return verdict, hull, Equilibrium(signal, messaging, beliefs, fraction_pl_eval(hull, p))


def pointwise_interim_values(game: GameSpec, beliefs, grid) -> list[Fraction]:
    """w at every grid point: the highest level among the messages whose support holds it (an identity message scores v(s))."""
    v, structure = game.payoff, game.structure
    levels = sorted(((fraction_step_eval(v, beliefs[name]), supp) for name, supp in structure.messages),
                    key=itemgetter(0), reverse=True)

    def w(s: Fraction) -> Fraction:
        top = next((level for level, supp in levels if in_support(supp, s)), None)  # levels descend
        if structure.full_verifiability:
            own = fraction_step_eval(v, s)
            return own if top is None or own > top else top
        return top

    return [w(s) for s in grid]


def slice_interim_values(game: GameSpec, beliefs) -> list[int]:
    """grid._interim_values as a slice fill over the support objects' intervals.

    Each interval writes its message's level into every slot from 2 rank(lo)
    to 2 rank(hi) in the oracle's table, one fewer when open at hi, messages
    in ascending level order, so the highest level written last wins: about
    M * G writes on nested supports.
    """
    table, grid, piece, _ = game._oracle_grid
    rank, w = table.rank, [-1] * len(grid)
    levels = [(piece[table.position(beliefs[name])], supp) for name, supp in game.structure.messages]
    for lvl, supp in sorted(levels, key=itemgetter(0)):
        for iv in supp.intervals:
            a = 2 * rank[iv.lo.numerator, iv.lo.denominator]
            b = 2 * rank[iv.hi.numerator, iv.hi.denominator] + iv.hi_closed
            w[a:b] = [lvl] * (b - a)
    if game.structure.full_verifiability:
        w = list(map(max, w, piece))
    return w


def signal_value(game: GameSpec, beliefs, signal: Signal) -> Fraction:
    """A signal's value against fixed beliefs: the interim value w at each posterior, weighted."""
    w = pointwise_interim_values(game, beliefs, signal.support)
    return sum(weight * y for weight, y in zip(signal.weights, w))


def line_clears_w(game: GameSpec, beliefs, value: Fraction, slope: Fraction) -> bool:
    """The line through (prior, value) with this slope lies strictly above w at every grid point."""
    grid = critical_grid(game)
    w = pointwise_interim_values(game, beliefs, grid)
    return all(value + slope * (x - game.prior) > y for x, y in zip(grid, w))


def above_detail(game: GameSpec, value: Fraction) -> str:
    """Condition (1)'s detail for a claim above the grid's best response.

    It says that no signal attains the claim only when every support is
    right-closed, where the grid is exact; with a right-open support a signal
    approaching the open end may be worth more than any grid signal.
    """
    if all(iv.hi_closed for _, supp in game.structure.messages for iv in supp.intervals):
        return f"value {value} above best response: no signal attains it"
    return f"value {value} above the critical grid's best response (a support is right-open)"


def discrete_hull_value(points, x: Fraction) -> Fraction:
    """Value at x of the upper concave hull of a finite point set, in any order; repeated x keep the highest y."""
    best: dict[Fraction, Fraction] = {}
    for px, py in points:
        if px not in best or py > best[px]:
            best[px] = py
    (x0, y0), (x1, y1) = fraction_hull_segment(sorted(best.items()), x)
    return y0 if x0 == x1 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def chord_best_deviation(game: GameSpec, beliefs) -> tuple[Fraction, Signal]:
    """Best response by searching pairs of grid points for a chord through the optimum.

    The value is the hull of w over the grid at the prior.  The left end is
    the grid point nearest below the prior from which some chord to a point
    above it passes through (prior, value); the right end is the nearest
    point above the prior on the chord from that left end.
    """
    grid = critical_grid(game)
    w = pointwise_interim_values(game, beliefs, grid)
    p = game.prior
    k = grid.index(p)
    (x0, y0), (x1, y1) = fraction_hull_segment(list(zip(grid, w)), p)
    value = y0 if x0 == x1 else y0 + (y1 - y0) * (p - x0) / (x1 - x0)
    if value == w[k]:
        return value, Signal((p,), (ONE,))

    def chord_ends(i: int) -> list[int]:
        """Every j above the prior whose chord from grid[i] passes through (p, value)."""
        rise, run = value - w[i], p - grid[i]
        return [j for j in range(k + 1, len(grid)) if (w[j] - w[i]) * run == rise * (grid[j] - grid[i])]

    i = next(i for i in range(k - 1, -1, -1) if chord_ends(i))
    left, right = grid[i], grid[chord_ends(i)[0]]
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
            hit = target_memo[key] = discrete_hull_value(pts, p)
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
# Fraction twins of the integer kernels
# ---------------------------------------------------------------------------

def fraction_str_parse_rational(text) -> Fraction:
    """parse_rational as it read every string before the pair reader: through Fraction(str), whose language grew with Python's version."""
    if isinstance(text, int) and not isinstance(text, bool):
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


def fraction_str_parse(obj) -> Fraction:
    """gamefile's reader before the pair reader: the 40-digit cap on the string as written, then fraction_str_parse_rational."""
    if isinstance(obj, (str, int)) and len(text := str(obj)) > 40 and any(
        len(part.strip().lstrip("+-")) > 40 for part in text.split("/")
    ):
        raise ValueError("more than 40 digits in a numerator or denominator")
    return fraction_str_parse_rational(obj)


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


def fraction_signal(support, weights) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Signal's checks, in its order and with its texts, on Fractions: a set of them, Fraction comparisons and the weights' Fraction sum; the sorted support and weights."""
    sup, wts = tuple(map(Fraction, support)), tuple(map(Fraction, weights))
    if len(sup) != len(wts) or not sup:
        raise ValueError("support and weights must be non-empty and same length")
    if len(set(sup)) != len(sup):
        raise ValueError("support entries must be distinct")
    if any(not 0 <= s <= 1 for s in sup):
        raise ValueError("support entries must lie in [0,1]")
    if any(w <= 0 for w in wts):
        raise ValueError("weights must be positive")
    if sum(wts) != 1:
        raise ValueError("weights must sum to 1")
    order = sorted(range(len(sup)), key=sup.__getitem__)
    return tuple(sup[i] for i in order), tuple(wts[i] for i in order)


def fraction_verify_equilibrium(game: GameSpec, eq: Equilibrium) -> VerifyReport:
    """verify_equilibrium's checks, in its order and with its texts, on Fractions.

    Bayes plausibility is the signal's Fraction mean, the value identity a
    Fraction sum of fraction_step_eval at each sent message's belief, and
    on-path Bayes each message's Fraction imbalance, sum of w (s - belief);
    the hull and identity tests compare Fractions, and condition (2) tests
    every support (contains_messages_at) and ranks messages by their
    payoff values.  Condition (1) is the package's own line test, which
    this twin does not stand in for.
    """
    structure, signal = game.structure, eq.signal
    beliefs = {name: Fraction(b) for name, b in eq.beliefs.items()}
    value = Fraction(eq.value)
    supports = dict(structure.messages)

    def belief(name):
        if name in beliefs:
            return beliefs[name]
        if name.startswith(IDENTITY_PREFIX) and structure.full_verifiability:
            return min_inverse(structure, name)
        raise UnknownMessageError(name)

    def payoff(name):
        b = belief(name)
        if not 0 <= b <= 1:
            raise DomainError(f"belief {b} for message {name!r} outside [0,1]")
        return fraction_step_eval(game.payoff, b)

    if sum(w * s for s, w in zip(signal.support, signal.weights)) != game.prior:
        raise ValueError("signal is not Bayes-plausible for the game's prior")
    for name in supports:
        if name not in beliefs:
            raise ValueError(f"beliefs missing finite message {name!r}")
    for name in beliefs:
        if name.startswith(IDENTITY_PREFIX):
            try:
                min_inverse(structure, name)
            except UnknownMessageError:
                why = "names no type in [0,1]" if structure.full_verifiability else "without full verifiability"
                raise ValueError(f"identity belief {name!r} {why}") from None
        elif name not in supports:
            raise ValueError(f"belief for {name!r}, which is no message of the structure")
    total = ZERO
    for s, w in zip(signal.support, signal.weights):
        if s not in eq.messaging:
            raise ValueError(f"messaging missing support type {s}")
        total += w * payoff(eq.messaging[s])
    if total != value:
        raise ValueError("value does not match the signal/messaging/beliefs it claims")
    for name, supp in supports.items():
        lo, hi = supp.hull_bounds()
        if not lo <= beliefs[name] <= hi:
            return VerifyReport(False, 3, f"belief for {name!r} outside conv support", (name, beliefs[name]))
    for name, b in beliefs.items():
        if name.startswith(IDENTITY_PREFIX) and b != min_inverse(structure, name):
            return VerifyReport(False, 3, f"identity belief {name!r} must equal its type", (name, b))
    report = _supporting_line(game, beliefs, value)
    if report is not None:
        return report
    for s in signal.support:
        m, avail = eq.messaging[s], contains_messages_at(structure, s)
        if m not in avail:
            return VerifyReport(False, 2, f"type {s} sends unavailable message {m!r}", (s, m))
        for other in sorted(avail):
            if payoff(other) > payoff(m):
                return VerifyReport(False, 2, f"type {s} prefers message {other!r} over {m!r}", (s, other))
    senders: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for s, w in zip(signal.support, signal.weights):
        senders.setdefault(eq.messaging[s], []).append((s, w))
    for name, group in senders.items():
        if sum(w * (s - belief(name)) for s, w in group) != 0:
            return VerifyReport(False, 3, f"on-path Bayes fails for {name!r}", (name, belief(name)))
    return VerifyReport(True)


def fraction_on_line(p0: Point, p1: Point, x: Fraction, y: Fraction) -> bool:
    """(x, y) on the line through p0 and p1, by Fraction arithmetic."""
    (x0, y0), (x1, y1) = p0, p1
    return (y - y0) * (x1 - x0) == (y1 - y0) * (x - x0)


def fraction_x_pixels(table) -> list[str]:
    """figures._x_pixels with each point converted by float()."""
    return [_fmt(PLOT_LEFT + float(q) * (PLOT_RIGHT - PLOT_LEFT)) for q in table.points]


def fraction_y_pixels(game: GameSpec, eq: Equilibrium):
    """figures._y_pixels over the sorted set of every value drawn, each coordinate a Fraction converted by float(); y takes a value's pair."""
    ys = set(game.payoff.values) | set(skeptical_value(game).values)
    ys |= {y for _, y in value_hull(game).vertices} | {eq.value, ZERO}
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    pad = (y_hi - y_lo) / 12
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def y(n: int, d: int) -> str:
        t = (Fraction(n, d) - y_lo) / (y_hi - y_lo)
        return _fmt(PLOT_BOTTOM - float(t) * (PLOT_BOTTOM - PLOT_TOP))

    return y
