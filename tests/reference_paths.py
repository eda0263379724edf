"""Slow, direct implementations that the solver's fast paths are tested against.

Each one evaluates its definition head-on: which messages a type can send is
decided by testing every support, step functions are sampled at the midpoint
of every gap between support endpoints, and the exhaustive search redoes its
exact algebra for every messaging profile.
"""

from fractions import Fraction
from itertools import combinations, product

from disclosuregame import GameSpec, Signal, StepFunction, VerifStructure, messages_at, min_inverse
from disclosuregame.equilibrium import Equilibrium, verify_equilibrium
from disclosuregame.errors import OracleSizeError
from disclosuregame.oracle import critical_grid, discrete_cav
from disclosuregame.piecewise import ConcavePL, hull_candidates, step_eval, upper_hull_points
from disclosuregame.verifiability import IDENTITY_PREFIX

ZERO, ONE = Fraction(0), Fraction(1)


def pointwise_g(structure: VerifStructure, s: Fraction) -> Fraction:
    """Best support minimum among the messages available at s, by testing every support."""
    return max(min_inverse(structure, m) for m in messages_at(structure, s))


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
        adjusted = midpoint_type_map(game.structure).map_values(lambda t: step_eval(game.payoff, t))
    pts = hull_candidates(adjusted)
    if not game.structure.full_verifiability:
        for e in game.structure.support_endpoints():
            pts.append((e, step_eval(game.payoff, pointwise_g(game.structure, e))))
    return ConcavePL(tuple(upper_hull_points(pts)))


def pointwise_interim_values(game: GameSpec, beliefs, grid) -> list[Fraction]:
    """w at every grid point, by testing every support there (identity messages score v(s))."""
    levels = {name: step_eval(game.payoff, beliefs[name]) for name in game.structure.names}
    return [
        max(
            step_eval(game.payoff, s) if m.startswith(IDENTITY_PREFIX) else levels[m]
            for m in messages_at(game.structure, s)
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
