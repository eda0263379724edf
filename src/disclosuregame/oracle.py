"""Brute-force verification: an exhaustive equilibrium search on the critical grid.

The search runs on condition (1)'s critical grid and piece table (grid.py,
kept on the game as GameSpec._oracle_grid), under the same precondition for
exactness: w upper semicontinuous, which right-closed supports meet.  It
caps its grid at max_grid points and scales it to ints over the lcm of its
denominators.  A set of messages is an int mask: each grid slot's
available messages are one mask, and a table sk_max[mask] holds the
highest skeptical level of any set, so condition (2) for the messages a
profile does not send is one lookup.  Each messaging profile is tested once on Python ints, at the one
assignment of levels whose value the weights cannot move, against a
memoised best response from one hull call per tuple of levels
(_hull_segment); a profile whose sent messages share one level, which is
then v(p)'s, reads its whole test from a memo keyed by its sent mask.  A
size-3 support first puts each pooled pair through a feasibility pre-test
on the levels at the two ends of the pair's posterior, and builds the
pair's weights and cuts only when a profile needs them.  The profiles that
pass build Fractions, and verify_equilibrium alone decides which are kept.
So the oracle shares with the solver only the Coordinates table and the
search's rationals.upper_hull, and reads the game only through its fields,
the structure's table, support hulls and minima, and verifiability.messages_at.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, OracleSizeError
from .equilibrium import (
    Equilibrium,
    GameSpec,
    Signal,
    verify_equilibrium,
)
from .piecewise import Point
from .rationals import ONE, upper_hull
from .verifiability import messages_at


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
    for sums.  The best response to a tuple of levels (the rank of v at
    each message's belief, messages in name order) is memoised.

    Message o is bit o of an int mask, messages in name order: each grid
    slot's available messages are one mask, read from messages_at, and
    sk_max[mask] is the highest skeptical level of any message in mask
    (-1 for none), a table of 2^M entries for M messages.  So condition (2)
    for the messages a profile does not send, which keep their skeptical
    beliefs, is one lookup: sk_max[available & ~sent] at most the sender's
    level.  For the messages it sends, when each type sends its own, a
    type may send only what no type of lower level can send (sendable):
    O(support^2) int tests per support, then one bit test per profile.
    These tests are implied by the best-response test (a message ranked
    above its sender's level at a support type raises w there, so a signal
    on the support beats the profile's value), so they change no result.
    Without sendable and every sk_max lookup, every list found on 960
    desk-scale games (the benchmark's oracle_desk, seeds 1 and 77) is the
    same, and that search takes 0.92x the time.  But they spare hull work:
    on 8 messages on [0, 1] with payoff breakpoints and values k/40
    (k = 0..39), prior 1/2 and 81 grid points, the search makes one
    _hull_segment call in about 0.3 s, and without sendable 2,394,160
    calls in about 6 minutes.  Without the sk_max lookups alone, two
    random 8-message games run 1.13-1.17x slower (the desk games 0.98x).

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

    In the first and last cases every sent message has one level, so the
    value is v at that level.  The mean of the three types is p, so a
    singleton and the pair's posterior lie on either side of p, and with v
    non-decreasing their levels agree only at v(p)'s, l_p.  So such a
    profile, like every size-1 profile and every pooling size-2 one, has
    value v(p), and condition (2) asks only that no message available in
    the support and not sent rank above l_p: at_one_level is that lookup
    and one read of a memo keyed by the sent mask, which holds whether the
    best response to those levels is v(p).  The pair's level changes at
    the cuts where its posterior crosses a payoff breakpoint.  At each end
    of [0, t_hi] the posterior is a grid slot, and it is monotone in
    between, so the feasibility pre-test asks that the singleton sit at
    l_p and that the posterior's level next to p be l_p.  It reads the
    levels of the support and of the ends, not the messages; a (support,
    pair) that fails it has its profiles skipped untested.  One that
    passes is planned once, when a profile first needs it: its cut and
    subinterval midpoint at level l_p are the candidates
    (pair_candidates).  A support where no pair passes and the chord test
    or sendable rules out none pooling walks only the messages that all
    three types can send; the others walk every profile, in the order of
    product(available at a, at b, at c).

    With dedup_values=True, a profile whose value is already certified is
    skipped before assembly, where its value is known (v(p), or the best
    response it must equal); cheaper when only the value set matters.  Once
    v(p) is certified, at_one_level and the pre-test fail, and a support
    whose three levels are equal (so l_p) has no none-pooling profile left
    to test.  full_check need not test again: only a pair plan sends one
    profile to it twice, with equal levels, so verify accepts both or
    neither.  If both, v(p) is the best response and a < p < c sit at
    level l_p, so w is at most l_p on the grid (its hull is flat at v(p)
    over [a, c]).  Two candidates mean a cut, where the pair's posterior q
    is breakpoint l_p, a grid point across p from the singleton s_k: the
    size-2 profile on {q, s_k} (s_k keeps its message; q sends another, or
    the same) is then an equilibrium of value v(p), certified before any
    size-3 support.
    """
    structure = game.structure
    if structure.full_verifiability:
        raise OracleSizeError("full verifiability carries infinitely many messages")
    if len(structure._hulls) > max_messages:
        raise OracleSizeError(f"structure has more than {max_messages} messages")
    table, grid, v_grid, _ = game._oracle_grid
    if len(grid) > max_grid:
        raise OracleSizeError(f"critical grid exceeds {max_grid} points")
    v, p, grid = game.payoff, game.prior, [Fraction(n, d) for n, d in grid]
    skeptical = structure._minima  # each support's minimum, from its rank: no support objects are built
    names = tuple(sorted(skeptical))
    found: list[Equilibrium] = []
    values: set[tuple[int, int]] = set()  # certified values as (numerator, denominator)

    # integer coordinates: grid points, the prior and the payoff breakpoints
    # (all on the grid) over the lcm of the grid's denominators
    scale = lcm(*(s.denominator for s in grid))
    xs = [s.numerator * (scale // s.denominator) for s in grid]
    n, ip = len(grid), 2 * table.rank[p.numerator, p.denominator]
    P, l_p = xs[ip], v_grid[ip]
    bps = [bn * (scale // bd) for bn, bd in v.breakpoint_pairs]
    # payoff levels: the payoff is non-decreasing with merged pieces, so its
    # values strictly increase and a piece's index ranks its value; the values
    # themselves, for sums, over the lcm of their denominators
    vscale = lcm(*(yd for _, yd in v.value_pairs))
    scaled = [yn * (vscale // yd) for yn, yd in v.value_pairs]
    value_p = v.value_pairs[l_p]  # v(p), the value of every one-level profile

    # message sets as masks: bit o is names[o]; each slot's mask, and its messages in name order
    index = {name: k for k, name in enumerate(names)}
    avail = [sum(1 << index[m] for m in messages_at(structure, s)) for s in grid]
    members = [tuple(o for o in range(len(names)) if mask >> o & 1) for mask in range(1 << len(names))]
    sends = [members[mask] for mask in avail]
    skeptical_levels = [v_grid[table.position(skeptical[m])] for m in names]
    sk_max = [-1]  # sk_max[mask]: the highest skeptical level in mask; bit o doubles the table
    for level in skeptical_levels:
        sk_max += [max(level, top) for top in sk_max]

    target_memo: dict[tuple[int, ...], tuple[int, int, tuple[int, int]]] = {}
    one_level_memo: dict[int, bool] = {}

    def target_for(lev: tuple[int, ...]) -> tuple[int, int, tuple[int, int]]:
        """The best response to levels lev, memoised: num, den with value
        num / (den * vscale), and that value in lowest terms as (numerator, denominator)."""
        hit = target_memo.get(lev)
        if hit is None:
            pts = [(x, scaled[max(lev[o] for o in sent)]) for x, sent in zip(xs, sends)]
            (x0, y0), (x1, y1) = _hull_segment(pts, P)
            num, den = (y0, 1) if x0 == x1 else (y0 * (x1 - x0) + (y1 - y0) * (P - x0), x1 - x0)
            g = gcd(num, den * vscale)
            hit = target_memo[lev] = (num, den, (num // g, den * vscale // g))
        return hit

    def at_one_level(around: int, mu: int) -> bool:
        """The int tests of a profile that sends the messages of mask mu, all at v(p)'s level, so its value is v(p);
        around is the mask of the messages available in its support."""
        if dedup_values and value_p in values or sk_max[around & ~mu] > l_p:  # full_check would drop a certified value
            return False
        hit = one_level_memo.get(mu)
        if hit is None:
            num, den, _ = target_for(tuple(l_p if mu >> o & 1 else lvl for o, lvl in enumerate(skeptical_levels)))
            hit = one_level_memo[mu] = scaled[l_p] * den == num
        return hit

    def sendable(support) -> list[int]:
        """For each type of a separating profile on support, the mask of the messages it may send by condition (2)
        among the sent messages, O(support^2) int tests: those available to it and to no type of lower level,
        which would prefer it."""
        ok = []
        for s in support:
            below = 0
            for r in support:
                if v_grid[r] < v_grid[s]:
                    below |= avail[r]
            ok.append(avail[s] & ~below)
        return ok

    def separating(support, mu, ok, vn, vd) -> bool:
        """The int tests of a profile that sends each type's own message, with value vn / (vd * vscale);
        ok is sendable(support)."""
        sent = 0
        for m in mu:
            sent |= 1 << m
        for s, m, allowed in zip(support, mu, ok):
            if not allowed >> m & 1 or sk_max[avail[s] & ~sent] > v_grid[s]:
                return False
        lev = list(skeptical_levels)
        for s, m in zip(support, mu):
            lev[m] = v_grid[s]
        num, den, target = target_for(tuple(lev))
        return not (dedup_values and target in values) and vn * den == num * vd

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

    def t_hi(support) -> tuple[int, int]:
        """min((C - P) / (C - B), (P - A) / (B - A)), the largest t with W(t) >= 0, as (num, den).

        (C - P)(B - A) - (P - A)(C - B) = (C - A)(B - P), so W_a reaches 0
        first iff b <= p, and W_c at the same t iff b = p.
        """
        A, B, C = (xs[s] for s in support)
        return (C - P, C - B) if support[1] <= ip else (P - A, B - A)

    def t_half(support) -> Fraction:
        tn, td = t_hi(support)
        return Fraction(tn, 2 * td)

    def pair_candidates(support, k, ends):
        """The t (num, den), ascending, where the pair pooled beside the
        singleton at position k has level l_p: at the cut where its
        posterior crosses breakpoint l_p, and at the midpoint of the
        subinterval between cuts that holds that level.

        ends are the grid slots of the pooled posterior at t = 0 and t_hi,
        and l_p has passed the feasibility pre-test on them.  In between
        the posterior is a ratio of affine functions n(t)/d(t) with d > 0,
        so it is monotone: the cuts are the breakpoints strictly between its
        end values, met in order, at levels above the lower end's and up to
        the one just below the upper end.  At a cut the posterior is the
        breakpoint; on a subinterval the level is v at its lower end's
        posterior, since payoff pieces are left-closed.  So the subinterval
        at level L runs from the lower end or cut L to cut L + 1 or the
        upper end, and only those two cuts are computed.
        """
        A, B, C = S = [xs[s] for s in support]
        span, (tn, td) = C - A, t_hi(support)
        w0 = (C - P, 0, P - A)  # W(0), over span
        w1 = ((C - P) * td - tn * (C - B), tn * span, (P - A) * td - tn * (B - A))  # W(t_hi), over span * td
        i, j = (x for x in range(3) if x != k)
        e0, e1 = ends
        rising = xs[e0] <= xs[e1]
        lo, hi = (e0, e1) if rising else (e1, e0)
        # n(t) = x d(t) at the cut at breakpoint x: t = t_hi (x d0 - n0) /
        # ((n1 - n0) - x (d1 - d0)), with W0 brought over W1's denominator
        n0, d0 = (w0[i] * S[i] + w0[j] * S[j]) * td, (w0[i] + w0[j]) * td
        n1, d1 = w1[i] * S[i] + w1[j] * S[j], w1[i] + w1[j]

        def cut(q):
            return tn * (bps[q] * d0 - n0), td * ((n1 - n0) - bps[q] * (d1 - d0))

        lower, upper = ((0, 1), (tn, td)) if rising else ((tn, td), (0, 1))  # t at the lower and upper ends
        bottom = l_p == v_grid[lo]
        (an, ad), (bn, bd) = lower if bottom else cut(l_p), cut(l_p + 1) if l_p < v_grid[max(lo, hi - 1)] else upper
        mid = an * bd + bn * ad, 2 * ad * bd
        if bottom:
            return [mid]
        return [cut(l_p), mid] if rising else [mid, cut(l_p)]

    # size 1: no information acquisition
    for m in sends[ip]:
        if at_one_level(avail[ip], 1 << m):
            full_check((ip,), (m,), (ONE,))

    # size 2: weights pinned by Bayes plausibility, (B - P, P - A) / (B - A)
    for a in range(ip):
        for b in range(ip + 1, n):
            A, B = xs[a], xs[b]
            around = avail[a] | avail[b]
            value = scaled[v_grid[a]] * (B - P) + scaled[v_grid[b]] * (P - A)  # when separating
            ok = None  # sendable((a, b)), when first needed
            for m0 in sends[a]:
                for m1 in sends[b]:
                    if m0 == m1:
                        passed = at_one_level(around, 1 << m0)
                    else:
                        ok = ok or sendable((a, b))
                        passed = separating((a, b), (m0, m1), ok, value, B - A)
                    if passed:
                        w_lo = Fraction(B - P, B - A)
                        full_check((a, b), (m0, m1), (w_lo, 1 - w_lo))

    # size 3: the supports a < ip < c, in the order of combinations(range(n), 3)
    for a in range(ip):
        for b in range(a + 1, n - 1):
            for c in range(max(b, ip) + 1, n):
                support = a, b, c
                A, B, C = xs[a], xs[b], xs[c]
                around = avail[a] | avail[b] | avail[c]
                # the feasibility pre-test, by the singleton's position k.  The mean
                # of the three types is p, so the singleton and the pair's posterior
                # lie on either side of p, and with v non-decreasing their levels
                # agree only at v(p)'s, l_p.  The posterior runs monotonely from a
                # slot at t = 0 to one at t_hi, ends[k]: at each end one type has no
                # weight (b at 0; at t_hi a when a_first, else c, both when b = p;
                # see t_hi), which leaves the other pooled type, or p where the
                # singleton is the one (or the pair carries none: b = p, a constant
                # p).  So it reaches l_p iff its level next to p is l_p: at e, the
                # lower end of [e, c]; just below g, the upper end of [a, g]; just
                # below p when it runs from p down to a.  With dedup_values, no
                # one-level profile passes once v(p) is certified.
                p_open = not (dedup_values and value_p in values)
                a_first = b <= ip
                e, g = (ip, b) if a_first else (b, ip)
                ends = (c, e), (ip, ip if b == ip else c if a_first else a), (a, g)
                la, lb, lc = v_grid[a], v_grid[b], v_grid[c]
                feasible = (
                    p_open and la == v_grid[e],
                    p_open and lb == l_p and (a_first or v_grid[ip - 1] == l_p),
                    p_open and lc == v_grid[g - 1],
                )
                # none pool: (b, v(b)) must lie on the chord from (a, v(a)) to (c, v(c)),
                # and each type have a message to send
                ya, yb, yc = scaled[la], scaled[lb], scaled[lc]
                if la == lb == lc:  # all at l_p: no type ranks below another, and the value is v(p)
                    ok = [avail[a], avail[b], avail[c]] if p_open else [0]
                elif yb * (C - A) == ya * (C - B) + yc * (B - A):
                    ok = sendable(support)
                else:
                    ok = [0]
                none_pool = all(ok)
                if not (none_pool or any(feasible)):  # only the profiles where all pool can pass
                    for m in members[avail[a] & avail[b] & avail[c]]:
                        if at_one_level(around, 1 << m):
                            full_check(support, (m, m, m), weights_at(support, t_half(support)))
                    continue
                plans: list = [None] * 3  # by the singleton's position, built when first needed
                for m0 in sends[a]:
                    for m1 in sends[b]:
                        for m2 in sends[c]:
                            if m0 == m1 == m2:
                                if at_one_level(around, 1 << m0):
                                    full_check(support, (m0, m1, m2), weights_at(support, t_half(support)))
                            elif m0 != m1 != m2 != m0:  # weight-independent: try t_hi / 2
                                if none_pool and separating(support, (m0, m1, m2), ok, ya * (C - P) + yc * (P - A), C - A):
                                    full_check(support, (m0, m1, m2), weights_at(support, t_half(support)))
                            else:
                                k = 0 if m1 == m2 else 1 if m0 == m2 else 2
                                if feasible[k] and at_one_level(around, 1 << m0 | 1 << m1 | 1 << m2):
                                    if plans[k] is None:
                                        plans[k] = pair_candidates(support, k, ends[k])
                                    for t_n, t_d in plans[k]:
                                        full_check(support, (m0, m1, m2), weights_at(support, Fraction(t_n, t_d)))
    return found
