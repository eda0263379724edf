"""Equilibrium computation for covert acquisition-and-disclosure games.

The solver follows the two canonical constructions:

* With PNBP (the sender can prove news better than the prior), beliefs are
  maximally skeptical, the signal splits the prior between the nearest
  lowest-consistent contact points of the concave envelope of the
  skepticism-adjusted payoff, and the unique value is that envelope at the
  prior.
* Without PNBP, the sender acquires no information: a degenerate signal at the
  prior, one designated message m0 interpreted at the prior, skeptical beliefs
  everywhere else, value v(prior).

Everything is exact rational arithmetic; verification re-derives optimality on
an independent grid oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, compress

from .errors import DomainError, PreconditionError, UnknownMessageError
from .piecewise import (
    ConcavePL,
    StepFunction,
    pl_eval,
    step_eval,
)
from .rationals import ONE, ZERO, Coordinates, as_fraction, in_unit_interval, on_line_through, strict_records, upper_hull
from .records import Record, set_field
from .verifiability import (
    IDENTITY_PREFIX,
    VerifStructure,
    identity_name,
    messages_at,
    min_inverse,
)


class GameSpec(Record):
    def __init__(self, payoff: StepFunction, prior: Fraction, structure: VerifStructure) -> None:
        self._store(payoff, prior, structure)

    def __post_init__(self):
        set_field(self, "prior", as_fraction(self.prior))
        if not in_unit_interval(self.prior):
            raise DomainError(f"prior {self.prior} outside [0,1]")
        if not self.payoff.is_non_decreasing:
            raise ValueError("payoff function must be non-decreasing")

    # Per-game intermediates, built on first use and shared by solve,
    # equilibrium_value and the figure; read them through pnbp,
    # skeptical_value and value_hull.

    @cached_property
    def _table(self) -> Coordinates:
        """The game's coordinate table: the structure's (0, 1 and the support endpoints, marked), the payoff's breakpoints and the prior."""
        p = self.prior
        return self.structure._table.widened((*self.payoff.breakpoint_pairs, (p.numerator, p.denominator)))

    @cached_property
    def _to_game(self) -> list[int]:
        """The game rank of each rank of the structure's table, whose points are the marked ones of the game's."""
        return list(compress(range(len(self._table.marked)), self._table.marked))

    @cached_property
    def _levels(self) -> tuple[list[int], list[int], list[int], list[bool]]:
        """The level table (piece, at, gap, fixed) of v∘g on the points x_i of the game's table.

        piece[i] indexes v's piece at x_i, at[i] v(g(x_i))'s piece and gap[i]
        that of v∘g on the gap (x_i, x_i+1); fixed[i] says g(x_i) = x_i.  The
        table holds 0, 1, the support endpoints, the payoff breakpoints and
        the prior; piece k runs from breakpoint k's rank to the next one's,
        and the structure's sweep gives g as ranks in the structure's own
        table (_to_game): every other point, and every gap, lies on the
        structure's gap after the last marked point at or before it (under
        full verifiability g is the identity).  The payoff's values strictly
        increase, so a piece index ranks its value.
        """
        table = self._table
        n, rank = len(table.pairs), table.rank
        breaks = list(map(rank.__getitem__, self.payoff.breakpoint_pairs))
        piece = [0] * n
        for k, (lo, hi) in enumerate(zip(breaks, [*breaks[1:], n])):
            piece[lo:hi] = [k] * (hi - lo)
        if self.structure.full_verifiability:
            return piece, piece, piece[:-1], [True] * n
        at_point, on_gap = self.structure._best_minima
        # of each game point, the structure point at or before it
        to_game, below = self._to_game, [j - 1 for j in accumulate(table.marked)]
        g_at = [to_game[at_point[j] if marked else on_gap[j]] for j, marked in zip(below, table.marked)]
        at, gap = [piece[i] for i in g_at], [piece[to_game[on_gap[j]]] for j in below[:-1]]
        return piece, at, gap, [i == k for k, i in enumerate(g_at)]

    @cached_property
    def _pnbp(self) -> PnbpVerdict:
        structure, v = self.structure, self.payoff
        piece, rank = self._levels[0], self._table.rank
        vp = piece[rank[self.prior.numerator, self.prior.denominator]]
        if structure.full_verifiability:
            return PnbpVerdict(True, identity_name(ONE)) if vp < len(v.values) - 1 else PnbpVerdict(False)
        to_game = self._to_game
        above = [
            (-level, name)
            for name, (minimum, _) in structure._hulls.items()
            if (level := piece[to_game[minimum]]) > vp
        ]
        return PnbpVerdict(True, min(above)[1]) if above else PnbpVerdict(False)

    @cached_property
    def _oracle_grid(self) -> tuple[Coordinates, tuple[tuple[int, int], ...], tuple[int, ...], tuple[tuple[int, int, str], ...]]:
        """The oracle's own table, critical grid, piece table and support slots (grid._table_and_grid).

        Verify and the exhaustive search read it; the solver never does.
        """
        from .grid import _table_and_grid  # late import: grid builds on this module's types
        return _table_and_grid(self)

    @cached_property
    def _adjusted_runs(self) -> list[tuple[int, int]]:
        """v∘g as (rank, level) where each of its pieces starts: the level table's gap levels and its level at 1, merged."""
        _, at, gap, _ = self._levels
        levels = (*gap, at[-1])
        return [(i, level) for i, level in enumerate(levels) if i == 0 or level != levels[i - 1]]

    @cached_property
    def _adjusted_payoff(self) -> StepFunction:
        point, vals = self._table.point, self.payoff.values
        return StepFunction(tuple(point(i) for i, _ in self._adjusted_runs), tuple(vals[k] for _, k in self._adjusted_runs))

    @cached_property
    def _hull_levels(self) -> tuple[list[int], list[bool], list[bool]]:
        """(top, from_left, from_right): each point's hull candidate level and its strict records.

        top[i] is the highest of the point's own level and its two gap levels;
        from_left and from_right are rationals.strict_records of top, the only
        points that can be strict hull vertices, at most one per payoff piece
        on each side.
        """
        _, at, gap, _ = self._levels
        top = list(map(max, at, [at[0], *gap], [*gap, at[-1]]))
        return (top, *strict_records(top))

    @cached_property
    def _value_hull(self) -> ConcavePL:
        table, vals, levels = self._table, self.payoff.values, self.payoff.value_pairs
        top, from_left, from_right = self._hull_levels
        # candidates come in rank order, distinct: the hull scan needs no sort
        ranks = [i for i, (a, b) in enumerate(zip(from_left, from_right)) if a or b]
        hull = upper_hull([(*table.pairs[i], *levels[top[i]]) for i in ranks])
        return ConcavePL(tuple((table.point(ranks[h]), vals[top[ranks[h]]]) for h in hull))


class Signal(Record):
    """Finite-support distribution over posteriors; mean must equal the prior."""

    def __init__(self, support: tuple[Fraction, ...], weights: tuple[Fraction, ...]) -> None:
        self._store(support, weights)

    def __post_init__(self):
        sup = tuple(as_fraction(s) for s in self.support)
        wts = tuple(as_fraction(w) for w in self.weights)
        if len(sup) != len(wts) or not sup:
            raise ValueError("support and weights must be non-empty and same length")
        if len(set(sup)) != len(sup):
            raise ValueError("support entries must be distinct")
        if any(not in_unit_interval(s) for s in sup):
            raise ValueError("support entries must lie in [0,1]")
        if any(w <= 0 for w in wts):
            raise ValueError("weights must be positive")
        if sum(wts) != 1:
            raise ValueError("weights must sum to 1")
        order = sorted(range(len(sup)), key=lambda i: sup[i])
        set_field(self, "support", tuple(sup[i] for i in order))
        set_field(self, "weights", tuple(wts[i] for i in order))

    @property
    def mean(self) -> Fraction:
        return sum(w * s for w, s in zip(self.weights, self.support))


class Equilibrium(Record):
    def __init__(self, signal: Signal, messaging: Mapping[Fraction, str], beliefs: Mapping[str, Fraction],
                 value: Fraction) -> None:
        self._store(signal, messaging, beliefs, value)

    @property
    def s_minus(self) -> Fraction:
        """The lowest posterior of the signal: the left split point (the prior when there is no split)."""
        return self.signal.support[0]

    @property
    def s_plus(self) -> Fraction:
        """The highest posterior of the signal: the right split point (the prior when there is no split)."""
        return self.signal.support[-1]


class PnbpVerdict(Record):
    def __init__(self, holds: bool, witness: str | None = None) -> None:
        self._store(holds, witness)

    def __bool__(self):
        return self.holds


# value: a Fraction; tag: "unique" | "sender_preferred"
ValueResult = namedtuple("ValueResult", "value tag")


class VerifyReport(Record):
    # condition: 1 info acquisition, 2 communication, 3 beliefs
    def __init__(self, ok: bool, condition: int | None = None, detail: str = "", witness: object = None) -> None:
        self._store(ok, condition, detail, witness)


def pnbp(game: GameSpec) -> PnbpVerdict:
    """Can the sender prove news better than the prior?

    True iff some message m has v(min of its support) strictly above v(prior),
    i.e. a later payoff piece; the witness has the highest, ties to the
    smallest name.  Under full verifiability that reduces to v(prior) < v(1),
    witnessed by the identity message of type 1.  Cached per game.
    """
    return game._pnbp


def skeptical_value(game: GameSpec) -> StepFunction:
    """Skepticism-adjusted payoff v(g(s)) as a step function; v itself under full verifiability.

    Exact on the open gaps between support endpoints and at 1 (the gap levels
    of the level table, and its level at 1); at an interior endpoint g can
    differ from both sides, and the level table holds v(g) there exactly.
    Built once per game and cached, from the level changes only.
    """
    return game._adjusted_payoff


def value_hull(game: GameSpec) -> ConcavePL:
    """Concave envelope of the skepticism-adjusted payoff, built once per game and cached.

    Read off the level table: each point's candidate is the highest of its
    own level and its two gap levels, so supports closed at an interior right
    end (or degenerate at a point) contribute the value they attain, and v(g)
    is constant on each gap.  Only strict records of these levels (see
    GameSpec._hull_levels), at most two per payoff piece, reach the hull
    scan, in rank order and with the table's pairs, so it needs no sort and
    decides each turn on ints.
    """
    return game._value_hull


def equilibrium_value(game: GameSpec) -> ValueResult:
    """Unique value (cav of adjusted payoff at the prior) under PNBP, else v(prior)."""
    if pnbp(game).holds:
        return ValueResult(pl_eval(value_hull(game), game.prior), "unique")
    return ValueResult(step_eval(game.payoff, game.prior), "sender_preferred")


def _best_message(structure: VerifStructure, s: Fraction) -> str:
    """Message available at s with the largest support minimum; ties go to the smallest name.

    One pass over the finite messages' intervals on s's position among the
    support endpoints (ints; positions also order the support minima); under
    full verifiability the identity message of s (minimum s, at s's own
    position) competes by its name like any other.
    """
    pos = structure._table.position(s)
    candidates = [(-minimum, name) for start, end, minimum, name in structure._spans if start <= pos < end]
    if structure.full_verifiability:
        candidates.append((-pos, identity_name(s)))
    return min(candidates)[1]


def solve(game: GameSpec) -> Equilibrium:
    """Canonical equilibrium: skeptical two-point split under PNBP, no acquisition otherwise.

    The signal is _split's under PNBP, else the degenerate one at the prior.
    Each posterior s sends its best message, which is believed to be s; every
    other belief is maximally skeptical.  Under PNBP s is lowest-consistent,
    so a finite message's belief is its minimum either way.
    """
    structure = game.structure
    signal = _split(game) if pnbp(game).holds else Signal((game.prior,), (ONE,))
    beliefs = dict(structure._minima)  # maximally skeptical
    messaging = {}
    for s in signal.support:
        m = messaging[s] = _best_message(structure, s)
        beliefs[m] = s
    return Equilibrium(signal=signal, messaging=messaging, beliefs=beliefs, value=equilibrium_value(game).value)


def _split(game: GameSpec) -> Signal:
    """Split the prior between the nearest lowest-consistent contact points.

    A candidate is a type x with g(x) = x (lowest-consistent, so skeptical
    beliefs satisfy Bayes' rule when x sends its best message) at which the
    envelope hull = cav(v∘g) touches v∘g.  Under PNBP there is one on each
    side of the prior p (or p itself), and the split attains hull(p):

    1. PNBP gives a support minimum a with v(a) > v(p); v is non-decreasing,
       so a > p, and hull(a) >= v(g(a)) >= v(a) > v(p).
    2. Every hull candidate at x <= p has value v(c) <= v(p).  Here c <= x is
       a support minimum: g(x) at a support endpoint, or the value of g on an
       adjacent open gap, which gives a piece end its one-sided limit.  (Under
       full verifiability every type is the minimum of its identity message.)
    3. The edge of the hull over p (the edge to its right when p is a
       vertex) starts at a vertex x <= p, a candidate, so by step 1 and
       concavity it rises strictly, and the hull is strictly increasing up
       to the edge's right end.
    4. At either end x of that edge, a vertex, hull(x) = v(c) for a candidate
       with c <= x.  c's message is available at c, so the candidate
       (c, v(g(c))) gives hull(c) >= v(c) = hull(x); with c < x that
       contradicts step 3.  So c = x: g(x) = x, since no message available
       at x has a minimum above x, and hull(x) = v(g(x)).  Both ends are
       lowest-consistent contact points, and as hull vertices they are
       points of the level table, so the walk below finds them.
    5. The nearest candidates s-/s+ around p lie on that edge, where the hull
       is affine, so the split's value is hull(p).

    The walk goes outward from the prior's rank in the level table and
    stops on each side at the first point with g(x) = x and hull(x) =
    v(g(x)).  It tests ranks first: g(x) = x (every point passes under full
    verifiability), the point's own level is its hull candidate level
    (hull(x) >= v(top) >= v(g(x)), and levels rank values), and that level
    is a strict left record.  The last holds at s-, s+ and p, since by step 3
    the hull rises strictly up to them; a point failing it is no contact
    point, and the walk stops at the same points.  Every point the walk
    tests lies between the ends of the hull edge over p, which are contact
    points by step 4, so hull(x) = v(g(x)) there is an int collinearity test
    against that edge.  Fractions remain only in the split weights.
    """
    p, hull = game.prior, value_hull(game)
    point, (_, at, _, fixed) = game._table.point, game._levels
    top, from_left, _ = game._hull_levels
    vals = game.payoff.values
    e = bisect_right(hull.xs, p) - 1  # the edge over p; p < 1 under PNBP
    on_edge = on_line_through(hull.vertices[e], hull.vertices[e + 1])

    def contact(i: int) -> bool:
        return fixed[i] and at[i] == top[i] and from_left[i] and on_edge(point(i), vals[at[i]])

    k = game._table.rank[p.numerator, p.denominator]
    if contact(k):
        return Signal((p,), (ONE,))
    n = len(game._table.pairs)
    s_minus = point(_walk(contact, k - 1, -1, n))
    s_plus = point(_walk(contact, k + 1, 1, n))
    w_lo = (s_plus - p) / (s_plus - s_minus)
    return Signal((s_minus, s_plus), (w_lo, 1 - w_lo))


def _walk(test, i: int, step: int, n: int) -> int:
    """The first index from i on, stepping by step, that passes test.

    Leaving range(n) raises instead of wrapping to a negative index; under
    PNBP _split's argument rules it out.
    """
    while 0 <= i < n:
        if test(i):
            return i
        i += step
    raise PreconditionError("no lowest-consistent contact point on one side of the prior: the game lacks PNBP")


def _belief_of(game: GameSpec, beliefs: Mapping[str, Fraction], name: str) -> Fraction:
    if name in beliefs:
        return beliefs[name]
    if name.startswith(IDENTITY_PREFIX) and game.structure.full_verifiability:
        return min_inverse(game.structure, name)  # identity beliefs are forced
    raise UnknownMessageError(name)


def _validate_structure(game: GameSpec, eq: Equilibrium) -> None:
    """Structural validity: shapes, Bayes plausibility of the signal, value identity."""
    if eq.signal.mean != game.prior:
        raise ValueError("signal is not Bayes-plausible for the game's prior")
    for name in game.structure.names:
        if name not in eq.beliefs:
            raise ValueError(f"beliefs missing finite message {name!r}")
    for name in eq.beliefs:
        if name.startswith(IDENTITY_PREFIX):
            try:
                min_inverse(game.structure, name)
            except UnknownMessageError:
                why = "names no type in [0,1]" if game.structure.full_verifiability else "without full verifiability"
                raise ValueError(f"identity belief {name!r} {why}") from None
        elif name not in game.structure._hulls:
            raise ValueError(f"belief for {name!r}, which is no message of the structure")
    total = ZERO
    for s, w in zip(eq.signal.support, eq.signal.weights):
        if s not in eq.messaging:
            raise ValueError(f"messaging missing support type {s}")
        total += w * step_eval(game.payoff, _belief_of(game, eq.beliefs, eq.messaging[s]))
    if total != eq.value:
        raise ValueError("value does not match the signal/messaging/beliefs it claims")


def verify_equilibrium(game: GameSpec, eq: Equilibrium) -> VerifyReport:
    """Check the three equilibrium conditions; first violation wins.

    1. Optimal information acquisition: against the stated beliefs, the
       claimed value is the best response on the oracle's grid.  The test
       is concavification's dual (grid._supporting_line): a line through
       (prior, value) weakly above the interim value on the grid touches
       it.  It builds no hull, so it shares no hull code with the solver.
    2. Sequentially rational communication: each on-path type sends a message
       maximizing v(beliefs) among its available messages.
    3. Consistent beliefs: every belief lies in the convex hull of the
       message's support, every identity belief is its type, and on-path
       messages satisfy Bayes' rule.

    The line test needs every belief inside its message's convex hull, and
    its w takes every identity belief to be its type, so these two parts of
    (3) are tested first, before (1) and (2).  Every belief then lies in
    [0,1], and (2) ranks each message by its belief's payoff piece on the
    oracle grid's table (grid._table_and_grid), which (1) has built.
    """
    from . import grid  # late import: grid builds on this module's types

    _validate_structure(game, eq)
    beliefs = dict(eq.beliefs)
    pairs = game.structure._table.pairs
    for name, (minimum, supremum) in game.structure._hulls.items():
        b = beliefs[name]
        (ln, ld), (hn, hd), bn, bd = pairs[minimum], pairs[supremum], b.numerator, b.denominator
        if not (ln * bd <= bn * ld and bn * hd <= hn * bd):
            return VerifyReport(False, 3, f"belief for {name!r} outside conv support", (name, b))
    for name, b in beliefs.items():
        if name.startswith(IDENTITY_PREFIX) and b != min_inverse(game.structure, name):
            return VerifyReport(False, 3, f"identity belief {name!r} must equal its type", (name, b))

    # (1) optimal information acquisition
    report = grid._supporting_line(game, beliefs, eq.value)
    if report is not None:
        return report

    # (2) sequentially rational communication; each message's payoff piece
    # (its level: pieces rank values) is read once, however many signal
    # points may send it
    table, _, piece, _ = game._oracle_grid
    level = cache(lambda name: piece[table.position(_belief_of(game, beliefs, name))])
    for s in eq.signal.support:
        m = eq.messaging[s]
        avail = messages_at(game.structure, s)
        if m not in avail:
            return VerifyReport(False, 2, f"type {s} sends unavailable message {m!r}", (s, m))
        lm = level(m)
        for other in sorted(avail):
            if level(other) > lm:
                return VerifyReport(
                    False, 2, f"type {s} prefers message {other!r} over {m!r}", (s, other)
                )

    # (3) on-path Bayes; the convex hulls and identity beliefs are checked above
    senders: dict[str, list[tuple[Fraction, Fraction]]] = {}
    for s, w in zip(eq.signal.support, eq.signal.weights):
        senders.setdefault(eq.messaging[s], []).append((s, w))
    for name, group in senders.items():
        imbalance = sum(w * (s - beliefs[name]) for s, w in group)
        if imbalance != 0:
            return VerifyReport(
                False, 3, f"on-path Bayes fails for {name!r}", (name, beliefs[name])
            )
    return VerifyReport(True)


def check_theorem1(game: GameSpec, eq: Equilibrium) -> bool:
    """Every on-path type is lowest-consistent with the message it sends."""
    if not pnbp(game).holds:
        raise PreconditionError("check_theorem1 requires PNBP")
    return all(min_inverse(game.structure, eq.messaging[s]) == s for s in eq.signal.support)
