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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Optional

from .errors import DomainError, PreconditionError, UnknownMessageError
from .piecewise import (
    ConcavePL,
    StepFunction,
    hull_candidates,
    pl_eval,
    step_eval,
    upper_hull_points,
)
from .rationals import ONE, ZERO, in_unit_interval
from .verifiability import (
    IDENTITY_PREFIX,
    VerifStructure,
    identity_name,
    max_min_available,
    messages_at,
    min_inverse,
    skeptical_type_map,
)


@dataclass(frozen=True)
class GameSpec:
    payoff: StepFunction
    prior: Fraction
    structure: VerifStructure

    def __post_init__(self):
        object.__setattr__(self, "prior", Fraction(self.prior))
        if not in_unit_interval(self.prior):
            raise DomainError(f"prior {self.prior} outside [0,1]")
        if not self.payoff.is_non_decreasing:
            raise ValueError("payoff function must be non-decreasing")

    # Per-game intermediates, built on first use and shared by solve,
    # equilibrium_value and the figure; read them through skeptical_value and
    # value_hull.

    @cached_property
    def _adjusted_payoff(self) -> StepFunction:
        if self.structure.full_verifiability:
            return self.payoff
        return skeptical_type_map(self.structure).map_values(lambda t: step_eval(self.payoff, t))

    @cached_property
    def _value_hull(self) -> ConcavePL:
        pts = hull_candidates(self._adjusted_payoff)
        if not self.structure.full_verifiability:
            for e in self.structure.support_endpoints():
                pts.append((e, skeptical_payoff_at(self, e)))
        return ConcavePL(tuple(upper_hull_points(pts)))


@dataclass(frozen=True)
class Signal:
    """Finite-support distribution over posteriors; mean must equal the prior."""

    support: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        sup = tuple(Fraction(s) for s in self.support)
        wts = tuple(Fraction(w) for w in self.weights)
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
        object.__setattr__(self, "support", tuple(sup[i] for i in order))
        object.__setattr__(self, "weights", tuple(wts[i] for i in order))

    @property
    def mean(self) -> Fraction:
        return sum(w * s for w, s in zip(self.weights, self.support))


@dataclass(frozen=True)
class Equilibrium:
    signal: Signal
    messaging: Mapping[Fraction, str]
    beliefs: Mapping[str, Fraction]
    value: Fraction
    s_minus: Fraction
    s_plus: Fraction


@dataclass(frozen=True)
class PnbpVerdict:
    holds: bool
    witness: Optional[str] = None

    def __bool__(self):
        return self.holds


class ValueResult(NamedTuple):
    value: Fraction
    tag: str  # "unique" | "sender_preferred"


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    condition: Optional[int] = None  # 1 info acquisition, 2 communication, 3 beliefs
    detail: str = ""
    witness: object = None


def pnbp(game: GameSpec) -> PnbpVerdict:
    """Can the sender prove news better than the prior?

    True iff some message m has v(min of its support) strictly above v(prior);
    under full verifiability that reduces to v(prior) < v(1), witnessed by the
    identity message of type 1.
    """
    v, p = game.payoff, game.prior
    vp = step_eval(v, p)
    if game.structure.full_verifiability:
        if step_eval(v, ONE) > vp:
            return PnbpVerdict(True, identity_name(ONE))
        return PnbpVerdict(False)
    best: Optional[tuple[Fraction, str]] = None
    for name, supp in game.structure.messages:
        val = step_eval(v, supp.minimum)
        if val > vp and (best is None or val > best[0] or (val == best[0] and name < best[1])):
            best = (val, name)
    if best is None:
        return PnbpVerdict(False)
    return PnbpVerdict(True, best[1])


def skeptical_value(game: GameSpec) -> StepFunction:
    """Skepticism-adjusted payoff v(g(s)) as a step function; v itself under full verifiability.

    Exact on the open gaps between support endpoints and at 1 (the pieces of
    `skeptical_type_map` composed with v); `skeptical_payoff_at` is exact at
    every type, endpoints included.  Built once per game and cached.
    """
    return game._adjusted_payoff


def skeptical_payoff_at(game: GameSpec, s: Fraction) -> Fraction:
    """Pointwise-exact skepticism-adjusted payoff v(max min available at s)."""
    return step_eval(game.payoff, max_min_available(game.structure, s))


def value_hull(game: GameSpec) -> ConcavePL:
    """Concave envelope of the skepticism-adjusted payoff, built once per game and cached.

    Candidates are the step-representation piece endpoints plus the exact
    value at every support endpoint, so supports closed at an interior right
    end (or degenerate at a point) contribute the value they actually attain.
    v(g) is constant on each open gap between endpoints, so the envelope is
    exact.
    """
    return game._value_hull


def equilibrium_value(game: GameSpec) -> ValueResult:
    """Unique value (cav of adjusted payoff at the prior) under PNBP, else v(prior)."""
    if pnbp(game).holds:
        return ValueResult(pl_eval(value_hull(game), game.prior), "unique")
    return ValueResult(step_eval(game.payoff, game.prior), "sender_preferred")


def _skeptical_beliefs(structure: VerifStructure) -> dict[str, Fraction]:
    return {name: supp.minimum for name, supp in structure.messages}


def _best_message(structure: VerifStructure, s: Fraction) -> str:
    """Message available at s with the largest support minimum; ties go to the smallest name.

    One pass over the finite messages; under full verifiability the identity
    message of s (minimum s) competes by its name like any other.
    """
    candidates = [(supp.minimum, name) for name, supp in structure.messages if supp.contains(s)]
    if structure.full_verifiability:
        candidates.append((s, identity_name(s)))
    return min(candidates, key=lambda c: (-c[0], c[1]))[1]


def solve(game: GameSpec) -> Equilibrium:
    """Canonical equilibrium: skeptical two-point split under PNBP, no acquisition otherwise."""
    if pnbp(game).holds:
        return _solve_pnbp(game)
    return _solve_no_pnbp(game)


def _solve_no_pnbp(game: GameSpec) -> Equilibrium:
    structure, v, p = game.structure, game.payoff, game.prior
    m0 = _best_message(structure, p)
    beliefs = _skeptical_beliefs(structure)
    beliefs[m0] = p
    signal = Signal((p,), (ONE,))
    messaging = {p: m0}
    value = step_eval(v, p)
    return Equilibrium(
        signal=signal,
        messaging=messaging,
        beliefs=beliefs,
        value=value,
        s_minus=p,
        s_plus=p,
    )


def _solve_pnbp(game: GameSpec) -> Equilibrium:
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
       lowest-consistent contact points, and they are support endpoints, so
       the scan below finds them.
    5. The nearest candidates s-/s+ around p lie on that edge, where the hull
       is affine, so the split's value is hull(p).
    """
    structure, v, p = game.structure, game.payoff, game.prior
    hull = value_hull(game)
    # Hull vertices and breakpoints of v(g) are support endpoints or
    # breakpoints of v, so this set holds them all.
    xs = set(structure.support_endpoints()) | set(v.breakpoints) | {p}
    candidates = []
    for x in sorted(xs):
        if max_min_available(structure, x) != x:
            continue
        if pl_eval(hull, x) == skeptical_payoff_at(game, x):
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
        m = _best_message(structure, s)
        messaging[s] = m
        if m.startswith(IDENTITY_PREFIX):
            beliefs[m] = s
    return Equilibrium(
        signal=signal,
        messaging=messaging,
        beliefs=beliefs,
        value=pl_eval(hull, p),
        s_minus=s_minus,
        s_plus=s_plus,
    )


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
        if name.startswith(IDENTITY_PREFIX) and not game.structure.full_verifiability:
            raise ValueError(f"identity belief {name!r} without full verifiability")
    total = ZERO
    for s, w in zip(eq.signal.support, eq.signal.weights):
        if s not in eq.messaging:
            raise ValueError(f"messaging missing support type {s}")
        total += w * step_eval(game.payoff, _belief_of(game, eq.beliefs, eq.messaging[s]))
    if total != eq.value:
        raise ValueError("value does not match the signal/messaging/beliefs it claims")


def verify_equilibrium(game: GameSpec, eq: Equilibrium) -> VerifyReport:
    """Check the three equilibrium conditions; first violation wins.

    1. Optimal information acquisition: the claimed value equals the grid
       oracle's best-response value against the stated beliefs.
    2. Sequentially rational communication: each on-path type sends a message
       maximizing v(beliefs) among its available messages.
    3. Consistent beliefs: every belief lies in the convex hull of the
       message's support, and on-path messages satisfy Bayes' rule.
    """
    from . import oracle  # late import: oracle builds on this module's types

    _validate_structure(game, eq)
    beliefs = dict(eq.beliefs)

    # (1) optimal information acquisition
    best_value, best_signal = oracle.best_deviation(game, beliefs)
    if best_value != eq.value:
        return VerifyReport(
            False,
            1,
            f"profitable deviation: value {eq.value} below best response {best_value}",
            best_signal,
        )

    # (2) sequentially rational communication
    for s in eq.signal.support:
        m = eq.messaging[s]
        avail = messages_at(game.structure, s)
        if m not in avail:
            return VerifyReport(False, 2, f"type {s} sends unavailable message {m!r}", (s, m))
        vm = step_eval(game.payoff, _belief_of(game, beliefs, m))
        for other in sorted(avail):
            vo = step_eval(game.payoff, _belief_of(game, beliefs, other))
            if vo > vm:
                return VerifyReport(
                    False, 2, f"type {s} prefers message {other!r} over {m!r}", (s, other)
                )

    # (3) consistent receiver beliefs
    for name, supp in game.structure.messages:
        lo, hi = supp.hull_bounds()
        b = beliefs[name]
        if not (lo <= b <= hi):
            return VerifyReport(False, 3, f"belief for {name!r} outside conv support", (name, b))
    for name, b in beliefs.items():
        if name.startswith(IDENTITY_PREFIX) and b != min_inverse(game.structure, name):
            return VerifyReport(False, 3, f"identity belief {name!r} must equal its type", (name, b))
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
