"""Pre-orders on verifiability structures and optimality characterizations.

Two comparisons:

* larger lowest-consistent set (geq_lc): inclusion of the sets of types that
  are the minimum of some message support.  Necessary and sufficient for the
  higher structure to be weakly better for the sender whenever she can prove
  news better than the prior.
* more separation possibilities (geq_sep): for every type, every set of types
  it can separate from with a single message in the lower structure must also
  be separable in the higher one.  Sufficient for geq_lc, not necessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .equilibrium import GameSpec, equilibrium_value, pnbp
from .errors import PreconditionError
from .piecewise import StepFunction
from .rationals import ONE, ZERO
from .verifiability import (
    IDENTITY_PREFIX,
    IntervalUnion,
    VerifStructure,
    lowest_consistent_set,
    messages_at,
)


@dataclass(frozen=True)
class OrderVerdict:
    relation: str  # "lc" | "sep"
    holds: bool
    witness: object = None  # type for lc; (type, complement pieces) for sep

    def __bool__(self):
        return self.holds


def geq_lc(m_hi: VerifStructure, m_lo: VerifStructure) -> OrderVerdict:
    """Does m_hi have a (weakly) larger lowest-consistent set than m_lo?"""
    hi = lowest_consistent_set(m_hi)
    lo = lowest_consistent_set(m_lo)
    if hi.issuperset(lo):
        return OrderVerdict("lc", True)
    if lo.all_of_unit_interval:
        # every type is lowest-consistent below; exhibit one the high side misses
        pts = sorted(set(hi.types) | {ZERO, ONE})
        witness = None
        for a, b in zip(pts, pts[1:]):
            if b > a:
                witness = (a + b) / 2
                break
        if ONE not in hi.types:
            witness = ONE
        return OrderVerdict("lc", False, witness)
    missing = sorted(set(lo.types) - set(hi.types))
    return OrderVerdict("lc", False, missing[0])


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
    for name in messages_at(m_hi, s):
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


def geq_sep(m_hi: VerifStructure, m_lo: VerifStructure) -> OrderVerdict:
    """Does m_hi offer (weakly) more separation possibilities than m_lo?

    Separation sets are compared as exact set identities; since complements are
    determined by supports, two messages separate the same set iff their
    supports coincide as canonical interval unions.  Availability is piecewise
    constant between support endpoints, so the endpoint+midpoint grid decides
    the comparison exactly.
    """
    for s in _sep_grid(m_hi, m_lo):
        for name in sorted(messages_at(m_lo, s)):
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


def is_sender_optimal(structure: VerifStructure) -> bool:
    """All types lowest-consistent: only possible via the identity family."""
    return structure.full_verifiability


def is_receiver_optimal(structure: VerifStructure) -> bool:
    """Exactly types 0 and 1 are lowest-consistent."""
    lset = lowest_consistent_set(structure)
    return not lset.all_of_unit_interval and set(lset.types) == {ZERO, ONE}


@dataclass(frozen=True)
class SeparatingInstance:
    s_star: Fraction
    payoff: StepFunction
    prior: Fraction
    game_lo: GameSpec
    game_hi: GameSpec
    value_lo: Fraction
    sup_value_hi: Fraction


def separating_instance(m_hi: VerifStructure, m_lo: VerifStructure) -> SeparatingInstance:
    """Constructive witness that a failed lc-comparison costs the sender.

    Picks the smallest s* > 0 lowest-consistent below but not above, and the
    indicator payoff at s* with prior s*/2; the low structure then supports
    PNBP and strictly beats every equilibrium value of the high structure.
    """
    verdict = geq_lc(m_hi, m_lo)
    if verdict.holds:
        raise PreconditionError("structures are lc-ordered; no separating instance exists")
    s_star = verdict.witness
    payoff = StepFunction((ZERO, s_star), (ZERO, ONE))
    prior = s_star / 2
    game_lo = GameSpec(payoff, prior, m_lo)
    game_hi = GameSpec(payoff, prior, m_hi)
    if not pnbp(game_lo).holds:
        raise AssertionError("separating instance must satisfy PNBP on the low side")
    value_lo = equilibrium_value(game_lo).value
    sup_hi = equilibrium_value(game_hi).value  # sup of the equilibrium set either way
    if not value_lo > sup_hi:
        raise AssertionError("separating instance failed to reverse values strictly")
    return SeparatingInstance(s_star, payoff, prior, game_lo, game_hi, value_lo, sup_hi)
