"""Pre-orders on verifiability structures and optimality characterizations.

Two comparisons:

* larger lowest-consistent set (geq_lc): inclusion of the sets of types that
  are the minimum of some message support.  Necessary and sufficient for the
  higher structure to be weakly better for the sender whenever she can prove
  news better than the prior.
* more separation possibilities (geq_sep): for every type, every set of types
  it can separate from with a single message in the lower structure must also
  be separable in the higher one.  Sufficient for geq_lc, not necessary.

A message separates its senders from exactly the complement of its support,
and every sender lies in that support, so geq_sep needs no sampling of types.
It holds iff every finite support of the lower structure is a support of the
higher one, or is a single point while the higher one has full
verifiability, and the higher one has full verifiability whenever the lower
one does.  Canonical supports compare as sets, as their intervals on pairs
(VerifStructure._intervals): one lookup per message.
"""

from __future__ import annotations

from fractions import Fraction
from .equilibrium import GameSpec, equilibrium_value
from .errors import PreconditionError
from .piecewise import StepFunction
from .rationals import ONE, ZERO
from .records import Record, set_field
from .verifiability import VerifStructure, complement_pieces, identity_name, lowest_consistent_set


class OrderVerdict(Record):
    # relation: "lc" | "sep"; witness: a type for lc, (type, complement pieces) for sep
    def __init__(self, relation: str, holds: bool, witness: object = None) -> None:
        set_field(self, "relation", relation)
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)

    def __bool__(self):
        return self.holds


def geq_lc(m_hi: VerifStructure, m_lo: VerifStructure) -> OrderVerdict:
    """Does m_hi have a (weakly) larger lowest-consistent set than m_lo?"""
    hi = lowest_consistent_set(m_hi)
    lo = lowest_consistent_set(m_lo)
    if hi.issuperset(lo):
        return OrderVerdict("lc", True)
    if lo.all_of_unit_interval:
        # every type is lowest-consistent below; exhibit one the high side
        # misses: 1, or else any type between 0 and its smallest positive one
        if ONE not in hi.types:
            return OrderVerdict("lc", False, ONE)
        return OrderVerdict("lc", False, min(t for t in hi.types if t > ZERO) / 2)
    missing = sorted(set(lo.types) - set(hi.types))
    return OrderVerdict("lc", False, missing[0])


def geq_sep(m_hi: VerifStructure, m_lo: VerifStructure) -> OrderVerdict:
    """Does m_hi offer (weakly) more separation possibilities than m_lo?

    A type separates from exactly the complement of a message's support, and
    every type that can send a message lies in its support.  So m_hi offers
    everything m_lo does iff every finite support of m_lo is a support of
    m_hi (canonical supports compare as sets, on their intervals' pairs), or is a single point
    while m_hi has full verifiability, and m_lo's identity family, if any, is
    matched by m_hi's.

    The witness is the smallest failing (type, message name), with identity
    messages named ``id:<s>``.  A finite message first fails at its support
    minimum.  An unmatched identity family fails at 0, or, when m_hi has the
    support {0}, halfway between 0 and the smallest positive endpoint of
    either structure, where no support of m_hi is a single point.
    """
    hi_supports = set(m_hi._intervals().values())
    minima, failures = m_lo._minima, []
    for name, ivs in m_lo._intervals().items():
        if ivs not in hi_supports and not (m_hi.full_verifiability and ivs[0][0] == ivs[-1][1]):
            failures.append((minima[name], name, ivs))
    if m_lo.full_verifiability and not m_hi.full_verifiability:
        s = ZERO
        if (((0, 1), (0, 1), True),) in hi_supports:  # the support {0}
            s = min(m_hi._table.point(1), m_lo._table.point(1)) / 2
        pair = s.numerator, s.denominator
        failures.append((s, identity_name(s), ((pair, pair, True),)))
    if not failures:
        return OrderVerdict("sep", True)
    s, _, ivs = min(failures, key=lambda f: f[:2])
    return OrderVerdict("sep", False, (s, complement_pieces(ivs)))


def is_sender_optimal(structure: VerifStructure) -> bool:
    """All types lowest-consistent: only possible via the identity family."""
    return structure.full_verifiability


def is_receiver_optimal(structure: VerifStructure) -> bool:
    """Exactly types 0 and 1 are lowest-consistent."""
    lset = lowest_consistent_set(structure)
    return not lset.all_of_unit_interval and set(lset.types) == {ZERO, ONE}


class SeparatingInstance(Record):
    def __init__(self, s_star: Fraction, payoff: StepFunction, prior: Fraction, game_lo: GameSpec, game_hi: GameSpec,
                 value_lo: Fraction, sup_value_hi: Fraction) -> None:
        set_field(self, "s_star", s_star)
        set_field(self, "payoff", payoff)
        set_field(self, "prior", prior)
        set_field(self, "game_lo", game_lo)
        set_field(self, "game_hi", game_hi)
        set_field(self, "value_lo", value_lo)
        set_field(self, "sup_value_hi", sup_value_hi)


def separating_instance(m_hi: VerifStructure, m_lo: VerifStructure) -> SeparatingInstance:
    """Constructive witness that a failed lc-comparison costs the sender.

    Takes geq_lc's witness s* > 0, lowest-consistent below but not above (0
    is lowest-consistent in every structure, since the supports cover it),
    and the indicator payoff v = 1[s >= s*] with prior p = s*/2.  The low
    structure then supports PNBP and strictly beats every equilibrium value
    of the high structure, so neither needs a runtime check:

    * low: s* is the minimum of some support, which holds it (supports are
      left-closed), or every type is lowest-consistent; so type s* can prove
      itself, v(s*) = 1 > 0 = v(p), which is PNBP, and v(g(s*)) = 1.  Since
      g(s) <= s, v(g(s)) = 0 below s*.  So v(g) lies under the concave
      min(1, s/s*) and touches it at 0 and s*: value_lo = 1/2.
    * high: the structure has no full verifiability (else its lowest-
      consistent set would contain the low one), so its lowest-consistent
      types are finitely many, and g(s) is one of them, at most s.  So
      v(g(s)) = 1 only for s >= t, the least of them above s*, and v(g) lies
      under min(1, s/t): every equilibrium value, the PNBP value cav v(g)(p)
      or else v(p) = 0, is at most s*/(2t) < 1/2 (0 when there is no t).
    """
    verdict = geq_lc(m_hi, m_lo)
    if verdict.holds:
        raise PreconditionError("structures are lc-ordered; no separating instance exists")
    s_star = verdict.witness
    payoff = StepFunction((ZERO, s_star), (ZERO, ONE))
    prior = s_star / 2
    game_lo = GameSpec(payoff, prior, m_lo)
    game_hi = GameSpec(payoff, prior, m_hi)
    value_lo = equilibrium_value(game_lo).value
    sup_hi = equilibrium_value(game_hi).value  # sup of the equilibrium set either way
    return SeparatingInstance(s_star, payoff, prior, game_lo, game_hi, value_lo, sup_hi)
