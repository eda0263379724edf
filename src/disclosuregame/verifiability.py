"""Verifiability structures: which messages each sender type can send.

A structure is a finite list of named messages, each with an interval-union
support (the set of types able to send it), plus an optional full-verifiability
flag.  When the flag is set, every type s additionally owns an identity message
whose support is exactly {s}; these are never enumerated, all queries
special-case the flag.  Identity messages are addressed as ``id:<rational>``,
so that prefix is reserved.

Support intervals are left-closed (the minimum of every support is attained,
which is what the lowest-consistent machinery needs); the right endpoint may be
closed or open.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ConstructionError, DomainError, PreconditionError, UnknownMessageError
from .piecewise import StepFunction
from .rationals import (
    ONE,
    ZERO,
    as_fraction,
    format_rational,
    in_unit_interval,
    order_key,
    parse_rational,
    sorted_distinct,
)

IDENTITY_PREFIX = "id:"


@dataclass(frozen=True)
class SupportInterval:
    lo: Fraction
    hi: Fraction
    hi_closed: bool = True

    def __post_init__(self):
        lo, hi = as_fraction(self.lo), as_fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (in_unit_interval(lo) and in_unit_interval(hi)):
            raise ConstructionError(f"interval [{lo},{hi}] must lie in [0,1]")
        # lo vs hi on the canonical pairs, positive denominators cross-multiplied
        left, right = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        if left > right:
            raise ConstructionError(f"interval has lo {lo} > hi {hi}")
        if left == right and not self.hi_closed:
            raise ConstructionError("degenerate interval must be closed")


@dataclass(frozen=True)
class IntervalUnion:
    """Canonical (sorted, merged) finite union of left-closed intervals."""

    intervals: tuple[SupportInterval, ...]

    def __post_init__(self):
        ivs = list(self.intervals)
        if len(ivs) > 1:
            ivs.sort(key=lambda iv: (order_key(iv.lo), order_key(iv.hi), iv.hi_closed))
        if not ivs:
            raise ConstructionError("support must be non-empty")
        merged = [ivs[0]]
        for iv in ivs[1:]:
            cur = merged[-1]
            if iv.lo < cur.hi or (iv.lo == cur.hi):
                # overlapping or touching: the union stays one interval because
                # iv is left-closed
                if iv.hi > cur.hi or (iv.hi == cur.hi and iv.hi_closed):
                    merged[-1] = SupportInterval(cur.lo, iv.hi, iv.hi_closed)
            else:
                merged.append(iv)
        object.__setattr__(self, "intervals", tuple(merged))

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "IntervalUnion":
        """Build from (lo, hi) or (lo, hi, hi_closed) tuples; closed by default."""
        ivs = []
        for p in pairs:
            hi_closed = bool(p[2]) if len(p) > 2 else True
            ivs.append(SupportInterval(p[0], p[1], hi_closed))
        return cls(tuple(ivs))

    @property
    def minimum(self) -> Fraction:
        return self.intervals[0].lo

    def hull_bounds(self) -> tuple[Fraction, Fraction]:
        """Closure of the convex hull, [min, sup]."""
        return self.intervals[0].lo, self.intervals[-1].hi

    def hull_contains(self, x: Fraction) -> bool:
        """min <= x <= sup, on numerators and (positive) denominators cross-multiplied."""
        lo, hi = self.intervals[0].lo, self.intervals[-1].hi
        xn, xd = x.numerator, x.denominator
        return lo.numerator * xd <= xn * lo.denominator and xn * hi.denominator <= hi.numerator * xd

    def endpoints(self) -> list[Fraction]:
        out = []
        for iv in self.intervals:
            out.append(iv.lo)
            out.append(iv.hi)
        return out

    def complement_pieces(self) -> list[tuple[Fraction, bool, Fraction, bool]]:
        """Complement within [0,1] as (lo, lo_closed, hi, hi_closed) pieces."""
        out = []
        cursor, cursor_closed = ZERO, True
        for iv in self.intervals:
            if cursor < iv.lo:  # gap up to the left-closed start of iv
                out.append((cursor, cursor_closed, iv.lo, False))
            cursor, cursor_closed = iv.hi, not iv.hi_closed
        if cursor < ONE or (cursor == ONE and cursor_closed):
            out.append((cursor, cursor_closed, ONE, True))
        return out


@dataclass(frozen=True)
class VerifStructure:
    messages: tuple[tuple[str, IntervalUnion], ...]
    full_verifiability: bool = False

    def __post_init__(self):
        names = [name for name, _ in self.messages]
        if len(set(names)) != len(names):
            raise ConstructionError("message names must be unique")
        for name in names:
            if name.startswith(IDENTITY_PREFIX):
                raise ConstructionError(f"message name {name!r} uses the reserved prefix {IDENTITY_PREFIX!r}")
        if not self.full_verifiability:
            if not self.messages:
                raise ConstructionError("a structure without full verifiability needs messages")
            self._best_minima  # the endpoint sweep checks coverage

    def support(self, name: str) -> IntervalUnion:
        try:
            return self._supports[name]
        except KeyError:
            raise UnknownMessageError(name) from None

    @cached_property
    def _supports(self) -> dict[str, IntervalUnion]:
        return dict(self.messages)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.messages)

    def support_endpoints(self) -> list[Fraction]:
        return list(self._endpoints)

    @cached_property
    def _endpoints(self) -> tuple[Fraction, ...]:
        """0, 1 and every support endpoint, sorted and distinct."""
        pts = [ZERO, ONE]
        for _, supp in self.messages:
            pts += supp.endpoints()
        return tuple(sorted_distinct(pts))

    @cached_property
    def _rank(self) -> dict[tuple[int, int], int]:
        """Each endpoint's index in `_endpoints`, keyed by its (numerator, denominator)."""
        return {(e.numerator, e.denominator): i for i, e in enumerate(self._endpoints)}

    @cached_property
    def _keys(self) -> tuple[tuple[float, Fraction], ...]:
        """order_key of every endpoint."""
        return tuple(map(order_key, self._endpoints))

    def _position(self, s: Fraction) -> int:
        """2i when s is the endpoint of rank i, 2i + 1 when s lies on the open gap after it.

        An endpoint is a dict lookup; any other s in [0,1] bisects the
        endpoints' order keys.  Availability is constant on each open gap,
        so positions decide every membership test on ints (see `_spans`).
        """
        i = self._rank.get((s.numerator, s.denominator))
        if i is not None:
            return 2 * i
        return 2 * bisect_left(self._keys, order_key(s)) - 1

    @cached_property
    def _spans(self) -> tuple[tuple[int, int, int, str], ...]:
        """(start, end, minimum, name) for every interval of every finite message, in message order.

        An interval covers the positions start <= pos < end: from its lo's
        position to its hi's, inclusive when closed.  minimum is the position
        of its support's minimum, so positions also order the minima.
        """
        rank = self._rank

        def pos(q: Fraction) -> int:
            return 2 * rank[q.numerator, q.denominator]

        return tuple(
            (pos(iv.lo), pos(iv.hi) + iv.hi_closed, pos(supp.minimum), name)
            for name, supp in self.messages
            for iv in supp.intervals
        )

    @cached_property
    def _best_minima(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Exact g at every endpoint and on every open gap, as indices into `_endpoints`.

        g(s) is the largest support minimum among the finite messages available
        at s.  One sweep over endpoint ranks, left to right: each interval,
        (rank of lo, rank of its minimum, rank of hi, closed), enters a
        max-heap on its minimum's rank at its `lo`, and leaves lazily once the
        top has ended.  Availability only changes at endpoints, so g is
        constant on each open gap.  An empty heap is a point or gap that no
        support covers, and raises ConstructionError; structures without full
        verifiability run the sweep when they are built, and callers test the
        flag first.  Returns (indices at the endpoints, indices on the gaps).
        """
        rank = self._rank

        def r(q: Fraction) -> int:
            return rank[q.numerator, q.denominator]

        intervals = sorted(
            (r(iv.lo), r(supp.minimum), r(iv.hi), iv.hi_closed)
            for _, supp in self.messages
            for iv in supp.intervals
        )
        heap: list[tuple[int, int, bool]] = []

        def best() -> int:
            if not heap:
                raise ConstructionError("message supports must cover all of [0,1]")
            return -heap[0][0]

        at_point, on_gap = [], []
        k, last = 0, len(self._endpoints) - 1
        for e in range(last + 1):
            while k < len(intervals) and intervals[k][0] <= e:
                _, minimum, hi, hi_closed = intervals[k]
                heapq.heappush(heap, (-minimum, hi, hi_closed))
                k += 1
            # an interval that has ended at e has ended for every later point
            while heap and (heap[0][1] < e or (heap[0][1] == e and not heap[0][2])):
                heapq.heappop(heap)
            at_point.append(best())
            if e == last:
                break
            while heap and heap[0][1] <= e:
                heapq.heappop(heap)
            on_gap.append(best())
        return tuple(at_point), tuple(on_gap)


def identity_name(s: Fraction) -> str:
    return IDENTITY_PREFIX + format_rational(s)


def messages_at(structure: VerifStructure, s: Fraction) -> set[str]:
    """All messages available to type s (identity message included under the flag).

    Each interval is tested on s's position among the support endpoints, ints.
    """
    s = as_fraction(s)
    if not in_unit_interval(s):
        raise DomainError(f"type {s} outside [0,1]")
    pos = structure._position(s)
    out = {name for start, end, _, name in structure._spans if start <= pos < end}
    if structure.full_verifiability:
        out.add(identity_name(s))
    return out


def min_inverse(structure: VerifStructure, name: str) -> Fraction:
    """Smallest type able to send the message (attained: supports are left-closed)."""
    if name.startswith(IDENTITY_PREFIX):
        if not structure.full_verifiability:
            raise UnknownMessageError(name)
        return parse_rational(name[len(IDENTITY_PREFIX):])
    return structure.support(name).minimum


def max_min_available(structure: VerifStructure, s: Fraction) -> Fraction:
    """Best credible type reachable from s: max over M(s) of min of the support.

    Exact at every s, support endpoints included; a lookup of s's position
    in the structure's cached endpoint sweep.
    """
    s = as_fraction(s)
    if not in_unit_interval(s):
        raise DomainError(f"type {s} outside [0,1]")
    if structure.full_verifiability:
        # the identity message dominates: every finite message at s has minimum <= s
        return s
    at_point, on_gap = structure._best_minima
    pos = structure._position(s)
    return structure._endpoints[on_gap[pos // 2] if pos % 2 else at_point[pos // 2]]


@dataclass(frozen=True)
class LowestConsistentSet:
    types: tuple[Fraction, ...]
    all_of_unit_interval: bool = False

    def issuperset(self, other: "LowestConsistentSet") -> bool:
        if self.all_of_unit_interval:
            return True
        if other.all_of_unit_interval:
            return False
        return set(self.types) >= set(other.types)


def lowest_consistent_set(structure: VerifStructure) -> LowestConsistentSet:
    """Types that are the minimum of some message support (all of [0,1] under the flag)."""
    minima = sorted({supp.minimum for _, supp in structure.messages})
    return LowestConsistentSet(tuple(minima), structure.full_verifiability)


def skeptical_type_map(structure: VerifStructure) -> StepFunction:
    """Step function g(s) = max over available messages of the support minimum.

    Each piece carries g's exact value on the open gaps between consecutive
    support endpoints, and g(1) at 1, both from the structure's endpoint
    sweep.  Where g at an interior endpoint differs from its value just to the
    right (a support closed at an interior right end, or a degenerate interior
    support point), the left-closed pieces cannot show it; max_min_available
    reads the same sweep's exact endpoint value.

    Under full verifiability g is the identity, which is not a step function;
    callers test the flag first, and this raises PreconditionError.
    """
    if structure.full_verifiability:
        raise PreconditionError("skeptical_type_map needs a structure without full verifiability")
    at_point, on_gap = structure._best_minima
    endpoints = structure._endpoints
    return StepFunction(endpoints, tuple(endpoints[j] for j in (*on_gap, at_point[-1])))


# ---------------------------------------------------------------------------
# builders for the canonical environments
# ---------------------------------------------------------------------------

def cheap_talk(names: Sequence[str] = ("m_0",)) -> VerifStructure:
    """Every message available to every type: talk is cheap."""
    if not names:
        raise ConstructionError("cheap talk needs at least one message")
    full = IntervalUnion.from_pairs([(ZERO, ONE)])
    return VerifStructure(tuple((n, full) for n in names))


def thresholds(levels: Sequence, names: Sequence[str] | None = None) -> VerifStructure:
    """Certifiable thresholds: message i provable exactly by types >= level i.

    A base message on all of [0,1] is always included, so `levels` lists the
    strictly ascending thresholds in (0,1].
    """
    lvls = [Fraction(x) for x in levels]
    if any(not (ZERO < x <= ONE) for x in lvls):
        raise ConstructionError("thresholds must lie in (0,1]")
    if any(not a < b for a, b in zip(lvls, lvls[1:])):
        raise ConstructionError("thresholds must be strictly ascending")
    if names is None:
        names = [f"m_{i}" for i in range(len(lvls) + 1)]
    if len(names) != len(lvls) + 1:
        raise ConstructionError("need one name per threshold plus the base message")
    msgs = [(names[0], IntervalUnion.from_pairs([(ZERO, ONE)]))]
    for name, lvl in zip(names[1:], lvls):
        msgs.append((name, IntervalUnion.from_pairs([(lvl, ONE)])))
    return VerifStructure(tuple(msgs))


def partition(cells: Sequence, names: Sequence[str] | None = None) -> VerifStructure:
    """Interval-partition structure: one message per left-closed cell.

    `cells` are (lo, hi) pairs tiling [0,1]; every cell is [lo, hi) except the
    last, which is closed at 1.
    """
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in cells]
    if not pairs or pairs[0][0] != ZERO or pairs[-1][1] != ONE:
        raise ConstructionError("partition cells must tile [0,1]")
    for (lo, hi), (lo2, _) in zip(pairs, pairs[1:]):
        if hi != lo2:
            raise ConstructionError("partition cells must be contiguous and disjoint")
    for lo, hi in pairs:
        if not lo < hi:
            raise ConstructionError("partition cells must be non-degenerate")
    if names is None:
        names = [f"m_{i}" for i in range(len(pairs))]
    if len(names) != len(pairs):
        raise ConstructionError("need one name per cell")
    msgs = []
    for i, (name, (lo, hi)) in enumerate(zip(names, pairs)):
        closed = i == len(pairs) - 1
        msgs.append((name, IntervalUnion.from_pairs([(lo, hi, closed)])))
    return VerifStructure(tuple(msgs))


def add_message(structure: VerifStructure, name: str, support: IntervalUnion) -> VerifStructure:
    """The 'adding a message' shift: identical except `name` is newly available."""
    return replace(structure, messages=structure.messages + ((name, support),))


def full_verif(base: VerifStructure) -> VerifStructure:
    """Grant every type its identity message on top of an existing structure."""
    return replace(base, full_verifiability=True)


def mandatory_disclosure() -> VerifStructure:
    """Each type can only report itself truthfully."""
    return VerifStructure((), full_verifiability=True)
