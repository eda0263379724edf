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

A type is a position in the structure's coordinate table (see VerifStructure),
so availability and g, the largest support minimum among the messages
available at s (the endpoint sweep), are int comparisons on table ranks.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ConstructionError, DomainError, PreconditionError, UnknownMessageError
from .piecewise import StepFunction
from .rationals import ONE, ZERO, Coordinates, as_fraction, format_rational, from_pair, in_unit_interval, parse_rational
from .records import Record, set_field

IDENTITY_PREFIX = "id:"
Pair = tuple[int, int]
Interval = tuple[Pair, Pair, bool]  # (lo, hi, hi_closed) as canonical pairs
_new = object.__new__


def check_interval(lo: Pair, hi: Pair, hi_closed: bool) -> None:
    """ConstructionError unless [lo, hi], or [lo, hi), is an interval in [0,1]; exact, on the pairs."""
    (ln, ld), (hn, hd) = lo, hi
    if not (0 <= ln <= ld and 0 <= hn <= hd):
        raise ConstructionError(f"interval [{from_pair(ln, ld)},{from_pair(hn, hd)}] must lie in [0,1]")
    left, right = ln * hd, hn * ld
    if left > right:
        raise ConstructionError(f"interval has lo {from_pair(ln, ld)} > hi {from_pair(hn, hd)}")
    if left == right and not hi_closed:
        raise ConstructionError("degenerate interval must be closed")


class SupportInterval(Record):
    def __init__(self, lo: Fraction, hi: Fraction, hi_closed: bool = True) -> None:
        self._store(lo, hi, hi_closed)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            lo, hi = as_fraction(lo), as_fraction(hi)
            set_field(self, "lo", lo)
            set_field(self, "hi", hi)
        check_interval((lo.numerator, lo.denominator), (hi.numerator, hi.denominator), self.hi_closed)


class IntervalUnion(Record):
    """Canonical (sorted, merged) finite union of left-closed intervals."""

    def __init__(self, intervals: tuple[SupportInterval, ...]) -> None:
        self._store(intervals)

    def __post_init__(self):
        ivs = tuple(self.intervals)
        if not ivs:
            raise ConstructionError("support must be non-empty")
        if len(ivs) > 1:
            value = {(q.numerator, q.denominator): q for iv in ivs for q in (iv.lo, iv.hi)}
            merged = _canonical([(_pair(iv.lo), _pair(iv.hi), iv.hi_closed) for iv in ivs])
            ivs = tuple(SupportInterval(value[lo], value[hi], hi_closed) for lo, hi, hi_closed in merged)
        set_field(self, "intervals", ivs)

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

    def complement_pieces(self) -> list[tuple[Fraction, bool, Fraction, bool]]:
        """Complement within [0,1] as (lo, lo_closed, hi, hi_closed) pieces."""
        return complement_pieces([(_pair(iv.lo), _pair(iv.hi), iv.hi_closed) for iv in self.intervals])


def _pair(q: Fraction) -> Pair:
    return q.numerator, q.denominator


def complement_pieces(ivs: Sequence[Interval]) -> list[tuple[Fraction, bool, Fraction, bool]]:
    """Complement within [0,1] of a support's canonical intervals, as (lo, lo_closed, hi, hi_closed) pieces.

    Compared on the pairs; only the pieces' ends are built as Fractions.
    """
    out, cursor, cursor_closed = [], (0, 1), True
    for lo, hi, hi_closed in ivs:
        if cursor[0] * lo[1] < lo[0] * cursor[1]:  # gap up to the left-closed start of the interval
            out.append((from_pair(*cursor), cursor_closed, from_pair(*lo), False))
        cursor, cursor_closed = hi, not hi_closed
    if cursor != (1, 1) or cursor_closed:
        out.append((from_pair(*cursor), cursor_closed, ONE, True))
    return out


def _canonical(ivs: Sequence[Interval]) -> list[Interval]:
    """A union's intervals sorted and merged, on positions in a table of their ends (as VerifStructure's spans).

    An interval that starts at or before the end of the one before joins it,
    since it is left-closed.
    """
    table = Coordinates(dict.fromkeys(q for lo, hi, _ in ivs for q in (lo, hi)))
    rank, pairs, runs = table.rank, table.pairs, []
    for start, end in sorted((2 * rank[lo], 2 * rank[hi] + hi_closed) for lo, hi, hi_closed in ivs):
        if runs and start <= runs[-1][1]:
            runs[-1] = runs[-1][0], max(end, runs[-1][1])
        else:
            runs.append((start, end))
    return [(pairs[start >> 1], pairs[end >> 1], end & 1 == 1) for start, end in runs]


class VerifStructure(Record):
    """Named messages with their supports, and the full-verifiability flag.

    Built from the supports' endpoint pairs (_from_pairs, or the objects'
    pairs).  ``_table`` (rationals.Coordinates) ranks 0, 1 and every support
    endpoint; a game widens it with the payoff's breakpoints and the prior
    (see GameSpec._table).  ``_spans`` holds (start, end, minimum, name) for
    every interval, in message order, as table positions (2i at point i,
    2i + 1 on the open gap after it): it covers start <= pos < end, and
    minimum is the position of its support's minimum.  Availability is
    constant on each open gap.  Every reader inside the package reads the
    spans: as each message's intervals on pairs (_intervals) or its
    support's minimum (_minima).  Without objects, ``messages`` is built
    from _intervals on first access, for library callers.
    """

    def __init__(self, messages: tuple[tuple[str, IntervalUnion], ...], full_verifiability: bool = False) -> None:
        self._store(messages, full_verifiability)

    def __post_init__(self):
        messages = tuple(map(tuple, self.messages))
        set_field(self, "messages", messages)
        points = {(q.numerator, q.denominator): q for _, supp in messages for iv in supp.intervals for q in (iv.lo, iv.hi)}
        self._build([(name, [(_pair(iv.lo), _pair(iv.hi), iv.hi_closed) for iv in supp.intervals]) for name, supp in messages], points)

    @classmethod
    def _from_pairs(cls, supports: Sequence[tuple[str, Sequence[Interval]]], full_verifiability: bool,
                    points: Mapping[Pair, Fraction]) -> "VerifStructure":
        """A structure from (name, intervals), each interval checked (check_interval) and each union canonical (_canonical).

        The table keeps the Fractions that points holds for some endpoints.
        """
        structure = _new(cls)
        set_field(structure, "full_verifiability", full_verifiability)
        structure._build(supports, points)
        return structure

    def _build(self, supports: Sequence[tuple[str, Sequence[Interval]]], points: Mapping[Pair, Fraction]) -> None:
        """The table and spans of canonical supports, and the structure's own checks."""
        names = [name for name, _ in supports]
        if len(set(names)) != len(names):
            raise ConstructionError("message names must be unique")
        for name in names:
            if name.startswith(IDENTITY_PREFIX):
                raise ConstructionError(f"message name {name!r} uses the reserved prefix {IDENTITY_PREFIX!r}")
        ends = {(0, 1): ZERO, (1, 1): ONE}
        for _, ivs in supports:
            for lo, hi, _ in ivs:
                ends[lo], ends[hi] = points.get(lo), points.get(hi)
        table = Coordinates(ends)
        rank, spans = table.rank, []
        for name, ivs in supports:
            minimum = 2 * rank[ivs[0][0]]
            for lo, hi, hi_closed in ivs:
                spans.append((2 * rank[lo], 2 * rank[hi] + hi_closed, minimum, name))
        set_field(self, "_table", table)
        set_field(self, "_spans", tuple(spans))
        if not self.full_verifiability:
            if not supports:
                raise ConstructionError("a structure without full verifiability needs messages")
            self._best_minima  # the endpoint sweep checks coverage

    @cached_property
    def messages(self) -> tuple[tuple[str, IntervalUnion], ...]:
        """The field, built from the spans on first access when the structure came without it (_from_pairs).

        A constructed structure stores the field in its instance dict, which shadows this.
        """
        point, rank = self._table.point, self._table.rank
        return tuple(
            (message, IntervalUnion(tuple(SupportInterval(point(rank[lo]), point(rank[hi]), hi_closed) for lo, hi, hi_closed in ivs)))
            for message, ivs in self._intervals().items()
        )

    def _intervals(self) -> dict[str, tuple[Interval, ...]]:
        """Each message's canonical intervals as (lo, hi, hi_closed) pairs, in message order: the spans decoded."""
        pairs, supports = self._table.pairs, {}
        for start, end, _, name in self._spans:
            supports.setdefault(name, []).append((pairs[start >> 1], pairs[end >> 1], end & 1 == 1))
        return {name: tuple(ivs) for name, ivs in supports.items()}

    @cached_property
    def _hulls(self) -> dict[str, tuple[int, int]]:
        """Each support's closed convex hull [minimum, supremum] as table ranks, in message order."""
        return {name: (minimum >> 1, end >> 1) for _, end, minimum, name in self._spans}

    @cached_property
    def _minima(self) -> dict[str, Fraction]:
        """Each finite message's support minimum, in message order (the table's Fractions); read it, do not change it."""
        return {name: self._table.point(minimum) for name, (minimum, _) in self._hulls.items()}

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
        return tuple(self._hulls)

    def support_endpoints(self) -> list[Fraction]:
        """0, 1 and every support endpoint, ascending."""
        return list(self._table.points)

    @cached_property
    def _best_minima(self) -> tuple[list[int], list[int]]:
        """Exact g at every point of the table and on every open gap, as table ranks.

        g(s) is the largest support minimum among the finite messages available
        at s.  One sweep over the positions of `_spans`: each interval enters a
        max-heap on its minimum at its start, and the top fills every position
        up to the next start or its own end as one run; ended intervals leave
        lazily.  An empty heap is a point or gap that no support covers: it
        raises ConstructionError when a structure without full verifiability
        is built.  Returns (ranks at the points, ranks on the gaps).
        """
        size = 2 * len(self._table.pairs) - 1
        best, heap, pos = [0] * size, [], 0
        for start, end, minimum, _ in [*sorted(self._spans), (size, size, 0, "")]:
            while pos < start:
                while heap and heap[0][1] <= pos:  # ended before pos, so for every later position
                    heapq.heappop(heap)
                if not heap:
                    raise ConstructionError("message supports must cover all of [0,1]")
                top, stop = -heap[0][0], min(start, heap[0][1])
                best[pos:stop] = [top // 2] * (stop - pos)
                pos = stop
            heapq.heappush(heap, (-minimum, end))
        return best[0::2], best[1::2]


def identity_name(s: Fraction) -> str:
    return IDENTITY_PREFIX + format_rational(s)


def messages_at(structure: VerifStructure, s: Fraction) -> set[str]:
    """All messages available to type s (identity message included under the flag).

    Each interval is tested on s's position in the structure's table, ints.
    """
    s = as_fraction(s)
    if not in_unit_interval(s):
        raise DomainError(f"type {s} outside [0,1]")
    pos = structure._table.position(s)
    out = {name for start, end, _, name in structure._spans if start <= pos < end}
    if structure.full_verifiability:
        out.add(identity_name(s))
    return out


def min_inverse(structure: VerifStructure, name: str) -> Fraction:
    """Smallest type able to send the message (attained: supports are left-closed).

    An identity message exists only under the flag, and only as
    identity_name(s) for a type s in [0,1]: no other spelling names one.
    """
    try:
        if not name.startswith(IDENTITY_PREFIX):
            return structure._minima[name]
        s = parse_rational(name[len(IDENTITY_PREFIX):])
        if structure.full_verifiability and in_unit_interval(s) and identity_name(s) == name:
            return s
    except (KeyError, ValueError):
        pass
    raise UnknownMessageError(name)


class LowestConsistentSet(Record):
    def __init__(self, types: tuple[Fraction, ...], all_of_unit_interval: bool = False) -> None:
        self._store(types, all_of_unit_interval)

    def issuperset(self, other: "LowestConsistentSet") -> bool:
        if self.all_of_unit_interval:
            return True
        if other.all_of_unit_interval:
            return False
        return set(self.types) >= set(other.types)


def lowest_consistent_set(structure: VerifStructure) -> LowestConsistentSet:
    """Types that are the minimum of some message support (all of [0,1] under the flag)."""
    minima = sorted(set(structure._minima.values()))
    return LowestConsistentSet(tuple(minima), structure.full_verifiability)


def skeptical_type_map(structure: VerifStructure) -> StepFunction:
    """Step function g(s) = max over available messages of the support minimum.

    Each piece carries g's exact value on the open gaps between consecutive
    points of the structure's table, and g(1) at 1, both from its endpoint
    sweep.  Where g at an interior endpoint differs from its value just to the
    right (a support closed at an interior right end, or a degenerate interior
    support point), the left-closed pieces cannot show it; the same sweep
    holds the exact value at every point of the table.

    Under full verifiability g is the identity, which is not a step function;
    callers test the flag first, and this raises PreconditionError.
    """
    if structure.full_verifiability:
        raise PreconditionError("skeptical_type_map needs a structure without full verifiability")
    at_point, on_gap = structure._best_minima
    points = structure._table.points
    return StepFunction(points, tuple(points[j] for j in (*on_gap, at_point[-1])))


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
    return structure.replace(messages=structure.messages + ((name, support),))


def full_verif(base: VerifStructure) -> VerifStructure:
    """Grant every type its identity message on top of an existing structure."""
    return base.replace(full_verifiability=True)


def mandatory_disclosure() -> VerifStructure:
    """Each type can only report itself truthfully."""
    return VerifStructure((), full_verifiability=True)
