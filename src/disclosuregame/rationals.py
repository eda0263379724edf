"""Exact rationals, their "p/q" string form used in all JSON I/O, and integer kernels on them.

A Fraction's (numerator, denominator) pair is canonical: lowest terms with a
positive denominator.  So the pair can stand in for the Fraction as a dict
key, and exact tests can run on those two ints, which is much cheaper than
Fraction's own hash, comparisons and arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, inf
from operator import itemgetter

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_pair(text) -> tuple[int, int]:
    """Parse "p/q" or integer strings into a canonical (numerator, denominator) pair.

    Floats are rejected on purpose: exactness is part of the I/O contract.  So
    are booleans, which JSON would hand over as the ints 0 and 1.  The language
    and error texts are those of Python 3.10's Fraction(str) less decimal
    forms on every version (3.11 added underscores, 3.12 spaces at the slash).
    """
    if not isinstance(text, str):
        if isinstance(text, int) and not isinstance(text, bool):
            return text, 1
        raise ValueError(f"rational must be a string like '2/5', got {text!r}")
    s = text.strip()
    num, slash, den = s.partition("/")
    if (num.isdecimal() or num[:1] in ("+", "-") and num[1:].isdecimal()) and (den.isdecimal() or not slash):
        n = int(num)
        if not slash:
            return n, 1
        d = int(den)
        if d:
            g = gcd(n, d)
            return n // g, d // g
        raise ValueError(f"malformed rational {text!r}: Fraction({n}, 0)")
    if "." in s or "e" in s or "E" in s:
        raise ValueError(f"rational {text!r} must be exact (no decimal/float forms)")
    raise ValueError(f"malformed rational {text!r}: Invalid literal for Fraction: {s!r}")


def parse_rational(text) -> Fraction:
    """parse_pair's value as a Fraction."""
    return from_pair(*parse_pair(text))


def from_pair(n: int, d: int) -> Fraction:
    """Fraction(n, d) for a canonical pair (lowest terms, d > 0), without its checks and gcd.

    Fraction keeps just these two ints in its slots on every supported Python
    (3.12 has this as Fraction._from_coprime_ints).
    """
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


_new = object.__new__


def as_fraction(x) -> Fraction:
    """x itself when it is already a Fraction, else Fraction(x)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or just "p" for integers."""
    return format_pair(q.numerator, q.denominator)


def format_pair(n: int, d: int) -> str:
    """format_rational of a canonical pair."""
    return str(n) if d == 1 else f"{n}/{d}"


def in_unit_interval(q: Fraction) -> bool:
    """0 <= q <= 1 for a Fraction q, on its numerator and (positive) denominator."""
    return 0 <= q.numerator <= q.denominator


class Coordinates:
    """One sorted table of distinct rationals in [0,1]: the coordinates that every layer of a game reads.

    pairs[i] is the canonical pair of the i-th smallest value, point(i) its
    Fraction (built on first use), keys[i] its float n / d (correctly
    rounded, so monotone in the value) and rank[pairs[i]] its index i;
    marked[i] says whether it came from the first table (a structure's ranks
    0, 1 and its support endpoints; a game widens it with points that are
    not).  Where a value sits is then a dict lookup on its pair, or one
    bisect on the floats (position), never another sort.
    """

    __slots__ = ("pairs", "keys", "rank", "marked", "_points")

    def __init__(self, points: Mapping[tuple[int, int], Fraction | None]):
        """points maps the canonical pair of each value in [0,1] to its Fraction, or to None."""
        self._fill([(n / d, (n, d), True, q) for (n, d), q in points.items()])

    def widened(self, others: Iterable[Fraction]) -> "Coordinates":
        """A table of these points, marked as here, and of the values others, which are not marked."""
        rank, table = self.rank, _new(Coordinates)
        extra = {(q.numerator, q.denominator): q for q in others}
        table._fill([
            *zip(self.keys, self.pairs, self.marked, self._points),
            *((n / d, (n, d), False, q) for (n, d), q in extra.items() if (n, d) not in rank),
        ])
        return table

    def _fill(self, entries: list[tuple[float, tuple[int, int], bool, Fraction | None]]) -> None:
        """Set the table from (float, pair, marked, Fraction or None) entries with distinct pairs; ties of floats sort exactly."""
        entries.sort()  # pairs are distinct, so no comparison reaches the values
        if len(set(map(itemgetter(0), entries))) < len(entries):
            entries.sort(key=lambda entry: (entry[0], from_pair(*entry[1])))
        self.keys, self.pairs, self.marked, points = map(tuple, zip(*entries))
        self.rank = dict(zip(self.pairs, range(len(entries))))
        self._points = list(points)

    def point(self, i: int) -> Fraction:
        """The i-th smallest value, built on first use."""
        q = self._points[i]
        if q is None:
            q = self._points[i] = from_pair(*self.pairs[i])
        return q

    @property
    def points(self) -> tuple[Fraction, ...]:
        """Every value, ascending."""
        return tuple(map(self.point, range(len(self.pairs))))

    def position(self, q: Fraction) -> int:
        """2i when q is point i, 2i + 1 when q lies on the open gap after it; q between the ends, compared exactly on float ties."""
        n, d = q.numerator, q.denominator
        i = self.rank.get((n, d))
        if i is not None:
            return 2 * i
        keys, pairs, f = self.keys, self.pairs, n / d
        i = bisect_left(keys, f)
        while keys[i] == f and pairs[i][0] * d < n * pairs[i][1]:
            i += 1
        return 2 * i - 1


def on_line_through(p0: tuple[Fraction, Fraction], p1: tuple[Fraction, Fraction]) -> Callable[[Fraction, Fraction], bool]:
    """A test of whether the point (x, y) lies on the line through p0 and p1 (x0 != x1).

    The test is (y - y0)(x1 - x0) == (y1 - y0)(x - x0).  Each difference is
    an int over the product of two positive denominators; the common factor
    y0d * x0d cancels and the rest is cross-multiplied, so every call is one
    int comparison with no gcd.  The solver's split walk is the one caller.
    """
    (x0, y0), (x1, y1) = p0, p1
    x0n, x0d, y0n, y0d = x0.numerator, x0.denominator, y0.numerator, y0.denominator
    dx = (x1.numerator * x0d - x0n * x1.denominator) * y1.denominator
    dy = (y1.numerator * y0d - y0n * y1.denominator) * x1.denominator

    def on_line(x: Fraction, y: Fraction) -> bool:
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        return (yn * y0d - y0n * yd) * dx * xd == dy * (xn * x0d - x0n * xd) * yd

    return on_line


def not_right_turn(o: tuple[int, int, int, int], a: tuple[int, int, int, int], p: tuple[int, int, int, int]) -> bool:
    """Whether o -> a -> p turns left or goes straight, for points given as (xn, xd, yn, yd).

    That is the cross product (a - o) x (p - o) >= 0, the test
    (ax - ox)(py - oy) >= (ay - oy)(px - ox) with every coordinate a
    numerator over a positive denominator.  Each difference is an int over
    the product of its two denominators; multiplying both sides by the
    positive common factor leaves an int comparison with no gcd.  The one
    upper-hull scan (upper_hull) pops a point on this test, and
    piecewise.ConcavePL rejects a vertex chain that makes such a turn.
    """
    oxn, oxd, oyn, oyd = o
    axn, axd, ayn, ayd = a
    pxn, pxd, pyn, pyd = p
    lhs = (axn * oxd - oxn * axd) * (pyn * oyd - oyn * pyd) * ayd * pxd
    rhs = (ayn * oyd - oyn * ayd) * (pxn * oxd - oxn * pxd) * axd * pyd
    return lhs >= rhs


def upper_hull(points: Sequence[tuple[int, int, int, int]]) -> list[int]:
    """Indices of the strict upper-hull vertices of points given as (xn, xd, yn, yd), left to right.

    The points are sorted by strictly increasing x.  A point on or below the
    chord between its neighbours on the hull is popped (not_right_turn), so
    consecutive hull slopes strictly decrease.
    """
    hull: list[int] = []
    for i, p in enumerate(points):
        while len(hull) >= 2 and not_right_turn(points[hull[-2]], points[hull[-1]], p):
            hull.pop()
        hull.append(i)
    return hull


def strict_records(levels: Sequence[int]) -> tuple[list[bool], list[bool]]:
    """(from_left, from_right): whether levels[i] exceeds every level to its left (right).

    Over a sequence of points, one with a level at most that of some point on
    each side lies on or under the chord between them, so only strict records
    can be strict upper-hull vertices.  Each side has at most one record per
    distinct level.  The solver's envelope is the one caller.
    """
    n = len(levels)
    from_left, from_right = [False] * n, [False] * n
    for record, order in ((from_left, range(n)), (from_right, range(n - 1, -1, -1))):
        top = -inf
        for i in order:
            if levels[i] > top:
                record[i], top = True, levels[i]
    return from_left, from_right
