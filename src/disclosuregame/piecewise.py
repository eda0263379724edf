"""Exact piecewise-constant functions on [0,1] and their concave envelopes.

Conventions, fixed once for the whole toolkit:

* A StepFunction takes value ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``
  and ``values[-1]`` on ``[breakpoints[-1], 1]``.  Pieces are left-closed; the
  final piece is closed at 1.  Non-decreasing instances are therefore upper
  semicontinuous automatically.  Non-monotone instances are allowed (the
  skepticism-adjusted payoff can be non-monotone).
* All arithmetic is over ``fractions.Fraction``; every comparison in this module
  is exact, there are no tolerances anywhere.  A point query bisects the
  function's own breakpoints (or vertex x-coordinates), comparing Fractions
  exactly, and validation and hull turns cross-multiply numerators and
  denominators.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import cached_property

from .errors import DomainError
from .rationals import ONE, ZERO, as_fraction, in_unit_interval, not_right_turn, upper_hull
from .records import Record, set_field

Point = tuple[Fraction, Fraction]


class StepFunction(Record):
    """A non-empty step function on [0,1] in canonical form: adjacent pieces with equal values are merged.

    Besides its two fields it keeps, after the merge, the canonical
    (numerator, denominator) pairs of each: breakpoint_pairs[i] is that of
    breakpoints[i] and value_pairs[i] that of values[i].  They are not
    fields (eq, hash, repr and replace ignore them; replace derives them
    again).  The int kernels that read a game's payoff read them in place of
    the Fractions' properties: the game's table and level table, the hull
    scan, the oracle's grid, the line test, the exhaustive search and the
    figure.
    """

    def __init__(self, breakpoints: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> None:
        self._store(breakpoints, values)

    def __post_init__(self):
        bps = tuple(map(as_fraction, self.breakpoints))
        vals = tuple(map(as_fraction, self.values))
        if len(bps) != len(vals) or not bps:
            raise ValueError("breakpoints and values must be non-empty and same length")
        # every check, the merge and the monotonicity test run once, on the
        # canonical (numerator, denominator) pairs, with the positive
        # denominators cross-multiplied
        pairs = [(b.numerator, b.denominator) for b in bps]
        if pairs[0][0] != 0:
            raise ValueError("first breakpoint must be 0")
        for (an, ad), (bn, bd) in zip(pairs, pairs[1:]):
            if not an * bd < bn * ad:
                raise ValueError("breakpoints must be strictly ascending")
        if pairs[-1][0] > pairs[-1][1]:
            raise ValueError("breakpoints must lie in [0,1]")
        # canonical form: merge adjacent pieces with equal values
        v_pairs = [(v.numerator, v.denominator) for v in vals]
        keep = [0, *(i for i in range(1, len(vals)) if v_pairs[i] != v_pairs[i - 1])]
        kept = tuple(v_pairs[i] for i in keep)
        set_field(self, "breakpoints", tuple(bps[i] for i in keep))
        set_field(self, "values", tuple(vals[i] for i in keep))
        set_field(self, "breakpoint_pairs", tuple(pairs[i] for i in keep))
        set_field(self, "value_pairs", kept)
        set_field(self, "_non_decreasing", all(an * bd <= bn * ad for (an, ad), (bn, bd) in zip(kept, kept[1:])))

    def __call__(self, x: Fraction) -> Fraction:
        return step_eval(self, x)

    def piece(self, x: Fraction) -> int:
        """Index of the piece holding x in [0,1]: the last breakpoint at or before x (1 is on the last piece)."""
        return bisect_right(self.breakpoints, x) - 1

    def pieces(self) -> Iterator[tuple[Fraction, Fraction, Fraction]]:
        """Yield (lo, hi, value); every piece is [lo, hi) except the last, [lo, 1]."""
        for i, (b, v) in enumerate(zip(self.breakpoints, self.values)):
            hi = self.breakpoints[i + 1] if i + 1 < len(self.breakpoints) else ONE
            yield b, hi, v

    @property
    def is_non_decreasing(self) -> bool:
        return self._non_decreasing


def step_eval(f: StepFunction, x: Fraction) -> Fraction:
    """Value of f at x under the left-closed piece convention."""
    x = as_fraction(x)
    if not in_unit_interval(x):
        raise DomainError(f"step function argument {x} outside [0,1]")
    return f.values[f.piece(x)]


class ConcavePL(Record):
    """Concave piecewise-linear function given by its vertex chain over [0,1]."""

    def __init__(self, vertices: tuple[Point, ...]) -> None:
        self._store(vertices)

    def __post_init__(self):
        vs = tuple((as_fraction(x), as_fraction(y)) for x, y in self.vertices)
        if len(vs) < 2:
            raise ValueError("need at least two vertices")
        if vs[0][0] != ZERO or vs[-1][0] != ONE:
            raise ValueError("vertex chain must span [0,1]")
        # exact tests on numerators and denominators: ascending x cross-multiplied,
        # and concavity as a strict right turn at each interior vertex
        ints = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in vs]
        if any(not an * bd < bn * ad for (an, ad, _, _), (bn, bd, _, _) in zip(ints, ints[1:])):
            raise ValueError("vertex x-coordinates must be strictly ascending")
        if any(map(not_right_turn, ints, ints[1:], ints[2:])):
            raise ValueError("slopes must strictly decrease (concavity)")
        set_field(self, "vertices", vs)

    def __call__(self, x: Fraction) -> Fraction:
        return pl_eval(self, x)

    @cached_property
    def xs(self) -> tuple[Fraction, ...]:
        """Vertex x-coordinates, built once per instance (not a field: eq and repr ignore it)."""
        return tuple(x for x, _ in self.vertices)


def pl_eval(g: ConcavePL, x: Fraction) -> Fraction:
    """Exact linear interpolation between the bracketing vertices."""
    x = as_fraction(x)
    if not in_unit_interval(x):
        raise DomainError(f"piecewise-linear argument {x} outside [0,1]")
    i = bisect_right(g.xs, x) - 1
    if i == len(g.vertices) - 1:
        return g.vertices[-1][1]
    (x0, y0), (x1, y1) = g.vertices[i], g.vertices[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def upper_hull_points(points: Iterable[Point]) -> list[Point]:
    """Vertices of the upper concave hull of a finite point set, left to right.

    Collinear interior points are dropped, so consecutive slopes strictly
    decrease.  Duplicate x-coordinates keep only the highest y.  Points are
    keyed by their canonical (numerator, denominator), sorted as (x, y)
    tuples (x is distinct, so y is never compared), and rationals.upper_hull
    scans them on those ints.
    """
    best: dict[tuple[int, int], Point] = {}
    for x, y in points:
        key = x.numerator, x.denominator
        if key not in best or y > best[key][1]:
            best[key] = (x, y)
    pts = sorted(best.values())
    return [pts[i] for i in upper_hull([(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in pts])]


def hull_candidates(f: StepFunction) -> list[Point]:
    """Candidate points whose upper hull is the concave envelope of f.

    Each piece contributes its value at both of its endpoints: any concave
    majorant of a constant piece must weakly exceed the piece value at both
    ends (concave functions are continuous on the interior of [0,1]), so the
    hull over this set is the smallest concave majorant.
    """
    pts: list[Point] = []
    for lo, hi, v in f.pieces():
        pts.append((lo, v))
        pts.append((hi, v))
    pts.append((ONE, step_eval(f, ONE)))
    return pts


def cav(f: StepFunction) -> ConcavePL:
    """Smallest concave majorant of f (monotonicity of f not required)."""
    hull = upper_hull_points(hull_candidates(f))
    # candidates always include x=0 and x=1, so the hull spans [0,1]
    return ConcavePL(tuple(hull))
