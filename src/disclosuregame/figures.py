"""Deterministic SVG rendering of a game and its solved equilibrium.

Layout: the payoff as a bold step curve with
filled dots at attained jump points and open circles at the limits, the
skepticism-adjusted payoff dashed, its concave envelope as a gray chord, the
equilibrium expected payoff as a large gray dot above the prior, the two
ex-post payoffs as small gray dots, and one availability bar per message below
the horizontal axis.

All geometry is computed in exact rationals and only converted to fixed-width
decimals when written, so output is byte-for-byte deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .equilibrium import Equilibrium, GameSpec, _belief_of, skeptical_value, value_hull
from .piecewise import step_eval
from .rationals import ONE, ZERO, format_rational, sorted_distinct


WIDTH = 720
PLOT_LEFT = 60
PLOT_RIGHT = 620
PLOT_TOP = 30
PLOT_BOTTOM = 330
ROW_HEIGHT = 26


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class _Mapper:
    """Pixel strings, memoised by (numerator, denominator): cheaper to hash than a Fraction.

    float(q) for a Fraction q is its numerator / denominator, an int true
    division, which Python rounds correctly; so is the same quotient of any
    other pair of ints with the same ratio.  x and y therefore divide ints
    directly and give float(q)'s bits without building q.
    """

    def __init__(self, y_lo: Fraction, y_hi: Fraction):
        # (v - y_lo) / (y_hi - y_lo) = (vn * ld - ln * vd) * hd / (vd * span)
        self._ln, self._ld, self._hd = y_lo.numerator, y_lo.denominator, y_hi.denominator
        self._span = y_hi.numerator * self._ld - self._ln * self._hd
        self._xs: dict[tuple[int, int], str] = {}
        self._ys: dict[tuple[int, int], str] = {}

    def x(self, v: Fraction) -> str:
        key = v.numerator, v.denominator
        if key not in self._xs:
            self._xs[key] = _fmt(PLOT_LEFT + key[0] / key[1] * (PLOT_RIGHT - PLOT_LEFT))
        return self._xs[key]

    def y(self, v: Fraction) -> str:
        vn, vd = key = v.numerator, v.denominator
        if key not in self._ys:
            t = (vn * self._ld - self._ln * vd) * self._hd / (vd * self._span)
            self._ys[key] = _fmt(PLOT_BOTTOM - t * (PLOT_BOTTOM - PLOT_TOP))
        return self._ys[key]


def _mapper(game: GameSpec, eq: Equilibrium) -> _Mapper:
    """The figure's coordinates: y spans every value drawn, 0 and the equilibrium value, padded.

    Every value drawn is a payoff value: v∘g takes v's values, and so do the
    envelope's vertices.  The payoff's values strictly increase, so its first
    and last bound them.
    """
    values = game.payoff.values
    y_lo, y_hi = min(values[0], eq.value, ZERO), max(values[-1], eq.value, ZERO)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    pad = (y_hi - y_lo) / 12
    return _Mapper(y_lo - pad, y_hi + pad)


def render_game_svg(game: GameSpec, eq: Equilibrium) -> str:
    v = game.payoff
    vm = skeptical_value(game)
    hull = value_hull(game)
    m = _mapper(game, eq)

    # the identity family has no support of its own: a dotted bar over [0,1]
    rows = list(game.structure.messages)
    if game.structure.full_verifiability:
        rows.append(("identity", None))
    height = PLOT_BOTTOM + 40 + ROW_HEIGHT * len(rows) + 20

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        # axes
        f'<line x1="{m.x(ZERO)}" y1="{PLOT_BOTTOM}" x2="{m.x(ONE)}" y2="{PLOT_BOTTOM}" stroke="black"/>',
        f'<line x1="{m.x(ZERO)}" y1="{PLOT_BOTTOM}" x2="{m.x(ZERO)}" y2="{PLOT_TOP}" stroke="black"/>',
    ]

    # x ticks: breakpoints, support endpoints, prior
    ticks = sorted_distinct((*v.breakpoints, ZERO, ONE, game.prior))
    for t in ticks:
        xt = m.x(t)
        parts.append(f'<line x1="{xt}" y1="{PLOT_BOTTOM}" x2="{xt}" y2="{PLOT_BOTTOM + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{xt}" y="{PLOT_BOTTOM + 16}" text-anchor="middle">{format_rational(t)}</text>'
        )
    for yv in v.values:  # strictly increasing
        parts.append(
            f'<text x="{PLOT_LEFT - 8}" y="{m.y(yv)}" text-anchor="end" dominant-baseline="middle">'
            f"{format_rational(yv)}</text>"
        )

    # concave envelope of the adjusted payoff: gray chord
    chord = " ".join(f"{m.x(x)},{m.y(y)}" for x, y in hull.vertices)
    parts.append(f'<polyline points="{chord}" fill="none" stroke="#9a9a9a" stroke-width="1.5"/>')

    # adjusted payoff: dashed
    for lo, hi, val in vm.pieces():
        parts.append(
            f'<line x1="{m.x(lo)}" y1="{m.y(val)}" x2="{m.x(hi)}" y2="{m.y(val)}" '
            f'stroke="#555555" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )

    # payoff: bold step with attained/limit markers
    pieces = list(v.pieces())
    for i, (lo, hi, val) in enumerate(pieces):
        parts.append(
            f'<line x1="{m.x(lo)}" y1="{m.y(val)}" x2="{m.x(hi)}" y2="{m.y(val)}" '
            f'stroke="black" stroke-width="3"/>'
        )
        if i > 0:
            parts.append(f'<circle cx="{m.x(lo)}" cy="{m.y(val)}" r="4" fill="black"/>')
            prev_val = pieces[i - 1][2]
            parts.append(
                f'<circle cx="{m.x(lo)}" cy="{m.y(prev_val)}" r="4" fill="white" stroke="black"/>'
            )

    # prior marker and equilibrium dots
    xp = m.x(game.prior)
    parts.append(
        f'<line x1="{xp}" y1="{PLOT_BOTTOM}" x2="{xp}" y2="{PLOT_TOP}" '
        f'stroke="#cccccc" stroke-width="1" stroke-dasharray="2,3"/>'
    )
    for s in eq.signal.support:
        ys_post = step_eval(v, _belief_of(game, eq.beliefs, eq.messaging[s]))
        parts.append(
            f'<circle cx="{m.x(s)}" cy="{m.y(ys_post)}" r="4" fill="#9a9a9a" stroke="black"/>'
        )
    parts.append(
        f'<circle cx="{xp}" cy="{m.y(eq.value)}" r="7" fill="#9a9a9a" stroke="black"/>'
    )

    # message availability bars below the axis
    base = PLOT_BOTTOM + 44
    for i, (name, supp) in enumerate(rows):
        y_row = base + i * ROW_HEIGHT
        if supp is None:
            parts.append(
                f'<line x1="{m.x(ZERO)}" y1="{y_row}" x2="{m.x(ONE)}" y2="{y_row}" '
                f'stroke="black" stroke-width="1" stroke-dasharray="1,3"/>'
            )
        else:
            for iv in supp.intervals:
                if iv.lo == iv.hi:
                    parts.append(f'<circle cx="{m.x(iv.lo)}" cy="{y_row}" r="2.5" fill="black"/>')
                else:
                    parts.append(
                        f'<line x1="{m.x(iv.lo)}" y1="{y_row}" x2="{m.x(iv.hi)}" y2="{y_row}" '
                        f'stroke="black" stroke-width="2"/>'
                    )
        parts.append(
            f'<text x="{PLOT_RIGHT + 10}" y="{y_row}" dominant-baseline="middle">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
