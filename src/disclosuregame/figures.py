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

from collections.abc import Callable
from fractions import Fraction

from .equilibrium import Equilibrium, GameSpec, _belief_of, value_hull
from .piecewise import step_eval
from .rationals import ZERO, Coordinates, format_pair


WIDTH = 720
PLOT_LEFT = 60
PLOT_RIGHT = 620
PLOT_TOP = 30
PLOT_BOTTOM = 330
ROW_HEIGHT = 26


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _x_pixels(table: Coordinates) -> list[str]:
    """The x pixel string of every point of the game's table, by rank.

    A point's key is float(q): its numerator / denominator, an int true
    division, which Python rounds correctly.  So each string comes from
    float(q)'s bits without building anything, once per point.
    """
    return [_fmt(PLOT_LEFT + key * (PLOT_RIGHT - PLOT_LEFT)) for key in table.keys]


def _y_pixels(game: GameSpec, eq: Equilibrium) -> Callable[[int, int], str]:
    """The y pixel string of a value, from its canonical pair: y spans every value drawn, 0 and the equilibrium value, padded.

    Every value drawn is a payoff value: v∘g takes v's values, and so do the
    envelope's vertices.  The payoff's values strictly increase, so its first
    and last bound them.  (v - y_lo) / (y_hi - y_lo) is one int true
    division, (vn * ld - ln * vd) * hd / (vd * span), which gives float()'s
    bits of the same quotient without building it.
    """
    values = game.payoff.values
    y_lo, y_hi = min(values[0], eq.value, ZERO), max(values[-1], eq.value, ZERO)
    if y_lo == y_hi:
        y_hi = y_lo + 1
    pad = (y_hi - y_lo) / 12
    y_lo, y_hi = y_lo - pad, y_hi + pad
    ln, ld, hd = y_lo.numerator, y_lo.denominator, y_hi.denominator
    span = y_hi.numerator * ld - ln * hd

    def y(vn: int, vd: int) -> str:
        t = (vn * ld - ln * vd) * hd / (vd * span)
        return _fmt(PLOT_BOTTOM - t * (PLOT_BOTTOM - PLOT_TOP))

    return y


def render_game_svg(game: GameSpec, eq: Equilibrium) -> str:
    """The figure; every x is a point of the game's table, drawn from one pixel string per rank.

    Ticks, value labels and payoff rows read the pairs that the table and
    the payoff keep, and each layout number becomes a string once per
    figure, not once per element.
    """
    v, table = game.payoff, game._table
    hull = value_hull(game)
    px, y_pair = _x_pixels(table), _y_pixels(game, eq)
    py = [y_pair(*pair) for pair in v.value_pairs]  # by payoff piece, which every level indexes
    rank = table.rank
    bottom, tick_end, tick_label, value_label, name_label = map(
        str, (PLOT_BOTTOM, PLOT_BOTTOM + 4, PLOT_BOTTOM + 16, PLOT_LEFT - 8, PLOT_RIGHT + 10))

    def y(q: Fraction) -> str:
        return y_pair(q.numerator, q.denominator)

    def x(q: Fraction) -> str:
        """By rank: every x drawn is a point of the table, but for a posterior of a signal that solve did not find."""
        i = rank.get((q.numerator, q.denominator))
        return px[i] if i is not None else _fmt(PLOT_LEFT + float(q) * (PLOT_RIGHT - PLOT_LEFT))

    # one row per message, its intervals' ends as game ranks (the game's table
    # holds every support endpoint); the identity family has no support of
    # its own: a dotted bar over [0,1]
    rows = [(name, [(rank[lo], rank[hi]) for lo, hi, _ in ivs]) for name, ivs in game.structure._intervals().items()]
    if game.structure.full_verifiability:
        rows.append(("identity", None))
    height = PLOT_BOTTOM + 40 + ROW_HEIGHT * len(rows) + 20

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
        # axes
        f'<line x1="{px[0]}" y1="{PLOT_BOTTOM}" x2="{px[-1]}" y2="{PLOT_BOTTOM}" stroke="black"/>',
        f'<line x1="{px[0]}" y1="{PLOT_BOTTOM}" x2="{px[0]}" y2="{PLOT_TOP}" stroke="black"/>',
    ]

    # x ticks: breakpoints, 0, 1 and the prior
    breaks = list(map(rank.__getitem__, v.breakpoint_pairs))
    for r in sorted({*breaks, len(px) - 1, rank[game.prior.numerator, game.prior.denominator]}):
        parts.append(f'<line x1="{px[r]}" y1="{bottom}" x2="{px[r]}" y2="{tick_end}" stroke="black"/>')
        parts.append(
            f'<text x="{px[r]}" y="{tick_label}" text-anchor="middle">{format_pair(*table.pairs[r])}</text>'
        )
    for yv, label in zip(py, v.value_pairs):  # strictly increasing
        parts.append(
            f'<text x="{value_label}" y="{yv}" text-anchor="end" dominant-baseline="middle">'
            f"{format_pair(*label)}</text>"
        )

    # concave envelope of the adjusted payoff: gray chord
    chord = " ".join(f"{x(xv)},{y(yv)}" for xv, yv in hull.vertices)
    parts.append(f'<polyline points="{chord}" fill="none" stroke="#9a9a9a" stroke-width="1.5"/>')

    # adjusted payoff: dashed, one line per piece of v∘g
    runs = game._adjusted_runs
    for (lo, level), (hi, _) in zip(runs, [*runs[1:], (len(px) - 1, None)]):
        parts.append(
            f'<line x1="{px[lo]}" y1="{py[level]}" x2="{px[hi]}" y2="{py[level]}" '
            f'stroke="#555555" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )

    # payoff: bold step with attained/limit markers
    for k, (lo, hi) in enumerate(zip(breaks, [*breaks[1:], len(px) - 1])):
        parts.append(
            f'<line x1="{px[lo]}" y1="{py[k]}" x2="{px[hi]}" y2="{py[k]}" '
            f'stroke="black" stroke-width="3"/>'
        )
        if k > 0:
            parts.append(f'<circle cx="{px[lo]}" cy="{py[k]}" r="4" fill="black"/>')
            parts.append(
                f'<circle cx="{px[lo]}" cy="{py[k - 1]}" r="4" fill="white" stroke="black"/>'
            )

    # prior marker and equilibrium dots
    xp = x(game.prior)
    parts.append(
        f'<line x1="{xp}" y1="{PLOT_BOTTOM}" x2="{xp}" y2="{PLOT_TOP}" '
        f'stroke="#cccccc" stroke-width="1" stroke-dasharray="2,3"/>'
    )
    for s in eq.signal.support:
        ys_post = step_eval(v, _belief_of(game, eq.beliefs, eq.messaging[s]))
        parts.append(
            f'<circle cx="{x(s)}" cy="{y(ys_post)}" r="4" fill="#9a9a9a" stroke="black"/>'
        )
    parts.append(
        f'<circle cx="{xp}" cy="{y(eq.value)}" r="7" fill="#9a9a9a" stroke="black"/>'
    )

    # message availability bars below the axis
    base = PLOT_BOTTOM + 44
    for i, (name, bars) in enumerate(rows):
        y_row = str(base + i * ROW_HEIGHT)
        if bars is None:
            parts.append(
                f'<line x1="{px[0]}" y1="{y_row}" x2="{px[-1]}" y2="{y_row}" '
                f'stroke="black" stroke-width="1" stroke-dasharray="1,3"/>'
            )
        else:
            for lo, hi in bars:
                if lo == hi:
                    parts.append(f'<circle cx="{px[lo]}" cy="{y_row}" r="2.5" fill="black"/>')
                else:
                    parts.append(
                        f'<line x1="{px[lo]}" y1="{y_row}" x2="{px[hi]}" y2="{y_row}" '
                        f'stroke="black" stroke-width="2"/>'
                    )
        parts.append(
            f'<text x="{name_label}" y="{y_row}" dominant-baseline="middle">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
