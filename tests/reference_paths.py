"""Slow, direct implementations that the solver's fast paths are tested against.

Each one evaluates its definition head-on: which messages a type can send is
decided by testing every support, and step functions are sampled at the
midpoint of every gap between support endpoints.
"""

from fractions import Fraction

from disclosuregame import GameSpec, Signal, StepFunction, VerifStructure, messages_at, min_inverse
from disclosuregame.oracle import critical_grid, discrete_cav
from disclosuregame.piecewise import ConcavePL, hull_candidates, step_eval, upper_hull_points
from disclosuregame.verifiability import IDENTITY_PREFIX, IDENTITY_TYPE_MAP

ONE = Fraction(1)


def pointwise_g(structure: VerifStructure, s: Fraction) -> Fraction:
    """Best support minimum among the messages available at s, by testing every support."""
    return max(min_inverse(structure, m) for m in messages_at(structure, s))


def midpoint_type_map(structure: VerifStructure):
    """g as a step function, sampled at the midpoint of every gap between endpoints."""
    if structure.full_verifiability:
        return IDENTITY_TYPE_MAP
    grid = structure.support_endpoints()
    bps, vals = [], []
    for a, b in zip(grid, grid[1:]):
        v = pointwise_g(structure, (a + b) / 2)
        if not vals or v != vals[-1]:
            bps.append(a)
            vals.append(v)
    v1 = pointwise_g(structure, ONE)
    if v1 != vals[-1]:
        bps.append(ONE)
        vals.append(v1)
    return StepFunction(tuple(bps), tuple(vals))


def candidate_value_hull(game: GameSpec) -> ConcavePL:
    """Envelope of v(g) from the midpoint map's pieces plus pointwise values at every endpoint."""
    if game.structure.full_verifiability:
        adjusted = game.payoff
    else:
        adjusted = midpoint_type_map(game.structure).map_values(lambda t: step_eval(game.payoff, t))
    pts = hull_candidates(adjusted)
    if not game.structure.full_verifiability:
        for e in game.structure.support_endpoints():
            pts.append((e, step_eval(game.payoff, pointwise_g(game.structure, e))))
    return ConcavePL(tuple(upper_hull_points(pts)))


def pointwise_interim_values(game: GameSpec, beliefs, grid) -> list[Fraction]:
    """w at every grid point, by testing every support there (identity messages score v(s))."""
    levels = {name: step_eval(game.payoff, beliefs[name]) for name in game.structure.names}
    return [
        max(
            step_eval(game.payoff, s) if m.startswith(IDENTITY_PREFIX) else levels[m]
            for m in messages_at(game.structure, s)
        )
        for s in grid
    ]


def chord_best_deviation(game: GameSpec, beliefs) -> tuple[Fraction, Signal]:
    """Best response by searching every pair of grid points for a chord through the optimum."""
    grid = critical_grid(game)
    w = dict(zip(grid, pointwise_interim_values(game, beliefs, grid)))
    p = game.prior
    value = discrete_cav(list(w.items()), p)
    if value == w[p]:
        return value, Signal((p,), (ONE,))

    def chord(a, b):
        return w[a] + (w[b] - w[a]) * (p - a) / (b - a)

    left = max(s for s in grid if s < p and any(b > p and chord(s, b) == value for b in grid))
    right = min(s for s in grid if s > p and chord(left, s) == value)
    w_lo = (right - p) / (right - left)
    return value, Signal((left, right), (w_lo, 1 - w_lo))
