"""Rank coordinates and integer kernels in the solver and the deviation oracle, against the Fraction paths they replaced.

Rich games carry unions, degenerate points, right-open ends and full
verifiability, with mandatory disclosure every tenth game; coprime games give
every rational its own 39-digit denominator.
"""

import random
from fractions import Fraction as F

import pytest

from disclosuregame import GameSpec, IntervalUnion, StepFunction, VerifStructure, mandatory_disclosure, pnbp, solve
from disclosuregame import equilibrium, oracle, verifiability
from disclosuregame.equilibrium import _solve_pnbp, _walk, skeptical_payoff_at, skeptical_value, value_hull
from disclosuregame.errors import PreconditionError
from disclosuregame.oracle import _hull_segment, best_deviation, critical_grid
from disclosuregame.piecewise import hull_candidates, upper_hull_points

from genutil import (
    rand_coprime_game,
    rand_interval_game,
    rand_payoff,
    rand_payoff_pieces,
    rand_point,
    rand_rich_structure,
)
from reference_paths import (
    endpoint_value_hull,
    fraction_hull_segment,
    fraction_interim_values,
    fraction_upper_hull_points,
    full_grid_best_deviation,
    full_scan_solve_pnbp,
    heap_best_minima,
    pl_eval_walk_split,
    pointwise_interim_values,
    set_critical_grid,
    stepwise_pnbp,
)


def rich_games(seed: int, count: int) -> list[GameSpec]:
    rng = random.Random(seed)
    games = []
    for k in range(count):
        structure = mandatory_disclosure() if k % 10 == 0 else rand_rich_structure(rng)
        games.append(GameSpec(rand_payoff(rng), rand_point(rng), structure))
    intervals = [iv for g in games for _, supp in g.structure.messages for iv in supp.intervals]
    assert any(len(supp.intervals) > 1 for g in games for _, supp in g.structure.messages)
    assert any(iv.lo == iv.hi for iv in intervals)
    assert any(not iv.hi_closed for iv in intervals)
    assert any(g.structure.full_verifiability and g.structure.messages for g in games)
    return games


def coprime_games(seed: int, count: int) -> list[GameSpec]:
    rng = random.Random(seed)
    return [rand_coprime_game(rng, rng.randint(2, 10)) for _ in range(count)]


GAMES = rich_games(2027, 700) + coprime_games(2027, 30)


def rand_beliefs(rng: random.Random, structure: VerifStructure) -> dict:
    beliefs = {}
    for name, supp in structure.messages:
        lo, hi = supp.hull_bounds()
        beliefs[name] = rng.choice((lo, lo, hi, (lo + hi) / 2, rand_point(rng) * (hi - lo) + lo))
    return beliefs


def test_endpoint_sweep_matches_heap_reference():
    for game in GAMES:
        structure = game.structure
        if structure.full_verifiability:
            continue
        ends = structure._endpoints
        at_point, on_gap = structure._best_minima
        assert heap_best_minima(structure) == (
            tuple(ends[j] for j in at_point),
            tuple(ends[j] for j in on_gap),
        )


def test_level_table_matches_fraction_paths():
    # pnbp, the envelope and the split, each against the path it replaced
    split = 0
    for game in GAMES:
        assert pnbp(game) == stepwise_pnbp(game)
        assert value_hull(game) == endpoint_value_hull(game)
        if pnbp(game).holds:
            eq = solve(game)
            assert repr(eq) == repr(full_scan_solve_pnbp(game))
            split += eq.s_minus != eq.s_plus
    assert split > 100


def test_best_deviation_matches_full_grid():
    # skeptical beliefs, which the solver's own verification uses, and
    # random ones, which also put falling and flat hull edges over the prior
    rng = random.Random(31)
    edges = set()
    for game in GAMES:
        skeptical = {name: supp.minimum for name, supp in game.structure.messages}
        for beliefs in (skeptical, rand_beliefs(rng, game.structure)):
            value, signal = best_deviation(game, beliefs)
            assert (value, signal) == full_grid_best_deviation(game, beliefs)
            if len(signal.support) == 2:
                lo, hi = pointwise_interim_values(game, beliefs, signal.support)
                edges.add((lo > hi) - (lo < hi))
    assert edges == {-1, 0, 1}


def test_integer_kernels_match_fraction_paths():
    # critical_grid, the envelope's hull, the oracle's hull and the split
    # walk, each against the Fraction path it replaced; the hull inputs are
    # shuffled, with repeated x, and the oracle's hull sees every grid point
    rng = random.Random(43)
    for game in GAMES:
        grid = critical_grid(game)
        assert grid == set_critical_grid(game)
        pts = hull_candidates(skeptical_value(game))
        if not game.structure.full_verifiability:
            pts += [(e, skeptical_payoff_at(game, e)) for e in game.structure.support_endpoints()]
        rng.shuffle(pts)
        assert upper_hull_points(pts) == fraction_upper_hull_points(pts)
        beliefs = rand_beliefs(rng, game.structure)
        w = list(zip(grid, fraction_interim_values(game, beliefs, grid)))
        for x in (game.prior, rng.choice(grid), rand_point(rng)):
            assert _hull_segment(w, x) == fraction_hull_segment(w, x)
        if pnbp(game).holds:
            eq = solve(game)
            assert (eq.s_minus, eq.s_plus) == pl_eval_walk_split(game)


def test_hull_inputs_are_strict_records(monkeypatch):
    # M = 400 messages, P = 5 payoff pieces: the envelope and the oracle's
    # hull each see at most two points per piece, and the solver asks no
    # pointwise best-credible-type query
    rng = random.Random(9)
    while True:
        base = rand_interval_game(rng, 400)
        game = GameSpec(rand_payoff_pieces(rng, 5, 997), base.prior, base.structure)
        if pnbp(game).holds:
            break
    sizes = {}

    def counted(name, fn):
        def wrapper(pts, *args):
            pts = list(pts)
            sizes[name] = max(sizes.get(name, 0), len(pts))
            return fn(pts, *args)
        return wrapper

    def refused(*args):
        raise AssertionError("pointwise query in solve")

    monkeypatch.setattr(equilibrium, "upper_hull_points", counted("hull", equilibrium.upper_hull_points))
    monkeypatch.setattr(oracle, "_hull_segment", counted("segment", oracle._hull_segment))
    for module, name in ((equilibrium, "max_min_available"), (verifiability, "max_min_available"),
                         (equilibrium, "skeptical_payoff_at")):
        monkeypatch.setattr(module, name, refused)
    eq = solve(game)
    best_deviation(game, eq.beliefs)
    assert eq.s_minus < game.prior < eq.s_plus
    assert 0 < sizes["hull"] <= 10 and 0 < sizes["segment"] <= 10, sizes


def test_split_walk_raises_instead_of_wrapping():
    # a walk that wrapped to index -1 would find "e" at the far end
    with pytest.raises(PreconditionError):
        _walk(lambda i: "abcde"[i] == "e", 2, -1, 5)
    with pytest.raises(PreconditionError):
        _walk(lambda i: "abcde"[i] == "a", 2, 1, 5)
    assert _walk(lambda i: "abcde"[i] == "b", 3, -1, 5) == 1
    # without PNBP there is no contact point right of the prior
    cheap = VerifStructure((("m_0", IntervalUnion.from_pairs([(0, 1)])),))
    game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 4), cheap)
    assert not pnbp(game).holds
    with pytest.raises(PreconditionError):
        _solve_pnbp(game)
