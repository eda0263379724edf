"""Rank coordinates, lookups and integer kernels in the solver, the deviation oracle and the figure, against the references and Fraction twins in reference_paths.

Rich games carry unions, degenerate points, right-open ends and full
verifiability, with mandatory disclosure every tenth game; coprime games give
every rational its own 39-digit denominator.
"""

import json
import random
from fractions import Fraction as F

import pytest

from disclosuregame import GameSpec, IntervalUnion, StepFunction, VerifStructure, mandatory_disclosure, pnbp, solve
from disclosuregame import equilibrium, figures, grid, rationals, verifiability
from disclosuregame.equilibrium import (
    _best_message,
    _split,
    _walk,
    skeptical_value,
    value_hull,
    verify_equilibrium,
)
from disclosuregame.errors import PreconditionError
from disclosuregame.figures import render_game_svg
from disclosuregame.gamefile import game_to_obj, load_game
from disclosuregame.grid import _interim_values
from disclosuregame.oracle import _hull_segment
from disclosuregame.piecewise import hull_candidates, pl_eval, step_eval, upper_hull_points
from disclosuregame.rationals import on_line_through
from disclosuregame.verifiability import messages_at

from genutil import (
    critical_grid,
    rand_coprime_game,
    rand_interval_game,
    rand_payoff,
    rand_payoff_pieces,
    rand_point,
    rand_rich_structure,
)
from reference_paths import (
    chord_best_deviation,
    contains_best_message,
    contains_messages_at,
    fraction_hull_segment,
    fraction_on_line,
    fraction_pl_eval,
    fraction_step_eval,
    fraction_upper_hull_points,
    fraction_x_pixels,
    fraction_y_pixels,
    pointwise_adjusted,
    pointwise_g,
    pointwise_interim_values,
    scan_solve,
    swept_g,
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


@pytest.fixture(scope="module")
def games() -> list[GameSpec]:
    """The sample games, built by the first test that reads them, so a fault in building them fails that test."""
    return rich_games(2027, 700) + coprime_games(2027, 30)


@pytest.fixture(scope="module")
def sample(games) -> list[GameSpec]:
    """Every third rich game, mandatory disclosure among them, and every coprime one."""
    return games[:700:3] + games[700:]


def float_ties(q: F) -> list[F]:
    """q and its neighbours q -/+ 1/(10**30 den) inside [0,1]; away from 0 they round to q's float."""
    eps = F(1, q.denominator * 10**30)
    return [x for x in (q - eps, q, q + eps) if 0 <= x <= 1]


def query_points(rng: random.Random, points) -> list[F]:
    """Every point, its float-tied neighbours, every midpoint between consecutive points, and two random points."""
    pts = sorted(set(points))
    out = [x for q in pts for x in float_ties(q)]
    out += [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    out += [rand_point(rng), F(rng.randrange(1, 10**39), 10**39 + 1)]
    return out


def rand_beliefs(rng: random.Random, structure: VerifStructure) -> dict:
    beliefs = {}
    for name, supp in structure.messages:
        lo, hi = supp.hull_bounds()
        beliefs[name] = rng.choice((lo, lo, hi, (lo + hi) / 2, rand_point(rng) * (hi - lo) + lo))
    return beliefs


def interim_values(game: GameSpec, beliefs) -> list[F]:
    """The oracle's w at every grid point, as payoff values."""
    return [game.payoff.values[k] for k in _interim_values(game, beliefs)]


def test_one_coordinate_table_per_structure_and_per_game(monkeypatch, tmp_path, sample):
    # a loaded structure builds one table of 0, 1 and its support endpoints,
    # after one small table per union of several intervals, which orders
    # and merges them; the game builds one more, which also ranks the
    # payoff's breakpoints and the prior, and keeps the structure it was
    # given; solving reads one table of a function's own points: the
    # envelope's vertices under PNBP, else the payoff's breakpoints
    built = []
    fill = rationals.Coordinates._fill

    def counted(self, entries):
        built.append(self)
        fill(self, entries)

    monkeypatch.setattr(rationals.Coordinates, "_fill", counted)
    path = tmp_path / "game.json"
    for game in sample[:60]:
        ends = {F(0), F(1)} | {q for _, supp in game.structure.messages for iv in supp.intervals for q in (iv.lo, iv.hi)}
        path.write_text(json.dumps(game_to_obj(game)))
        built.clear()
        loaded = load_game(str(path))
        unions = sum(len(supp.intervals) > 1 for _, supp in game.structure.messages)
        assert len(built) == 1 + unions and loaded.structure.support_endpoints() == sorted(ends)
        assert set(loaded._table.points) == ends | set(game.payoff.breakpoints) | {game.prior}
        solve(loaded)
        own = vars(value_hull(loaded) if pnbp(loaded) else loaded.payoff)["_table"]
        assert len(built) == 3 + unions and sum(table is own for table in built) == 1
        assert [q for q, marked in zip(loaded._table.points, loaded._table.marked) if marked] == sorted(ends)
        structure = VerifStructure(loaded.structure.messages, loaded.structure.full_verifiability)
        assert GameSpec(loaded.payoff, loaded.prior, structure).structure is structure


def test_endpoint_sweep_matches_pointwise_g(games):
    # g at every table point and on every gap, as table ranks, against a
    # scan of every support at the point and at the gap's midpoint
    for game in games:
        structure = game.structure
        if structure.full_verifiability:
            continue
        ends = structure._table.points
        at_point, on_gap = structure._best_minima
        assert [ends[j] for j in at_point] == [pointwise_g(structure, e) for e in ends]
        assert [ends[j] for j in on_gap] == [pointwise_g(structure, (a + b) / 2) for a, b in zip(ends, ends[1:])]


def test_level_table_matches_fraction_paths(games):
    # pnbp, the envelope and the solution (the split walk among it) against
    # their definitions
    split = 0
    for game in games:
        verdict, envelope, eq = scan_solve(game)
        assert pnbp(game) == verdict
        assert value_hull(game) == envelope
        assert repr(solve(game)) == repr(eq)
        split += eq.s_minus != eq.s_plus
    assert split > 100


def test_supporting_line_matches_chord_search(games):
    # skeptical beliefs, which the solver's own verification uses, and
    # random ones, which also put falling and flat hull edges over the prior;
    # the claim at the best response and beside it
    rng = random.Random(31)
    edges = set()
    for game in games:
        skeptical = {name: supp.minimum for name, supp in game.structure.messages}
        for beliefs in (skeptical, rand_beliefs(rng, game.structure)):
            best, signal = chord_best_deviation(game, beliefs)
            assert grid._supporting_line(game, beliefs, best) is None
            below = grid._supporting_line(game, beliefs, best - F(1, 10**40))
            above = grid._supporting_line(game, beliefs, best + F(1, 10**40))
            assert below.detail.startswith("profitable deviation") and below.witness.mean == game.prior
            assert above.detail.endswith("above best response: no signal attains it")
            if len(signal.support) == 2:
                lo, hi = pointwise_interim_values(game, beliefs, signal.support)
                edges.add((lo > hi) - (lo < hi))
    assert edges == {-1, 0, 1}


def test_integer_kernels_match_fraction_paths(games):
    # critical_grid's int midpoints, the envelope's hull and the oracle's
    # hull against Fraction arithmetic; the hull inputs are shuffled, with
    # repeated x, and the oracle's hull sees every grid point
    rng = random.Random(43)
    for game in games:
        grid = critical_grid(game)
        base = {F(0), F(1), game.prior, *game.payoff.breakpoints, *game.structure.support_endpoints()}
        assert list(grid[::2]) == sorted(base)
        assert all(grid[i] == (grid[i - 1] + grid[i + 1]) / 2 for i in range(1, len(grid), 2))
        pts = hull_candidates(skeptical_value(game))
        if not game.structure.full_verifiability:
            pts += [(e, pointwise_adjusted(game, e)) for e in game.structure.support_endpoints()]
        rng.shuffle(pts)
        assert upper_hull_points(pts) == fraction_upper_hull_points(pts)
        beliefs = rand_beliefs(rng, game.structure)
        w = list(zip(grid, interim_values(game, beliefs)))
        for x in (game.prior, rng.choice(grid), rand_point(rng)):
            assert _hull_segment(w, x) == fraction_hull_segment(w, x)


def test_hull_inputs_are_strict_records(monkeypatch):
    # M = 400 messages, P = 5 payoff pieces: the envelope's hull sees at most
    # two points per piece, and the solver asks no pointwise
    # best-credible-type query
    rng = random.Random(9)
    while True:
        base = rand_interval_game(rng, 400)
        game = GameSpec(rand_payoff_pieces(rng, 5, 997), base.prior, base.structure)
        if pnbp(game).holds:
            break
    sizes = []
    hull = equilibrium.upper_hull

    def counted(pts):
        sizes.append(len(pts))
        return hull(pts)

    monkeypatch.setattr(equilibrium, "upper_hull", counted)
    eq = solve(game)
    assert eq.s_minus < game.prior < eq.s_plus
    assert len(sizes) == 1 and 0 < sizes[0] <= 10, sizes


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
        _split(game)


def test_position_lookups_match_fraction_contains(sample):
    # availability and the best message at every endpoint (degenerate
    # points and right-open ends among them), its float-tied neighbours, and
    # points off the endpoint table, against the Fraction scans of every
    # support; g at the same points against a scan of every support
    rng = random.Random(51)
    seen = {"open_end": 0, "degenerate": 0, "off_table": 0, "full": 0}
    for game in sample:
        structure = game.structure
        ends = structure.support_endpoints()
        for s in query_points(rng, ends):
            avail = messages_at(structure, s)
            assert avail == contains_messages_at(structure, s)
            assert _best_message(structure, s) == contains_best_message(structure, s)
            assert swept_g(structure, s) == pointwise_g(structure, s)
            seen["off_table"] += s not in ends
            seen["full"] += structure.full_verifiability
            for _, supp in structure.messages:
                for iv in supp.intervals:
                    seen["open_end"] += s == iv.hi and not iv.hi_closed
                    seen["degenerate"] += s == iv.lo == iv.hi
    assert min(seen.values()) > 100, seen


def test_keyed_evaluation_matches_fraction_bisect(sample):
    # step_eval on the payoff and on v(g), pl_eval on the envelope and the
    # level table's pieces, against bisecting Fractions; the coprime games'
    # breakpoints have 39-digit denominators, so their float-tied neighbours
    # reach the exact tie-break of the order keys
    rng = random.Random(53)
    ties = 0
    for game in sample:
        adjusted, hull = skeptical_value(game), value_hull(game)
        xs, (piece, _, _, _) = game._table.points, game._levels
        assert [game.payoff.values[k] for k in piece] == [fraction_step_eval(game.payoff, x) for x in xs]
        points = (*game.payoff.breakpoints, *adjusted.breakpoints, *hull.xs, game.prior)
        for x in query_points(rng, points):
            assert step_eval(game.payoff, x) == fraction_step_eval(game.payoff, x)
            assert step_eval(adjusted, x) == fraction_step_eval(adjusted, x)
            assert pl_eval(hull, x) == fraction_pl_eval(hull, x)
            ties += x not in points and any(float(x) == float(b) for b in game.payoff.breakpoints)
    assert ties > 500


def test_int_line_tests_match_fraction_products(sample):
    # every level-table point against every envelope edge, and the oracle's
    # grid points against the hull edge over the prior, both ways
    rng = random.Random(57)
    hits = misses = 0
    for game in sample:
        vertices = value_hull(game).vertices
        xs, (_, at, _, _) = game._table.points, game._levels
        vals = game.payoff.values
        for p0, p1 in zip(vertices, vertices[1:]):
            on_line = on_line_through(p0, p1)
            for x, k in zip(xs, at):
                got = on_line(x, vals[k])
                assert got == fraction_on_line(p0, p1, x, vals[k])
                hits += got
                misses += not got
        grid = critical_grid(game)
        w = list(zip(grid, interim_values(game, rand_beliefs(rng, game.structure))))
        p0, p1 = _hull_segment(w, game.prior)
        if p0 != p1:
            on_line = on_line_through(p0, p1)
            assert [on_line(x, y) for x, y in w] == [fraction_on_line(p0, p1, x, y) for x, y in w]
    assert hits > 1000 and misses > 1000


def test_interim_values_off_grid_beliefs(games):
    # a belief off the grid reads the piece table at its gap's position, one
    # on the grid at its own
    rng = random.Random(59)
    off_grid = 0
    for game in games:
        grid = critical_grid(game)
        beliefs = rand_beliefs(rng, game.structure)
        for name, supp in game.structure.messages[::2]:
            lo, hi = supp.hull_bounds()
            beliefs[name] = lo + (hi - lo) * F(rng.randrange(1, 97), 97)
        assert interim_values(game, beliefs) == pointwise_interim_values(game, beliefs, grid)
        off_grid += sum(b not in grid for b in beliefs.values())
    assert off_grid > 300


def test_figure_matches_fraction_mapper(monkeypatch, games):
    # coprime games, payoffs shifted to negative values, and equilibrium
    # values moved past either end of the payoff's range, each drawn with the
    # program's pixel tables and with their Fraction twins
    cases = []
    for game in coprime_games(61, 12) + games[::25]:
        eq = solve(game)
        values = game.payoff.values
        negative = GameSpec(StepFunction(game.payoff.breakpoints, tuple(y - 7 for y in values)), game.prior, game.structure)
        cases += [(game, eq), (negative, solve(negative))]
        cases += [(game, eq.replace(value=values[-1] + F(1, 3))), (game, eq.replace(value=values[0] - 2))]
    assert any(eq.value == game.payoff.values[-1] for game, eq in cases)
    for game, eq in cases:
        svg = render_game_svg(game, eq)
        with monkeypatch.context() as patched:
            patched.setattr(figures, "_x_pixels", fraction_x_pixels)
            patched.setattr(figures, "_y_pixels", fraction_y_pixels)
            assert svg == render_game_svg(game, eq)


def test_figure_draws_posteriors_off_the_table():
    # a signal that solve would not pick, with a posterior on no support
    # endpoint, breakpoint or prior: its dot is drawn at float(s)'s pixel
    game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 3), mandatory_disclosure())
    eq = solve(game)
    off = eq.replace(signal=eq.signal.replace(support=(F(0), F(2, 3)), weights=(F(1, 2), F(1, 2))),
                 messaging={F(0): "id:0", F(2, 3): "id:2/3"})
    assert F(2, 3) not in game._table.points
    assert f'<circle cx="{figures._fmt(figures.PLOT_LEFT + float(F(2, 3)) * 560)}"' in render_game_svg(game, off)


def test_belief_outside_support_hull_on_either_side():
    # verify reports condition 3, below the minimum and above the supremum
    # of a right-open support alike
    structure = VerifStructure((
        ("m_0", IntervalUnion.from_pairs([(0, 1)])),
        ("m_1", IntervalUnion.from_pairs([(F(1, 3), 1)])),
        ("m_x", IntervalUnion.from_pairs([(F(1, 3), F(1, 2), False), (F(2, 3), F(5, 6), False)])),
    ))
    game = GameSpec(StepFunction((F(0), F(1, 3)), (F(0), F(1))), F(1, 4), structure)
    eq = solve(game)
    assert "m_x" not in eq.messaging.values()
    for b in (F(1, 3) - F(1, 10**40), F(5, 6) + F(1, 10**40)):
        bad = eq.replace(beliefs={**eq.beliefs, "m_x": b})
        report = verify_equilibrium(game, bad)
        assert not report.ok and report.condition == 3 and report.witness == ("m_x", b)
    for b in (F(1, 3), F(5, 6)):  # the hull's closure holds both ends
        assert verify_equilibrium(game, eq.replace(beliefs={**eq.beliefs, "m_x": b})).ok


def test_table_orders_float_tied_points_exactly():
    # two support minima that share a float, met in descending order: the
    # table, availability and g still order them exactly
    lo = F(10**38 + 7, 3 * 10**38 + 1)
    hi = lo + F(1, 10**70)
    assert float(lo) == float(hi) == float((lo + hi) / 2)
    structure = VerifStructure((
        ("m_0", IntervalUnion.from_pairs([(0, 1)])),
        ("m_hi", IntervalUnion.from_pairs([(hi, 1)])),
        ("m_lo", IntervalUnion.from_pairs([(lo, 1)])),
    ))
    assert structure.support_endpoints() == [F(0), lo, hi, F(1)]
    assert messages_at(structure, lo) == {"m_0", "m_lo"} and messages_at(structure, hi) == {"m_0", "m_lo", "m_hi"}
    assert [swept_g(structure, s) for s in (lo, (lo + hi) / 2, hi)] == [lo, lo, hi]


def test_constructors_validate_float_tied_rationals():
    # StepFunction, SupportInterval and the payoff's monotonicity test decide
    # order and equality on cross-multiplied ints; these pairs share a float
    b = F(10**38 + 7, 3 * 10**38 + 1)
    lo, hi = b, b + F(1, 10**70)
    assert float(lo) == float(hi) and lo < hi
    assert StepFunction((F(0), lo, hi), (F(0), F(1), F(2))).breakpoints == (F(0), lo, hi)
    for bps in ((F(0), hi, lo), (F(0), lo, lo), (F(1, 10**70), lo)):
        with pytest.raises(ValueError):
            StepFunction(bps, (F(0), F(1), F(2))[: len(bps)])
    with pytest.raises(ValueError, match="lie in"):
        StepFunction((F(0), 1 + F(1, 10**70)), (F(0), F(1)))
    merged = StepFunction((F(0), F(1, 3), F(1, 2)), (lo, F(b.numerator * 5, b.denominator * 5), hi))
    assert merged.breakpoints == (F(0), F(1, 2)) and merged.values == (lo, hi)
    assert merged.is_non_decreasing
    assert not StepFunction((F(0), F(1, 2)), (hi, lo)).is_non_decreasing
    assert verifiability.SupportInterval(lo, hi, False).hi == hi
    assert verifiability.SupportInterval(lo, lo).lo == lo
    with pytest.raises(verifiability.ConstructionError, match="lo .* > hi"):
        verifiability.SupportInterval(hi, lo)
    with pytest.raises(verifiability.ConstructionError, match="degenerate"):
        verifiability.SupportInterval(lo, lo, False)
    assert IntervalUnion.from_pairs([(lo, hi)]).hull_bounds() == (lo, hi)
