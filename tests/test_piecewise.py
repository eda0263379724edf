"""Step functions, concave envelopes and where they touch.

Derived expectations are frozen from the brute-force split oracle below: the
envelope value at x is the best two-point convex combination of candidate
graph points averaging to x, which is independent of the hull construction.
"""

from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from disclosuregame import ConcavePL, DomainError, GameSpec, StepFunction, cav, pl_eval, skeptical_value, step_eval
from disclosuregame.gamefile import game_from_obj, game_to_obj

from genutil import rand_payoff, rand_point, rand_rich_structure
from reference_paths import piece_ends
import random


def brute_split_value(points, x):
    """Best two-point Bayes split over a candidate point set: independent oracle."""
    best = None
    for ax, ay in points:
        for bx, by in points:
            if not ax <= x <= bx:
                continue
            val = ay if ax == bx else ay + (by - ay) * (x - ax) / (bx - ax)
            if best is None or val > best:
                best = val
    return best


# sample payoffs, built on first use (and cached), so a fault in a constructor
# fails the tests that read them rather than the module's collection
@cache
def v1():
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(1), F(3)))


@cache
def vm31():
    return StepFunction((F(0), F(1, 2)), (F(0), F(1)))


class TestStepEval:
    def test_three_action_below_first_jump(self):
        assert step_eval(v1(), F(1, 3)) == 0

    def test_three_action_left_closed_at_jump(self):
        assert step_eval(v1(), F(2, 5)) == 1

    def test_constant(self):
        assert step_eval(StepFunction((F(0),), (F(0),)), F(7, 13)) == 0

    def test_last_piece_closed_at_one(self):
        assert step_eval(v1(), F(1)) == 3

    def test_call_is_step_eval(self):
        assert v1()(F(2, 5)) == step_eval(v1(), F(2, 5)) == 1

    @pytest.mark.parametrize("x", [F(-1, 10), F(11, 10)])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            step_eval(v1(), x)

    def test_merges_equal_adjacent_pieces(self):
        f = StepFunction((F(0), F(1, 4), F(1, 2)), (F(1), F(1), F(2)))
        assert f.breakpoints == (F(0), F(1, 2))


class TestCav:
    def test_three_action_vertices(self):
        assert cav(v1()).vertices == ((F(0), F(0)), (F(4, 5), F(3)), (F(1), F(3)))

    def test_three_action_value(self):
        g = cav(v1())
        assert pl_eval(g, F(1, 3)) == g(F(1, 3)) == F(5, 4)
        assert brute_split_value(piece_ends(v1()), F(1, 3)) == F(5, 4)

    def test_skeptical_three_action(self):
        g = cav(vm31())
        assert g.vertices == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1)))
        assert pl_eval(g, F(1, 3)) == F(2, 3)
        assert brute_split_value(piece_ends(vm31()), F(1, 3)) == F(2, 3)

    def test_constant_is_its_own_envelope(self):
        g = cav(StepFunction((F(0),), (F(5, 7),)))
        assert pl_eval(g, F(0)) == pl_eval(g, F(1)) == F(5, 7)

    def test_non_monotone_input(self):
        f = StepFunction((F(0), F(1, 4), F(1, 2)), (F(0), F(2), F(1)))
        g = cav(f)
        # the piece at 2 holds up to 1/2, where f falls: its right end is a vertex
        assert g.vertices == ((F(0), F(0)), (F(1, 4), F(2)), (F(1, 2), F(2)), (F(1), F(1)))
        for x in (F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(3, 4), F(1)):
            assert pl_eval(g, x) == brute_split_value(piece_ends(f), x)


def touches(f, g, x):
    return pl_eval(g, x) == step_eval(f, x)


class TestContactSet:
    """Where the envelope touches f, read off cav's vertices and values."""

    def test_skeptical_three_action(self):
        g = cav(vm31())
        assert all(touches(vm31(), g, x) for x in g.xs)
        xs = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
        assert [x for x in xs if touches(vm31(), g, x)] == [F(0), F(1, 2), F(3, 4), F(1)]

    def test_concave_function_touches_everywhere(self):
        f = StepFunction((F(0),), (F(2),))
        g = cav(f)
        assert g.vertices == ((F(0), F(2)), (F(1), F(2)))
        assert all(touches(f, g, F(k, 7)) for k in range(8))

    def test_three_action(self):
        g = cav(v1())
        assert all(touches(v1(), g, x) for x in g.xs)
        xs = (F(0), F(2, 5), F(3, 5), F(4, 5), F(9, 10), F(1))
        assert [x for x in xs if touches(v1(), g, x)] == [F(0), F(4, 5), F(9, 10), F(1)]

    def test_never_empty_and_contains_hull_vertices_on_graph(self):
        # a non-decreasing step function with left-closed pieces is upper
        # semicontinuous, so every vertex of its envelope lies on its graph
        rng = random.Random(7)
        for _ in range(100):
            f = rand_payoff(rng)
            g = cav(f)
            assert all(touches(f, g, x) for x in g.xs)
            assert all(pl_eval(g, x) >= step_eval(f, x) for x in f.breakpoints)


class TestPlEval:
    def test_known_chord_value(self):
        g = ConcavePL(((F(0), F(0)), (F(9, 10), F(3)), (F(1), F(3))))
        assert pl_eval(g, F(1, 2)) == F(5, 3)

    def test_vertex_evaluation(self):
        g = ConcavePL(((F(0), F(0)), (F(9, 10), F(3)), (F(1), F(3))))
        assert pl_eval(g, F(9, 10)) == F(3)

    def test_cav_three_action_at_prior(self):
        assert pl_eval(cav(v1()), F(1, 3)) == F(5, 4)

    def test_domain_error(self):
        g = ConcavePL(((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(DomainError):
            pl_eval(g, F(3, 2))

    def test_rejects_non_concave_chain(self):
        with pytest.raises(ValueError):
            ConcavePL(((F(0), F(0)), (F(1, 2), F(0)), (F(1), F(1))))

    def test_vertex_xs_built_once_and_invisible_to_eq_and_repr(self):
        g = ConcavePL(((F(0), F(0)), (F(9, 10), F(3)), (F(1), F(3))))
        fresh = ConcavePL(g.vertices)
        text = repr(fresh)
        assert g.xs is g.xs
        assert g.xs == (F(0), F(9, 10), F(1))
        assert g == fresh and hash(g) == hash(fresh)
        assert repr(g) == text


def grid_of(f: StepFunction):
    pts = []
    for lo, hi, _ in f.pieces():
        pts.extend([lo, (lo + hi) / 2])
    pts.append(F(1))
    return sorted(set(pts))


class TestEnvelopeProperties:
    def test_majorizes_and_slopes_decrease(self):
        rng = random.Random(11)
        for _ in range(200):
            f = rand_payoff(rng)
            g = cav(f)
            for x in grid_of(f):
                assert pl_eval(g, x) >= step_eval(f, x)
            slopes = [
                (y1 - y0) / (x1 - x0)
                for (x0, y0), (x1, y1) in zip(g.vertices, g.vertices[1:])
            ]
            assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_idempotent_on_non_decreasing(self):
        rng = random.Random(13)
        for _ in range(100):
            g = cav(rand_payoff(rng))
            xs = [x for x, _ in g.vertices]
            ys = [y for _, y in g.vertices]
            resampled = StepFunction(tuple(xs), tuple(ys))
            assert cav(resampled).vertices == g.vertices

    def test_minimality_against_graph_hull(self):
        # for non-decreasing f the hull of the sampled graph equals the envelope
        rng = random.Random(17)
        for _ in range(100):
            f = rand_payoff(rng)
            g = cav(f)
            graph = [(x, step_eval(f, x)) for x in grid_of(f)]
            for x in grid_of(f):
                assert pl_eval(g, x) == brute_split_value(graph, x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_brute_split_agreement_on_arbitrary_steps(self, data):
        n = data.draw(st.integers(1, 5))
        denom = 24
        cuts = data.draw(
            st.lists(st.integers(1, denom - 1), min_size=n - 1, max_size=n - 1, unique=True)
        )
        bps = tuple([F(0)] + sorted(F(c, denom) for c in cuts))
        vals = tuple(
            F(data.draw(st.integers(-4, 8)), 2) for _ in range(n)
        )
        try:
            f = StepFunction(bps, vals)
        except ValueError:
            return
        g = cav(f)
        pts = piece_ends(f)
        for x in grid_of(f):
            assert pl_eval(g, x) == brute_split_value(pts, x)


def canonical_pairs(qs) -> tuple:
    return tuple((q.numerator, q.denominator) for q in qs)


def assert_pairs_carried(f: StepFunction) -> None:
    assert f.breakpoint_pairs == canonical_pairs(f.breakpoints)
    assert f.value_pairs == canonical_pairs(f.values)


# a step function drawn with adjacent equal values, so that the merge drops pieces
@st.composite
def step_functions(draw):
    denom = draw(st.sampled_from((2, 6, 24, 997)))
    cuts = draw(st.lists(st.integers(1, denom - 1), max_size=7, unique=True))
    bps = (F(0), *sorted(F(c, denom) for c in cuts))
    vals = draw(st.lists(st.integers(-3, 3), min_size=len(bps), max_size=len(bps)))
    vals = tuple(F(sum(vals[: i + 1]) if draw(st.booleans()) else vals[i], draw(st.sampled_from((1, 3)))) for i in range(len(bps)))
    return StepFunction(bps, vals)


class TestCarriedPairs:
    """A step function keeps the canonical pairs of its merged breakpoints and values, however it was built."""

    @settings(max_examples=150, deadline=None)
    @given(step_functions())
    def test_library_built_and_replaced(self, f):
        assert_pairs_carried(f)
        assert_pairs_carried(f.replace(values=tuple(reversed(f.values))))
        if len(f.breakpoints) > 1:
            assert_pairs_carried(f.replace(breakpoints=(F(0), *(b / 2 for b in f.breakpoints[1:]))))

    def test_merge_drops_the_pairs_of_merged_pieces(self):
        f = StepFunction((0, F(1, 4), F(1, 2), F(3, 4)), (0, F(2, 4), F(1, 2), 1))
        assert f.breakpoint_pairs == ((0, 1), (1, 4), (3, 4))
        assert f.value_pairs == ((0, 1), (1, 2), (1, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_loaded_and_skeptical(self, rng):
        game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
        loaded = game_from_obj(game_to_obj(game))
        assert_pairs_carried(loaded.payoff)
        assert (loaded.payoff.breakpoint_pairs, loaded.payoff.value_pairs) == (game.payoff.breakpoint_pairs, game.payoff.value_pairs)
        assert_pairs_carried(skeptical_value(game))
        assert_pairs_carried(skeptical_value(loaded))
