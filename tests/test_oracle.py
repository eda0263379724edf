"""Grid best responses and the exhaustive desk-scale equilibrium search."""

import random
from fractions import Fraction as F
from functools import cache

import pytest

from disclosuregame import (
    GameSpec,
    IntervalUnion,
    OracleSizeError,
    StepFunction,
    VerifStructure,
    check_theorem1,
    cheap_talk,
    equilibrium_value,
    full_verif,
    mandatory_disclosure,
    pl_eval,
    solve,
    step_eval,
    thresholds,
)
from disclosuregame import oracle
from disclosuregame.equilibrium import value_hull
from disclosuregame.errors import DomainError
from disclosuregame.grid import _interim_values, _supporting_line
from disclosuregame.oracle import _hull_segment, exhaustive_equilibria, exhaustive_search

from genutil import (
    critical_grid,
    rand_game,
    rand_interior,
    rand_oracle_game,
    rand_payoff,
    rand_point,
    rand_rich_structure,
    rand_structure,
)
from reference_paths import (
    above_detail,
    chord_best_deviation,
    line_clears_w,
    per_profile_exhaustive_equilibria,
    pointwise_interim_values,
    signal_value,
)


# sample values, built on first use (and cached), so a fault in a constructor
# fails the tests that read them rather than the module's collection
@cache
def v1():
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(1), F(3)))


@cache
def m31():
    return VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_M", IntervalUnion.from_pairs([(F(1, 2), 1)])),
        )
    )


@cache
def g31():
    return GameSpec(v1(), F(1, 3), m31())


class TestCriticalGrid:
    def test_three_action_contents(self):
        grid = critical_grid(g31())
        for x in (F(0), F(1, 3), F(2, 5), F(1, 2), F(4, 5), F(1)):
            assert x in grid
        # midpoints between consecutive base points are present
        assert F(1, 6) in grid

    def test_constant_payoff_cheap_talk(self):
        game = GameSpec(StepFunction((F(0),), (F(1),)), F(1, 3), cheap_talk())
        grid = critical_grid(game)
        for x in (F(0), F(1, 3), F(1)):
            assert x in grid

    def test_counterexample_contains_high_threshold(self):
        M = VerifStructure(
            (
                ("m_0", IntervalUnion.from_pairs([(0, 1)])),
                ("m_H", IntervalUnion.from_pairs([(F(9, 10), 1)])),
            )
        )
        game = GameSpec(v1(), F(1, 2), M)
        assert F(9, 10) in critical_grid(game)

    def test_full_verifiability_contact_points_on_grid(self):
        # the envelope's vertices are piece endpoints, which the grid already holds
        rng = random.Random(83)
        for k in range(500):
            structure = mandatory_disclosure() if k % 5 == 0 else full_verif(rand_structure(rng))
            game = GameSpec(rand_payoff(rng), rand_point(rng), structure)
            assert set(value_hull(game).xs) <= set(critical_grid(game))


class TestInterimValues:
    def test_matches_pointwise_reference(self):
        # rich structures carry unions, degenerate points, right-open ends and
        # sometimes full verifiability; every tenth game is mandatory disclosure
        rng = random.Random(89)
        for k in range(2000):
            if k % 10 == 0:
                structure = mandatory_disclosure()
            else:
                structure = rand_rich_structure(rng)
                if k % 10 == 1:
                    structure = full_verif(structure)
            game = GameSpec(rand_payoff(rng), rand_point(rng), structure)
            beliefs = {}
            for name, supp in structure.messages:
                lo, hi = supp.hull_bounds()
                beliefs[name] = rng.choice((lo, hi, (lo + hi) / 2, rand_point(rng) * (hi - lo) + lo))
            grid = critical_grid(game)
            w = [game.payoff.values[k] for k in _interim_values(game, beliefs)]
            assert w == pointwise_interim_values(game, beliefs, grid)


class TestDiscreteCav:
    """The oracle's discrete hull: the edge of the upper hull of grid points over a query point."""

    def test_matches_analytic_on_skeptical_payoff(self):
        pts = [(F(0), F(0)), (F(1, 4), F(0)), (F(1, 2), F(1)), (F(1), F(1))]
        assert _hull_segment(pts, F(1, 3)) == ((F(0), F(0)), (F(1, 2), F(1)))  # 2/3 at 1/3

    def test_two_points(self):
        pts = [(F(0), F(2)), (F(1), F(5))]
        assert _hull_segment(pts, F(0)) == ((F(0), F(2)), (F(0), F(2)))
        assert _hull_segment(pts, F(1)) == ((F(1), F(5)), (F(1), F(5)))
        # the exhaustive search's scaled grid: the same scan on ints
        assert _hull_segment([(0, 2), (3, 2), (6, 5)], 3) == ((0, 2), (6, 5))

    def test_matches_three_action_envelope(self):
        pts = [(F(0), F(0)), (F(2, 5), F(1)), (F(4, 5), F(3)), (F(1), F(3))]
        assert _hull_segment(pts, F(1, 3)) == ((F(0), F(0)), (F(4, 5), F(3)))  # 5/4 at 1/3

    def test_domain_error(self):
        with pytest.raises(DomainError):
            _hull_segment([(F(1, 4), F(0)), (F(3, 4), F(1))], F(7, 8))


def line_verdict(game, beliefs, value) -> int:
    """Condition (1)'s outcome on a claimed value: 1 below the best response, 0 at it, -1 above it.

    Each failure's witness is checked too: below, a signal with mean at the
    prior worth more than the claim against these beliefs; above, a slope
    whose line through (prior, claim) lies strictly above w on the grid.
    """
    report = _supporting_line(game, beliefs, value)
    if report is None:
        return 0
    assert not report.ok and report.condition == 1
    if report.detail.startswith("profitable deviation"):
        u = signal_value(game, beliefs, report.witness)
        assert report.witness.mean == game.prior and u > value
        assert report.detail == (
            f"profitable deviation: value {value} below {u}, the witness signal's value (not necessarily the best response)"
        )
        return 1
    assert report.detail == above_detail(game, value)
    assert line_clears_w(game, beliefs, value, report.witness)
    return -1


def assert_line_matches_chord(game, beliefs) -> F:
    """The line test's outcome at the best response and beside it, against the pairwise chord search; the best response."""
    best = chord_best_deviation(game, beliefs)[0]
    for eps in (F(0), F(1, 97), F(1, 10**40)):
        assert line_verdict(game, beliefs, best - eps) == (1 if eps else 0)
        assert line_verdict(game, beliefs, best + eps) == (-1 if eps else 0)
    return best


class TestSupportingLine:
    """Condition (1) as a supporting-line test, against the Fraction hull of w at the prior (chord_best_deviation)."""

    def test_three_action_beliefs(self):
        # skeptical beliefs reproduce the solution's 2/3; with m_M read as
        # 4/5, deviating beats the Bayes payoff 5/4 of the public-persuasion
        # split {0, 4/5}; constant beliefs leave no gain from information
        for beliefs, best in (
            ({"m_L": F(0), "m_M": F(1, 2)}, F(2, 3)),
            ({"m_L": F(0), "m_M": F(4, 5)}, F(2)),
            ({"m_L": F(1, 2), "m_M": F(1, 2)}, F(1)),
        ):
            assert assert_line_matches_chord(g31(), beliefs) == best

    def test_collinear_grid_points(self):
        # the hull edge over the prior runs from (0, 0) to (3/4, 3) through
        # the grid points (1/4, 1) and (1/2, 2): lo = hi at every one of them
        payoff = StepFunction((F(0), F(1, 4), F(1, 2), F(3, 4)), (F(0), F(1), F(2), F(3)))
        structure = thresholds([F(1, 4), F(1, 2), F(3, 4)])
        game = GameSpec(payoff, F(3, 8), structure)
        skeptical = {name: supp.minimum for name, supp in structure.messages}
        assert assert_line_matches_chord(game, skeptical) == F(3, 2)

    def test_falling_edges(self):
        # a right-open m_X drops w at 3/4, so the hull edge over the prior
        # falls (w is not upper semicontinuous there; see the module docstring)
        m_l = IntervalUnion.from_pairs([(0, 1)])
        m_x = IntervalUnion.from_pairs([(F(1, 2), F(3, 4), False)])
        # w: 2 on [0, 1/4], 0 on (1/4, 1/2), 1 on [1/2, 3/4), 0 from 3/4 on;
        # the edge runs from (1/4, 2) to (1, 0), the prior is 1/2
        right = GameSpec(
            StepFunction((F(0), F(1, 8), F(1, 4)), (F(0), F(1), F(2))),
            F(1, 2),
            VerifStructure((
                ("m_L", m_l),
                ("m_H", IntervalUnion.from_pairs([(0, F(1, 4))])),
                # the point 1/8 lets m_X carry the belief 1/8, level 1
                ("m_X", IntervalUnion.from_pairs([(F(1, 8), F(1, 8)), (F(1, 2), F(3, 4), False)])),
            )),
        )
        # w: 0 below 1/2, 2 on [1/2, 3/4), 0 from 3/4 on; the edge runs from
        # (5/8, 2) to (1, 0), the prior is 3/4
        left = GameSpec(
            StepFunction((F(0), F(1, 2), F(3, 4)), (F(0), F(1), F(2))),
            F(3, 4),
            VerifStructure((("m_L", m_l), ("m_X", m_x))),
        )
        assert assert_line_matches_chord(right, {"m_L": F(0), "m_H": F(1, 4), "m_X": F(1, 8)}) == F(4, 3)
        assert assert_line_matches_chord(left, {"m_L": F(0), "m_X": F(3, 4)}) == F(4, 3)

    def test_priors_at_zero_and_one(self):
        # one side of the prior is empty, and w(prior) alone decides
        for p in (F(0), F(1)):
            game = GameSpec(v1(), p, m31())
            for beliefs in ({"m_L": F(0), "m_M": F(1, 2)}, {"m_L": F(1, 2), "m_M": F(1)}):
                assert assert_line_matches_chord(game, beliefs) == pointwise_interim_values(game, beliefs, [p])[0]

    def test_matches_pairwise_chord_search(self):
        # half the payoffs are proportional to their breakpoints, which puts
        # grid points inside hull edges; beliefs lean skeptical, which makes
        # two-point splits common
        rng = random.Random(71)
        for k in range(600):
            structure = rand_rich_structure(rng) if k % 2 else rand_game(rng).structure
            payoff = rand_payoff(rng)
            if k % 4 < 2:
                payoff = StepFunction(payoff.breakpoints, tuple(4 * b for b in payoff.breakpoints))
            game = GameSpec(payoff, rand_interior(rng), structure)
            beliefs = {}
            for name, supp in structure.messages:
                lo, hi = supp.hull_bounds()
                beliefs[name] = rng.choice((lo, lo, lo, hi, (lo + hi) / 2))
            assert_line_matches_chord(game, beliefs)


def _size3_pooling(game, eq):
    """How a size-3 equilibrium pools: "all", "none", or (i, j, cut, falling) for a pooled pair i, j.

    cut: a payoff breakpoint lies strictly between the pair's posteriors at
    the two ends of the Bayes-plausible weight segment; falling: the
    posterior falls from the first end to the second.
    """
    s, p = eq.signal.support, game.prior
    mu = [eq.messaging[x] for x in s]
    if len(set(mu)) != 2:
        return "all" if len(set(mu)) == 1 else "none"
    i, j = next((i, j) for i, j in ((0, 1), (0, 2), (1, 2)) if mu[i] == mu[j])
    a, b, c = s
    ends = []
    for t in (F(0), min((c - p) / (c - b), (p - a) / (b - a))):
        w = ((c - p) - t * (c - b)) / (c - a), t, ((p - a) - t * (b - a)) / (c - a)
        ends.append((w[i] * s[i] + w[j] * s[j]) / (w[i] + w[j]) if w[i] + w[j] else p)
    lo, hi = sorted(ends)
    return i, j, any(lo < x < hi for x in game.payoff.breakpoints), ends[0] > ends[1]


class TestExhaustiveSearch:
    def test_three_action_unique_value(self):
        assert exhaustive_search(g31(), 4, 12) == {F(2, 3)}

    def test_cheap_talk_sender_preferred_is_max(self):
        v43 = StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(2), F(3)))
        game = GameSpec(v43, F(1, 2), cheap_talk(("m_0",)))
        values = exhaustive_search(game, 4, 12)
        assert max(values) == F(2)

    def test_degenerate_prior(self):
        game = GameSpec(v1(), F(0), m31())
        assert exhaustive_search(game, 4, 12) == {F(0)}

    def test_refuses_oversized_message_set(self):
        with pytest.raises(OracleSizeError):
            exhaustive_search(g31(), 1, 12)

    def test_refuses_oversized_grid(self):
        with pytest.raises(OracleSizeError):
            exhaustive_search(g31(), 4, 5)

    def test_refuses_full_verifiability(self):
        with pytest.raises(OracleSizeError):
            exhaustive_search(GameSpec(v1(), F(1, 3), mandatory_disclosure()), 4, 12)

    def test_matches_per_profile_reference(self):
        # the same verified profiles in the same order, in both dedup modes
        rng = random.Random(73)
        games = [rand_oracle_game(rng, want_pnbp=k % 2 == 0) for k in range(8)]
        while len(games) < 12:
            game = GameSpec(
                rand_payoff(rng, max_pieces=3, denoms=(2, 3, 4)),
                rand_point(rng, (2, 3, 4)),
                rand_rich_structure(rng, allow_full_verif=False),
            )
            if len(critical_grid(game)) <= 13:
                games.append(game)
        # (0, 0), (1/4, 1) and (3/4, 3) are collinear, unevenly spaced: each
        # type of that support sending its own threshold message is an
        # equilibrium on a sloped chord
        sloped = StepFunction((F(0), F(1, 4), F(3, 4)), (F(0), F(1), F(3)))
        games.append(GameSpec(sloped, F(1, 2), thresholds([F(1, 4), F(3, 4)])))
        # one more seeded recipe: grid denominators from 5, 7, 9 and 10, so
        # the integer scale is not a product of 2s and 3s; up to four payoff
        # pieces, so pooled posteriors cross two breakpoints (seeds 17, 23); a
        # prior on a payoff breakpoint (seed 3); union supports with
        # right-open ends and a degenerate point.  Every interior prior is a
        # grid point b = p, where a pooled a and c carry no weight at t_hi.
        wider = []
        for seed in (3, 17, 20, 23):
            rng = random.Random(seed)
            while True:
                payoff = rand_payoff(rng, max_pieces=4, denoms=(5, 7, 9, 10))
                if seed % 2:
                    structure = rand_rich_structure(rng, allow_full_verif=False)
                else:
                    structure = rand_structure(rng, 3, denoms=(5, 7, 9, 10))
                inner = payoff.breakpoints[1:]
                prior = rng.choice(inner) if seed % 3 == 0 and inner else rand_interior(rng, (5, 7, 9, 10))
                game = GameSpec(payoff, prior, structure)
                if len(critical_grid(game)) <= 9:
                    wider.append(game)
                    break
        denominators = {s.denominator for game in wider for s in critical_grid(game)}
        assert all(any(d % k == 0 for d in denominators) for k in (5, 7, 9))
        assert any(game.prior in game.payoff.breakpoints for game in wider)
        intervals = [iv for game in wider for _, supp in game.structure.messages for iv in supp.intervals]
        assert any(not iv.hi_closed for iv in intervals) and any(iv.lo == iv.hi for iv in intervals)
        kinds = set()
        for game in games + wider:
            for dedup in (True, False):
                want = per_profile_exhaustive_equilibria(game, 4, 13, dedup_values=dedup)
                assert exhaustive_equilibria(game, 4, 13, dedup_values=dedup) == want
                kinds |= {_size3_pooling(game, eq) for eq in want if len(eq.signal.support) == 3}
        # the size-3 branches all find equilibria: everyone pooling, no one
        # pooling, and a pooled pair at each position whose posterior
        # crosses a payoff breakpoint, one of them falling
        pairs = [k for k in kinds if isinstance(k, tuple)]
        assert {"all", "none"} <= kinds and any(k[3] for k in pairs)
        assert all(any(k[:3] == (i, j, True) for k in pairs) for i, j in ((0, 1), (0, 2), (1, 2)))

    def test_many_messages_match_per_profile_reference(self, monkeypatch):
        # 5-8 messages, so the mask tables run past 16 entries, on 7-point
        # grids over thirds: each game has a message supported from the top
        # breakpoint on, whose skeptical level is above every other's, and
        # short unions, some repeated under a second name.  The same
        # verified profiles in the same order, in both dedup modes; and the
        # int tests are exact, so verify rejects none of the candidates
        verify, rejected = oracle.verify_equilibrium, []

        def counted(game, eq):
            report = verify(game, eq)
            if not report.ok:
                rejected.append(report)
            return report

        monkeypatch.setattr(oracle, "verify_equilibrium", counted)
        rng = random.Random(41)
        thirds = [F(k, 3) for k in range(4)]
        repeated = 0
        for messages in (5, 6, 7, 8):
            cuts = sorted(rng.sample(thirds[1:3], rng.randint(1, 2)))
            values = [F(rng.randint(0, 1))]
            for _ in cuts:
                values.append(values[-1] + rng.choice((F(1, 2), F(1), F(2))))
            payoff = StepFunction((F(0), *cuts), tuple(values))
            msgs = [("m_0", IntervalUnion.from_pairs([(0, 1)])), ("m_top", IntervalUnion.from_pairs([(cuts[-1], 1)]))]
            while len(msgs) < messages:
                if rng.random() < 0.25:
                    supp = rng.choice(msgs[2:] or msgs)[1]
                else:
                    pairs = []
                    for _ in range(rng.randint(1, 2)):
                        i = rng.randrange(3)
                        lo, hi = (thirds[i], thirds[i + 1]) if rng.random() < 0.7 else (thirds[i], thirds[i])
                        pairs.append((lo, hi, lo == hi or rng.random() < 0.7))
                    supp = IntervalUnion.from_pairs(pairs)
                    if supp.minimum >= cuts[-1]:
                        continue
                msgs.append((f"m_{len(msgs)}", supp))
            rng.shuffle(msgs)
            game = GameSpec(payoff, rng.choice(thirds[1:3]), VerifStructure(tuple(msgs)))
            assert len(critical_grid(game)) <= 9
            supports = [supp for _, supp in msgs]
            repeated += len(supports) - len(set(supports))
            top = step_eval(payoff, cuts[-1])
            assert all(step_eval(payoff, supp.minimum) < top for name, supp in msgs if name != "m_top")
            for dedup in (True, False):
                want = per_profile_exhaustive_equilibria(game, 8, 9, dedup_values=dedup)
                assert exhaustive_equilibria(game, 8, 9, dedup_values=dedup) == want
        assert repeated and not rejected

    def test_condition_two_filters_spare_the_hull_work(self, monkeypatch):
        # 8 messages on [0, 1] under a 40-step payoff, on 81 grid points:
        # every type can send every message, so sendable (a type may send
        # only what no type of lower level can) rules out the separating
        # profiles that the best-response test would otherwise reject one
        # hull call at a time.  The search makes one hull call; without
        # sendable it makes 2,394,160
        hull, calls = oracle._hull_segment, []

        def budgeted(pts, x):
            calls.append(x)
            if len(calls) > 10:
                raise AssertionError("more than 10 hull calls")
            return hull(pts, x)

        monkeypatch.setattr(oracle, "_hull_segment", budgeted)
        steps = tuple(F(k, 40) for k in range(40))
        game = GameSpec(StepFunction(steps, steps), F(1, 2), cheap_talk(tuple(f"m_{k}" for k in range(8))))
        assert len(critical_grid(game)) == 81
        assert exhaustive_search(game, 8, 81) == {F(1, 2)}
        assert len(calls) == 1

    def test_agreement_on_random_pnbp_games(self):
        rng = random.Random(53)
        for _ in range(8):
            game = rand_oracle_game(rng, want_pnbp=True)
            values = exhaustive_search(game, 4, 12)
            assert max(values) == equilibrium_value(game).value == solve(game).value

    def test_found_equilibria_have_lowest_consistent_supports(self):
        # every profile the brute force certifies in a PNBP game has
        # lowest-consistent on-path types
        rng = random.Random(59)
        for _ in range(6):
            game = rand_oracle_game(rng, want_pnbp=True)
            for eq in exhaustive_equilibria(game, 4, 12):
                assert check_theorem1(game, eq)

    def test_skeptical_best_response_is_adjusted_envelope(self):
        # holds with or without PNBP
        rng = random.Random(61)
        for _ in range(40):
            game = rand_game(rng)
            skeptical = {name: supp.minimum for name, supp in game.structure.messages}
            assert assert_line_matches_chord(game, skeptical) == pl_eval(value_hull(game), game.prior)

    def test_agreement_on_rich_structures(self):
        rng = random.Random(67)
        count = 0
        while count < 12:
            game = GameSpec(
                rand_payoff(rng, max_pieces=3, denoms=(2, 3, 4)),
                rand_point(rng, (2, 3, 4)),
                rand_rich_structure(rng, allow_full_verif=False),
            )
            if len(critical_grid(game)) > 13:
                continue
            count += 1
            values = exhaustive_search(game, 4, 13)
            want = equilibrium_value(game).value
            if equilibrium_value(game).tag == "unique":
                assert max(values) == want
            else:
                assert want in values and max(values) <= want
