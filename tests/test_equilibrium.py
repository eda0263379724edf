"""Solver: PNBP detection, values, explicit equilibria, verification."""

import random
import re
import sys
from bisect import bisect_right
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from disclosuregame import (
    Equilibrium,
    GameSpec,
    IntervalUnion,
    PreconditionError,
    Signal,
    StepFunction,
    VerifStructure,
    VerifyReport,
    add_message,
    check_theorem1,
    cheap_talk,
    equilibrium_value,
    full_verif,
    mandatory_disclosure,
    min_inverse,
    pl_eval,
    pnbp,
    skeptical_value,
    solve,
    step_eval,
    thresholds,
    verify_equilibrium,
)
from disclosuregame import equilibrium, grid, verifiability
from disclosuregame.equilibrium import value_hull

from genutil import (
    rand_game,
    rand_interval_game,
    rand_no_pnbp_game,
    rand_payoff,
    rand_pnbp_game,
    rand_point,
    rand_rich_structure,
)
from reference_paths import fraction_signal, pointwise_adjusted, pointwise_envelope, pointwise_g, signal_value, swept_g


# sample values, built on first use (and cached), so a fault in a constructor
# fails the tests that read them rather than the module's collection
@cache
def v1():
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(1), F(3)))


@cache
def v43():
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(2), F(3)))


@cache
def m31():
    return VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_M", IntervalUnion.from_pairs([(F(1, 2), 1)])),
        )
    )


@cache
def m_prime():
    return cheap_talk(("m_0",))


@cache
def m_double_prime():
    return add_message(m_prime(), "m_H", IntervalUnion.from_pairs([(F(9, 10), 1)]))


@cache
def g31():
    return GameSpec(v1(), F(1, 3), m31())


@cache
def g_prime():
    return GameSpec(v43(), F(1, 2), m_prime())


@cache
def g_double_prime():
    return GameSpec(v43(), F(1, 2), m_double_prime())


@cache
def g_mandatory():
    return GameSpec(v1(), F(1, 3), mandatory_disclosure())


class TestPnbp:
    def test_three_action(self):
        verdict = pnbp(g31())
        assert verdict.holds and verdict.witness == "m_M"

    def test_cheap_talk_never(self):
        assert not pnbp(g_prime()).holds

    def test_constant_payoff_never(self):
        game = GameSpec(StepFunction((F(0),), (F(2),)), F(1, 3), m31())
        assert not pnbp(game).holds

    def test_counterexample_high_message(self):
        verdict = pnbp(g_double_prime())
        assert verdict.holds and verdict.witness == "m_H"

    def test_full_verifiability_iff_room_above_prior(self):
        assert pnbp(g_mandatory()).holds
        assert not pnbp(GameSpec(v1(), F(1), mandatory_disclosure())).holds

    def test_verdict_is_its_truth_value(self):
        assert pnbp(g31()) and not pnbp(g_prime())


class TestSkepticalValue:
    def test_three_action(self):
        assert skeptical_value(g31()) == StepFunction((F(0), F(1, 2)), (F(0), F(1)))

    def test_counterexample(self):
        assert skeptical_value(g_double_prime()) == StepFunction((F(0), F(9, 10)), (F(0), F(3)))

    def test_mandatory_disclosure_returns_payoff(self):
        assert skeptical_value(g_mandatory()) == v1()


class TestSharedAnalysis:
    def test_value_hull_matches_candidate_construction(self):
        rng = random.Random(211)
        for _ in range(1000):
            game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
            assert value_hull(game) == pointwise_envelope(game)
            if not game.structure.full_verifiability:
                # v(g) sampled at every gap's midpoint, and at 1
                ends = game.structure.support_endpoints()
                levels = [pointwise_adjusted(game, (a + b) / 2) for a, b in zip(ends, ends[1:])]
                assert skeptical_value(game) == StepFunction(ends, (*levels, pointwise_adjusted(game, F(1))))

    def test_built_once_per_game(self):
        game = GameSpec(v1(), F(1, 3), m31())
        assert skeptical_value(game) is skeptical_value(game)
        assert value_hull(game) is value_hull(game)
        assert pnbp(game) is pnbp(game)

    @staticmethod
    def count_span_scans(monkeypatch) -> list:
        """Record every call that scans all M supports' spans at one point (messages_at, _best_message), under every name bound to it."""
        calls = []
        modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "disclosuregame"]
        for scan in (verifiability.messages_at, equilibrium._best_message):
            def counting(structure, s, scan=scan):
                calls.append(s)
                return scan(structure, s)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is scan:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    def test_solve_queries_supports_linearly(self, monkeypatch):
        # the solver reads g from one endpoint sweep and asks availability
        # only at the split's points; asking at every endpoint would take
        # about M * E span tests
        game = rand_interval_game(random.Random(401), 400)
        calls = self.count_span_scans(monkeypatch)
        eq = solve(game)
        assert eq.signal.support != (game.prior,)
        assert len(calls) <= 2 * len(eq.signal.support)

    def test_verify_queries_supports_linearly(self, monkeypatch):
        # the oracle fills w by grid-index ranges; asking availability at
        # every grid point would take about M * G span tests
        game = rand_interval_game(random.Random(401), 400)
        eq = solve(game)
        calls = self.count_span_scans(monkeypatch)
        assert verify_equilibrium(game, eq).ok
        assert len(calls) <= 2 * len(eq.signal.support)


class TestEquilibriumValue:
    def test_three_action(self):
        assert equilibrium_value(g31()) == (F(2, 3), "unique")

    def test_counterexample_drop(self):
        assert equilibrium_value(g_double_prime()) == (F(5, 3), "unique")
        assert equilibrium_value(g_prime()) == (F(2), "sender_preferred")

    def test_mandatory_disclosure_full_commitment(self):
        assert equilibrium_value(g_mandatory()) == (F(5, 4), "unique")


class TestSplitPoints:
    def test_three_action(self):
        eq = solve(g31())
        assert (eq.s_minus, eq.s_plus) == (F(0), F(1, 2))

    def test_prior_in_contact_set(self):
        # v(g) = v touches its envelope at the vertex 2/5, and m_2 proves news
        # better than the prior, so the prior is its own split
        game = GameSpec(v43(), F(2, 5), thresholds([F(2, 5), F(4, 5)]))
        assert pnbp(game).holds
        assert pl_eval(value_hull(game), F(2, 5)) == pointwise_adjusted(game, F(2, 5))
        eq = solve(game)
        assert (eq.s_minus, eq.s_plus) == (F(2, 5), F(2, 5))
        assert eq.signal.support == (F(2, 5),)

    def test_counterexample(self):
        eq = solve(g_double_prime())
        assert (eq.s_minus, eq.s_plus) == (F(0), F(9, 10))

    def test_split_points_follow_the_signal(self):
        # the split points are the signal's ends, so an edit of the signal
        # cannot leave them stale
        eq = solve(g31())
        moved = eq.replace(signal=Signal((F(0), F(4, 5)), (F(7, 12), F(5, 12))))
        assert (moved.s_minus, moved.s_plus) == (F(0), F(4, 5))
        assert (eq.s_minus, eq.s_plus) == (F(0), F(1, 2))


class TestSolve:
    def test_three_action_full_profile(self):
        eq = solve(g31())
        assert eq.signal.support == (F(0), F(1, 2))
        assert eq.signal.weights == (F(1, 3), F(2, 3))
        assert eq.messaging == {F(0): "m_L", F(1, 2): "m_M"}
        assert eq.beliefs == {"m_L": F(0), "m_M": F(1, 2)}
        assert eq.value == F(2, 3)
        assert (eq.s_minus, eq.s_plus) == (F(0), F(1, 2))

    def test_counterexample_profile(self):
        eq = solve(g_double_prime())
        assert eq.signal.support == (F(0), F(9, 10))
        assert eq.signal.weights == (F(4, 9), F(5, 9))
        assert eq.value == F(5, 3)

    def test_cheap_talk_no_information(self):
        eq = solve(g_prime())
        assert eq.signal.support == (F(1, 2),)
        assert eq.beliefs["m_0"] == F(1, 2)
        assert eq.value == F(2)

    def test_mandatory_disclosure_full_commitment_split(self):
        eq = solve(g_mandatory())
        assert eq.signal.support == (F(0), F(4, 5))
        assert eq.value == F(5, 4)

    def test_best_message_ties_go_to_the_smallest_name(self):
        # no PNBP: m0 is the smallest name among the largest available minima
        eq = solve(GameSpec(v43(), F(1, 2), cheap_talk(("m_b", "m_a"))))
        assert eq.messaging == {F(1, 2): "m_a"}
        # PNBP: two messages share the threshold 1/2
        structure = add_message(m31(), "m_K", IntervalUnion.from_pairs([(F(1, 2), 1)]))
        assert solve(GameSpec(v1(), F(1, 3), structure)).messaging == {F(0): "m_L", F(1, 2): "m_K"}
        # full verifiability: the identity message competes by its name
        for name, top in (("a", "a"), ("z", "id:4/5")):
            high = IntervalUnion.from_pairs([(F(4, 5), 1)])
            game = GameSpec(v1(), F(1, 3), full_verif(add_message(cheap_talk(("m_0",)), name, high)))
            eq = solve(game)
            assert eq.messaging == {F(0): "id:0", F(4, 5): top}
            assert verify_equilibrium(game, eq).ok

    def test_all_fixtures_verify(self):
        for game in (g31(), g_prime(), g_double_prime(), g_mandatory()):
            assert verify_equilibrium(game, solve(game)).ok

    def test_degenerate_priors(self):
        for p in (F(0), F(1)):
            game = GameSpec(v1(), p, m31())
            eq = solve(game)
            assert eq.signal.support == (p,)
            assert eq.value == step_eval(v1(), p)
            assert verify_equilibrium(game, eq).ok


class TestVerifyEquilibrium:
    def test_tampered_belief_fails_bayes(self):
        eq = solve(g31())
        bad = eq.replace(beliefs={**eq.beliefs, "m_M": F(3, 4)}, value=F(2, 3))
        report = verify_equilibrium(g31(), bad)
        assert not report.ok and report.condition == 3

    def test_public_persuasion_split_is_not_covert_equilibrium(self):
        # the full-commitment split {0, 4/5} under skeptical beliefs leaves a
        # profitable deviation toward the lowest-consistent pair {0, 1/2}
        signal = Signal((F(0), F(4, 5)), (F(7, 12), F(5, 12)))
        beliefs = {"m_L": F(0), "m_M": F(1, 2)}
        value = F(5, 12) * 1  # 4/5 sends m_M, believed 1/2, worth v(1/2)=1
        eq = Equilibrium(
            signal=signal,
            messaging={F(0): "m_L", F(4, 5): "m_M"},
            beliefs=beliefs,
            value=value,
        )
        report = verify_equilibrium(g31(), eq)
        assert not report.ok and report.condition == 1
        assert set(report.witness.support) == {F(0), F(1, 2)}

    def test_suboptimal_message_on_usc_game_fails_condition_one(self):
        # on an upper semicontinuous game a type that sends a worse message
        # lowers the value below the best response, so condition (1) fires
        # before condition (2) is tested
        eq = solve(g31())
        bad = eq.replace(
            messaging={F(0): "m_L", F(1, 2): "m_L"},
            value=F(0),
        )
        report = verify_equilibrium(g31(), bad)
        assert not report.ok and report.condition == 1

    def test_suboptimal_message_fails_condition_two(self):
        # only a game that is not upper semicontinuous reaches "prefers another
        # message": the right-open m_X makes the oracle's grid value 2/3 (the
        # unattained supremum is 1), which this claim matches, while type 1/2
        # sends m_L although m_X is worth more.  Once the oracle reports the
        # supremum (ROADMAP item 2), this case fails condition (1) instead.
        structure = VerifStructure(
            (
                ("m_L", IntervalUnion.from_pairs([(0, 1)])),
                ("m_X", IntervalUnion.from_pairs([(F(1, 2), F(3, 4), False)])),
            )
        )
        game = GameSpec(StepFunction((F(0), F(1, 2), F(3, 4)), (F(0), F(1), F(2))), F(7, 8), structure)
        support = (F(1, 2), F(11, 16), F(1))
        eq = Equilibrium(
            signal=Signal(support, (F(1, 24), F(1, 3), F(5, 8))),
            messaging=dict(zip(support, ("m_L", "m_X", "m_L"))),
            beliefs={"m_L": F(0), "m_X": F(3, 4)},
            value=F(2, 3),
        )
        report = verify_equilibrium(game, eq)
        assert not report.ok and report.condition == 2
        assert report.witness == (F(1, 2), "m_X")

    def test_belief_outside_conv_support_fails_condition_three(self):
        # condition (1)'s line test takes beliefs inside their hulls as its
        # precondition, so the report has to come before it runs
        game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 4), thresholds([F(1, 2)]))
        eq = solve(game)
        bad = eq.replace(beliefs={**eq.beliefs, "m_1": F(1, 4)}, value=F(0))
        report = verify_equilibrium(game, bad)
        assert not report.ok and report.condition == 3
        assert report.witness == ("m_1", F(1, 4))

    def test_structurally_invalid_raises(self):
        eq = solve(g31())
        with pytest.raises(ValueError):
            verify_equilibrium(g31(), eq.replace(value=F(1)))


# v jumps from 0 to 1 at 1/2, prior 1/4; the solution splits {0, 1/2} with
# messages m_L and m_H, value 1/2
@cache
def tamper_game():
    return GameSpec(
        StepFunction((F(0), F(1, 2)), (F(0), F(1))),
        F(1, 4),
        VerifStructure(
            (
                ("m_L", IntervalUnion.from_pairs([(0, 1)])),
                ("m_H", IntervalUnion.from_pairs([(F(1, 2), 1)])),
                ("m_X", IntervalUnion.from_pairs([(F(3, 4), 1)])),
            )
        ),
    )


class TestVerifyTamper:
    """One edit of a solved profile per case, each rejected with its own condition."""

    def test_solution_verifies(self):
        eq = solve(tamper_game())
        assert eq.messaging == {F(0): "m_L", F(1, 2): "m_H"} and eq.value == F(1, 2)
        assert verify_equilibrium(tamper_game(), eq).ok

    def test_claim_above_best_response_fails_condition_one(self):
        # type 0 sends the unavailable m_H; the claimed value 1 is what the
        # beliefs pay, but no signal reaches it against those beliefs: w is 0 below
        # 1/2 and 1 from there, so the line through (1/4, 1) with the witness
        # slope 2, between 0 (from the right) and 4 (from the left), clears it
        eq = solve(tamper_game()).replace(messaging={F(0): "m_H", F(1, 2): "m_H"}, value=F(1))
        report = verify_equilibrium(tamper_game(), eq)
        assert not report.ok and report.condition == 1
        assert report.witness == F(2)

    def test_unavailable_message_fails_condition_two(self):
        # type 1/2 sends m_X, provable only from 3/4 on; the value matches
        eq = solve(tamper_game()).replace(messaging={F(0): "m_L", F(1, 2): "m_X"})
        assert eq.beliefs["m_X"] == F(3, 4)
        report = verify_equilibrium(tamper_game(), eq)
        assert not report.ok and report.condition == 2
        assert report.witness == (F(1, 2), "m_X")

    def test_identity_belief_off_its_type_fails_condition_three(self):
        game = tamper_game().replace(structure=full_verif(tamper_game().structure))
        eq = solve(game)
        assert verify_equilibrium(game, eq).ok
        bad = eq.replace(beliefs={**eq.beliefs, "id:1/3": F(1, 2)})
        report = verify_equilibrium(game, bad)
        assert not report.ok and report.condition == 3
        assert report.witness == ("id:1/3", F(1, 2))

    def test_condition_one_detail_names_the_direction_of_the_gap(self):
        eq = solve(tamper_game())
        above = eq.replace(messaging={F(0): "m_H", F(1, 2): "m_H"}, value=F(1))
        assert verify_equilibrium(tamper_game(), above).detail == "value 1 above best response: no signal attains it"
        # the witness splits the prior between 0 and 1/2, worth 1/2 (here
        # also the best response)
        below = eq.replace(messaging={F(0): "m_L", F(1, 2): "m_L"}, value=F(0))
        report = verify_equilibrium(tamper_game(), below)
        assert report.detail == (
            "profitable deviation: value 0 below 1/2, the witness signal's value (not necessarily the best response)"
        )
        assert report.witness == Signal((F(0), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_identity_beliefs_are_checked_before_conditions_one_and_two(self):
        # an unsent identity message believed off its type fails (3) before
        # (1) and (2) read any belief: believed at 5, outside [0,1], it
        # would have no payoff piece for (2) to rank; at 1/8 (2) passes
        structure = VerifStructure(thresholds([F(1, 2)]).messages, True)
        game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 4), structure)
        for belief in (F(5), F(1, 8)):
            eq = Equilibrium(
                Signal((F(0), F(1, 2)), (F(1, 2), F(1, 2))),
                {F(0): "m_0", F(1, 2): "m_1"},
                {"m_0": F(0), "m_1": F(1, 2), "id:1/2": belief},
                F(1, 2),
            )
            assert verify_equilibrium(game, eq) == VerifyReport(
                False, 3, "identity belief 'id:1/2' must equal its type", ("id:1/2", belief)
            )

    def test_right_open_claim_above_the_grid_is_not_called_unattainable(self):
        # m_X = [1/2, 3/4) is right-open; with m_X believed at 3/4, w is 2 on
        # [1/2, 3/4) and 0 elsewhere, so the signals {3/4 - e, 1} reach
        # 25/26 at e = 1/100 (supremum 1, not attained), while the critical
        # grid's best at the prior 7/8 is 2/3, from its midpoint 5/8: the
        # claim 9/10 is above the grid's best response, which is all the
        # detail says, and the candidate's own signal attains 9/10
        structure = VerifStructure((
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_X", IntervalUnion.from_pairs([(F(1, 2), F(3, 4), False)])),
        ))
        game = GameSpec(StepFunction((F(0), F(1, 2), F(3, 4)), (F(0), F(1), F(2))), F(7, 8), structure)
        beliefs = {"m_L": F(0), "m_X": F(3, 4)}
        eq = Equilibrium(Signal((F(13, 18), F(1)), (F(9, 20), F(11, 20))), {F(13, 18): "m_X", F(1): "m_L"}, beliefs, F(9, 10))
        above = VerifyReport(
            False, 1,
            "value 9/10 above the critical grid's best response (a support is right-open)",
            F(-29, 5),
        )
        assert verify_equilibrium(game, eq) == above
        assert grid._supporting_line(game, beliefs, F(9, 10)) == above
        lo = F(3, 4) - F(1, 100)
        w_lo = (1 - game.prior) / (1 - lo)
        assert signal_value(game, beliefs, Signal((lo, F(1)), (w_lo, 1 - w_lo))) == F(25, 26)


class TestCheckTheorem1:
    def test_three_action(self):
        assert check_theorem1(g31(), solve(g31()))

    def test_counterexample(self):
        assert check_theorem1(g_double_prime(), solve(g_double_prime()))

    def test_degenerate_zero_prior(self):
        game = GameSpec(v1(), F(0), m31())
        assert pnbp(game).holds
        assert check_theorem1(game, solve(game))

    def test_requires_pnbp(self):
        with pytest.raises(PreconditionError):
            check_theorem1(g_prime(), solve(g_prime()))


class TestRandomizedInvariants:
    def test_value_identity_and_skepticism(self):
        rng = random.Random(101)
        for _ in range(80):
            game = rand_pnbp_game(rng)
            eq = solve(game)
            hull = value_hull(game)
            assert eq.value == pl_eval(hull, game.prior)
            assert eq.signal.mean == game.prior
            for s in eq.signal.support:
                m = eq.messaging[s]
                assert eq.beliefs[m] == min_inverse(game.structure, m) == s

    def test_split_edge_ends_are_lowest_consistent_contact_points(self):
        # the argument in _split's docstring: under PNBP the hull edge over
        # the prior rises strictly and both of its ends are lowest-consistent
        # contact points, so the split-point scan always finds both sides
        rng = random.Random(2026)
        seen = {"pnbp": 0, "union": 0, "degenerate": 0, "right_open": 0, "full": 0}
        while seen["pnbp"] < 200:
            game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
            if not pnbp(game).holds:
                continue
            hull = value_hull(game)
            i = bisect_right(hull.xs, game.prior) - 1
            (x0, y0), (x1, y1) = hull.vertices[i], hull.vertices[i + 1]
            assert y0 < y1
            for x in (x0, x1):
                assert swept_g(game.structure, x) == x == pointwise_g(game.structure, x)
                assert pl_eval(hull, x) == pointwise_adjusted(game, x)
            intervals = [iv for _, supp in game.structure.messages for iv in supp.intervals]
            seen["pnbp"] += 1
            seen["union"] += any(len(supp.intervals) > 1 for _, supp in game.structure.messages)
            seen["degenerate"] += any(iv.lo == iv.hi for iv in intervals)
            seen["right_open"] += any(not iv.hi_closed for iv in intervals)
            seen["full"] += game.structure.full_verifiability
        assert min(seen.values()) > 0, seen

    def test_claim_a3_interim_value_strictly_increases(self):
        # the pointwise interim value, not its step representation: supports
        # closed at an interior right end attain values the representation
        # only carries through the endpoint sweep
        rng = random.Random(103)
        seen = 0
        while seen < 60:
            game = rand_pnbp_game(rng)
            eq = solve(game)
            if eq.s_minus == eq.s_plus:
                continue
            seen += 1
            assert pointwise_adjusted(game, eq.s_minus) < pointwise_adjusted(game, eq.s_plus)

    def test_no_pnbp_value_is_prior_payoff(self):
        rng = random.Random(107)
        for _ in range(60):
            game = rand_no_pnbp_game(rng)
            eq = solve(game)
            assert eq.value == step_eval(game.payoff, game.prior)
            assert verify_equilibrium(game, eq).ok

    def test_monotone_payoff_when_pnbp_status_preserved(self):
        # raising v pointwise helps the sender as long as the increase does not
        # newly create PNBP; see the regression below for the exception
        rng = random.Random(109)
        for _ in range(60):
            game = rand_game(rng)
            bump = F(rng.randint(0, 2))
            raised = StepFunction(
                game.payoff.breakpoints,
                tuple(v + bump for v in game.payoff.values),
            )
            raised_game = GameSpec(raised, game.prior, game.structure)
            if not pnbp(game).holds and pnbp(raised_game).holds:
                continue
            assert equilibrium_value(raised_game).value >= equilibrium_value(game).value

    def test_degenerate_interior_support_point(self):
        # a message provable only at exactly 1/2: invisible to the left-closed
        # step representation, but the hull candidates carry its point value
        structure = VerifStructure(
            (
                ("m_L", IntervalUnion.from_pairs([(0, 1)])),
                ("m_pt", IntervalUnion.from_pairs([(F(1, 2), F(1, 2))])),
            )
        )
        game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 4), structure)
        eq = solve(game)
        assert eq.signal.support == (F(0), F(1, 2))
        assert eq.value == F(1, 2)
        assert verify_equilibrium(game, eq).ok
        assert check_theorem1(game, eq)

    def test_right_open_support_ends(self):
        indicator = StepFunction((F(0), F(1, 2)), (F(0), F(1)))
        for hi in (F(3, 4), F(1)):
            structure = VerifStructure(
                (
                    ("m_L", IntervalUnion.from_pairs([(0, 1)])),
                    ("m_X", IntervalUnion.from_pairs([(F(1, 2), hi, False)])),
                )
            )
            game = GameSpec(indicator, F(1, 3), structure)
            eq = solve(game)
            assert eq.signal.support == (F(0), F(1, 2))
            assert eq.value == F(2, 3)
            assert verify_equilibrium(game, eq).ok

    def test_rich_structures_solve_and_verify(self):
        # union supports, degenerate points, right-open ends, identity family
        rng = random.Random(113)
        for _ in range(150):
            game = GameSpec(rand_payoff(rng), rand_point(rng), rand_rich_structure(rng))
            eq = solve(game)
            assert verify_equilibrium(game, eq).ok
            if pnbp(game).holds:
                assert eq.value == pl_eval(value_hull(game), game.prior)
                assert check_theorem1(game, eq)
            else:
                assert eq.value == step_eval(game.payoff, game.prior)

    def test_raising_payoff_can_hurt_by_creating_pnbp(self):
        # uniform-shift bumps preserve PNBP status; a local improvement at the
        # top can create PNBP and destroy the no-information equilibrium
        structure = VerifStructure(
            (
                ("m_L", IntervalUnion.from_pairs([(0, 1)])),
                ("m_B", IntervalUnion.from_pairs([(F(9, 10), 1)])),
            )
        )
        v_low = StepFunction((F(0), F(2, 5)), (F(0), F(5)))
        v_high = StepFunction((F(0), F(2, 5), F(9, 10)), (F(0), F(5), F(6)))
        prior = F(1, 2)
        assert not pnbp(GameSpec(v_low, prior, structure)).holds
        assert pnbp(GameSpec(v_high, prior, structure)).holds
        low = equilibrium_value(GameSpec(v_low, prior, structure)).value
        high = equilibrium_value(GameSpec(v_high, prior, structure)).value
        assert low == F(5)
        assert high == F(10, 3) < low



COPRIME = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10**9 + 7)


@st.composite
def signal_arguments(draw):
    """(support, weights) of up to 4 points, unsorted, whose denominators are pairwise co-prime or share a factor.

    Now and then an entry strays outside [0,1] or repeats, a weight is zero
    or negative, or a weight is missing; the last weight mostly closes the
    sum to 1, sometimes off by a little.
    """
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        dens = draw(st.permutations(COPRIME))[:2 * k]
    else:
        base = draw(st.sampled_from((4, 6, 30, 2**40)))
        dens = [base * draw(st.integers(1, 9)) for _ in range(2 * k)]
    rarely = st.sampled_from((False,) * 7 + (True,))
    support = [F(draw(st.sampled_from((-1, d + 1)) if draw(rarely) else st.integers(0, d)), d) for d in dens[:k]]
    weights = [F(draw(st.sampled_from((-1, 0)) if draw(rarely) else st.integers(1, max(1, d // k))), d) for d in dens[k:]]
    if not draw(rarely):
        off = draw(st.sampled_from((0, 0, 0, F(1, 10**12), F(-1, dens[0] * dens[-1]))))
        weights[-1] = 1 - sum(weights[:-1]) + off
    if draw(rarely):
        weights.pop()
    return support, weights


@settings(max_examples=300, deadline=None)
@given(signal_arguments())
def test_signal_checks_match_the_fraction_twin(arguments):
    # Signal checks its pairs and sums its weights over one common
    # denominator; the twin does it all in Fractions: the same refusal, or
    # the same sorted signal, whose pairs are its entries'
    support, weights = arguments
    try:
        want = fraction_signal(support, weights)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            Signal(support, weights)
        return
    signal = Signal(support, weights)
    assert (signal.support, signal.weights) == want
    assert signal.support_pairs == tuple((q.numerator, q.denominator) for q in want[0])
    assert signal.weight_pairs == tuple((q.numerator, q.denominator) for q in want[1])
