"""Pre-orders, optimality characterizations, separating instances."""

import random
from fractions import Fraction as F

import pytest

from disclosuregame import (
    GameSpec,
    IntervalUnion,
    PreconditionError,
    StepFunction,
    VerifStructure,
    add_message,
    cheap_talk,
    equilibrium_value,
    full_verif,
    mandatory_disclosure,
    pnbp,
    thresholds,
)
from disclosuregame import comparative, verifiability
from disclosuregame.comparative import (
    geq_lc,
    geq_sep,
    is_receiver_optimal,
    is_sender_optimal,
    separating_instance,
)

from genutil import (
    rand_interior,
    rand_interval_game,
    rand_pnbp_game,
    rand_rich_structure,
    rand_sep_pair,
    rand_structure,
)
from reference_paths import grid_geq_sep

M31 = VerifStructure(
    (
        ("m_L", IntervalUnion.from_pairs([(0, 1)])),
        ("m_M", IntervalUnion.from_pairs([(F(1, 2), 1)])),
    )
)
RECEIVER_OPTIMAL = VerifStructure(
    (
        ("m_L", IntervalUnion.from_pairs([(0, 1)])),
        ("m_1", IntervalUnion.from_pairs([(1, 1)])),
    )
)
# lc-equivalent but sep-incomparable pair
SEP_A = VerifStructure(
    (
        ("m_L", IntervalUnion.from_pairs([(0, 1)])),
        ("m_a", IntervalUnion.from_pairs([(F(1, 2), 1)])),
    )
)
SEP_B = VerifStructure(
    (
        ("m_L", IntervalUnion.from_pairs([(0, 1)])),
        ("m_b", IntervalUnion.from_pairs([(F(1, 2), F(3, 4))])),
    )
)


class TestGeqLc:
    def test_finer_thresholds_dominate(self):
        assert geq_lc(thresholds([F(1, 2), F(3, 4)]), thresholds([F(1, 2)])).holds

    def test_disjoint_thresholds_fail_with_witness(self):
        verdict = geq_lc(thresholds([F(3, 4)]), thresholds([F(1, 2)]))
        assert not verdict.holds and verdict.witness == F(1, 2)

    def test_verdict_is_its_truth_value(self):
        assert geq_lc(thresholds([F(1, 2), F(3, 4)]), thresholds([F(1, 2)]))
        assert not geq_lc(thresholds([F(3, 4)]), thresholds([F(1, 2)]))

    def test_everything_dominates_cheap_talk(self):
        rng = random.Random(31)
        for _ in range(30):
            assert geq_lc(rand_structure(rng), cheap_talk(("x", "y"))).holds

    def test_full_verifiability_dominates_everything(self):
        rng = random.Random(33)
        for _ in range(30):
            assert geq_lc(mandatory_disclosure(), rand_structure(rng)).holds

    def test_nothing_finite_dominates_full_verifiability(self):
        verdict = geq_lc(M31, mandatory_disclosure())
        assert not verdict.holds and 0 < verdict.witness <= 1

    def test_reflexive_and_transitive(self):
        rng = random.Random(37)
        for _ in range(30):
            a, b, c = (rand_structure(rng) for _ in range(3))
            assert geq_lc(a, a).holds
            if geq_lc(a, b).holds and geq_lc(b, c).holds:
                assert geq_lc(a, c).holds

    def test_not_antisymmetric(self):
        # two cheap-talk variants compare both ways yet differ
        one = cheap_talk(("m_0",))
        two = cheap_talk(("m_0", "m_1"))
        assert geq_lc(one, two).holds and geq_lc(two, one).holds
        assert one != two


class TestGeqSep:
    def test_adding_a_message_only_grows_separation(self):
        rng = random.Random(41)
        for _ in range(30):
            base = rand_structure(rng)
            lo = rand_interior(rng)
            hi = rng_hi = max(lo, rand_interior(rng))
            bigger = add_message(base, "new", IntervalUnion.from_pairs([(lo, rng_hi)]))
            assert geq_sep(bigger, base).holds

    def test_interval_vs_threshold_fails_both_ways(self):
        down = geq_sep(SEP_B, SEP_A)
        up = geq_sep(SEP_A, SEP_B)
        assert not down.holds and not up.holds
        s, pieces = down.witness
        assert F(1, 2) <= s <= F(3, 4)
        assert pieces == [(F(0), True, F(1, 2), False)]

    def test_counterexample_pair_is_lc_equivalent(self):
        assert geq_lc(SEP_B, SEP_A).holds and geq_lc(SEP_A, SEP_B).holds

    def test_sep_implies_lc_randomized(self):
        rng = random.Random(43)
        for _ in range(60):
            a = rand_structure(rng)
            if rng.random() < 0.5:
                lo = rand_interior(rng)
                b = add_message(a, "extra", IntervalUnion.from_pairs([(lo, 1)]))
                hi_struct, lo_struct = b, a
            else:
                hi_struct, lo_struct = rand_structure(rng), a
            if geq_sep(hi_struct, lo_struct).holds:
                assert geq_lc(hi_struct, lo_struct).holds


    def test_matches_grid_scan(self):
        # both orders of 1,000 pairs: verdict and witness as the scan of
        # every message at every endpoint and gap midpoint finds them
        rng = random.Random(11)
        point_0 = IntervalUnion.from_pairs([(0, 0)])
        holds, identity_at, seen = 0, set(), set()
        for pair in (rand_sep_pair(rng) for _ in range(1000)):
            for hi, lo in (pair, pair[::-1]):
                verdict = geq_sep(hi, lo)
                assert verdict == grid_geq_sep(hi, lo), (hi, lo)
                holds += verdict.holds
                if lo.full_verifiability and not hi.full_verifiability:
                    # the identity family fails at 0 or, past a {0} support
                    # of hi, at a type that is no endpoint of either side
                    s, pieces = verdict.witness
                    if s == 0 and pieces == point_0.complement_pieces():
                        identity_at.add("at 0")
                    elif s not in hi.support_endpoints() + lo.support_endpoints():
                        identity_at.add("past {0}")
            hi, lo = pair
            supports = [supp for _, supp in hi.messages + lo.messages]
            seen.update(
                (
                    ("full hi", hi.full_verifiability),
                    ("full lo", lo.full_verifiability),
                    ("mandatory", mandatory_disclosure() in pair),
                    ("point 0 in hi", point_0 in dict(hi.messages).values()),
                    ("union", any(len(supp.intervals) > 1 for supp in supports)),
                    ("right-open", any(not iv.hi_closed for supp in supports for iv in supp.intervals)),
                )
            )
        assert holds >= 500
        assert identity_at == {"at 0", "past {0}"}
        assert len(seen) == 12  # each feature both present and absent

    def test_decided_without_type_queries(self, monkeypatch):
        structure = rand_interval_game(random.Random(1), 1600, 9973).structure
        bigger = add_message(structure, "extra", IntervalUnion.from_pairs([(F(1, 3), F(2, 3))]))

        def refused(*args):
            raise AssertionError("messages_at in geq_sep")

        for module in (comparative, verifiability):
            monkeypatch.setattr(module, "messages_at", refused, raising=False)
        assert geq_sep(structure, structure).holds
        assert geq_sep(bigger, structure).holds
        verdict = geq_sep(structure, bigger)
        assert not verdict.holds and verdict.witness[0] == F(1, 3)


class TestOptimality:
    def test_mandatory_disclosure_sender_optimal(self):
        assert is_sender_optimal(mandatory_disclosure())

    def test_full_verif_over_cheap_talk_sender_optimal(self):
        assert is_sender_optimal(full_verif(cheap_talk()))

    def test_three_action_not_sender_optimal(self):
        assert not is_sender_optimal(M31)

    def test_receiver_optimal_fixture(self):
        assert is_receiver_optimal(RECEIVER_OPTIMAL)

    def test_three_action_not_receiver_optimal(self):
        assert not is_receiver_optimal(M31)

    def test_cheap_talk_not_receiver_optimal(self):
        assert not is_receiver_optimal(cheap_talk())


class TestSeparatingInstance:
    def test_threshold_pair(self):
        inst = separating_instance(thresholds([F(3, 4)]), thresholds([F(1, 2)]))
        assert inst.s_star == F(1, 2)
        assert inst.prior == F(1, 4)
        assert inst.value_lo == F(1, 2)
        assert inst.sup_value_hi == F(1, 3)

    def test_cheap_talk_high_side(self):
        inst = separating_instance(cheap_talk(), M31)
        assert inst.s_star == F(1, 2)
        assert inst.value_lo == F(1, 2)
        assert inst.sup_value_hi == F(0)

    def test_requires_failed_comparison(self):
        with pytest.raises(PreconditionError):
            separating_instance(thresholds([F(1, 2)]), cheap_talk())

    def test_payoff_is_indicator_with_pnbp(self):
        inst = separating_instance(thresholds([F(3, 4)]), thresholds([F(1, 2)]))
        assert inst.payoff == StepFunction((F(0), F(1, 2)), (F(0), F(1)))
        assert pnbp(inst.game_lo).holds

    def test_reversal_on_rich_pairs(self):
        # the docstring's argument, on unions with open, degenerate and
        # full-verifiability supports: PNBP below, value 1/2 below, less above
        rng = random.Random(61)
        checked = 0
        while checked < 40:
            hi, lo = rand_rich_structure(rng), rand_rich_structure(rng)
            if geq_lc(hi, lo).holds:
                continue
            inst = separating_instance(hi, lo)
            assert pnbp(inst.game_lo).holds
            assert inst.value_lo == F(1, 2) > inst.sup_value_hi
            checked += 1


class TestLcDominanceMonotonicity:
    def test_lc_dominance_implies_weakly_higher_value(self):
        rng = random.Random(47)
        for _ in range(40):
            game = rand_pnbp_game(rng)
            lo_val = equilibrium_value(game).value
            extra_lo = rand_interior(rng)
            bigger = add_message(
                game.structure, "extra", IntervalUnion.from_pairs([(extra_lo, 1)])
            )
            hi_val = equilibrium_value(
                GameSpec(game.payoff, game.prior, bigger)
            ).value
            assert geq_lc(bigger, game.structure).holds
            assert hi_val >= lo_val
