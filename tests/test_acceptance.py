"""Acceptance criteria.

One test per criterion, exact rational equality everywhere (zero tolerance);
each prints a PASS line when its assertions hold.  Run with `pytest -s
tests/test_acceptance.py` to see the lines.
"""

import random
from fractions import Fraction as F

import pytest

from disclosuregame import (
    GameSpec,
    IntervalUnion,
    StepFunction,
    VerifStructure,
    add_message,
    cav,
    check_theorem1,
    cheap_talk,
    equilibrium_value,
    mandatory_disclosure,
    min_inverse,
    pl_eval,
    solve,
    step_eval,
    verify_equilibrium,
)
from disclosuregame.comparative import geq_lc, geq_sep, separating_instance
from disclosuregame.equilibrium import value_hull
from disclosuregame.oracle import exhaustive_search

from genutil import (
    rand_interior,
    rand_oracle_game,
    rand_payoff,
    rand_pnbp_game,
    rand_structure,
)
from reference_paths import discrete_hull_value, piece_ends


# the paper's examples, built by the tests that read them, so a fault in a
# constructor fails those tests rather than the module's collection
@pytest.fixture
def v1() -> StepFunction:
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(1), F(3)))


@pytest.fixture
def v43() -> StepFunction:
    return StepFunction((F(0), F(2, 5), F(4, 5)), (F(0), F(2), F(3)))


@pytest.fixture
def m31() -> VerifStructure:
    return VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_M", IntervalUnion.from_pairs([(F(1, 2), 1)])),
        )
    )


def test_criterion_1_three_action_reproduction(v1, m31):
    game = GameSpec(v1, F(1, 3), m31)
    eq = solve(game)
    assert eq.signal.support == (F(0), F(1, 2))
    assert eq.beliefs == {"m_L": F(0), "m_M": F(1, 2)}
    assert eq.value == F(2, 3)
    assert eq.signal.weights == (F(1, 3), F(2, 3))
    print("PASS criterion 1: three-action game: support {0,1/2}, "
          "beliefs (0, 1/2), value 2/3 exactly")


def test_criterion_2_more_verifiability_hurts(v43):
    cheap = GameSpec(v43, F(1, 2), cheap_talk(("m_0",)))
    more = GameSpec(
        v43, F(1, 2), add_message(cheap_talk(("m_0",)), "m_H", IntervalUnion.from_pairs([(F(9, 10), 1)]))
    )
    v_cheap = equilibrium_value(cheap)
    v_more = equilibrium_value(more)
    assert v_cheap == (F(2), "sender_preferred")
    assert v_more == (F(5, 3), "unique")
    assert geq_lc(more.structure, cheap.structure).holds
    assert geq_sep(more.structure, cheap.structure).holds
    assert v_more.value < v_cheap.value
    print("PASS criterion 2: cheap talk 2 vs enriched structure 5/3: "
          "more verifiability hurts, exactly")


def test_criterion_3_full_commitment_benchmark(v1):
    game = GameSpec(v1, F(1, 3), mandatory_disclosure())
    eq = solve(game)
    assert eq.value == F(5, 4)
    assert eq.signal.support == (F(0), F(4, 5))
    assert verify_equilibrium(game, eq).ok
    print("PASS criterion 3: mandatory disclosure: value 5/4, split {0,4/5}")


def test_criterion_4_unraveling_suite():
    rng = random.Random(20240)
    for _ in range(500):
        game = rand_pnbp_game(rng)
        eq = solve(game)
        assert verify_equilibrium(game, eq).ok
        assert check_theorem1(game, eq)
        for s in eq.signal.support:
            m = eq.messaging[s]
            assert eq.beliefs[m] == min_inverse(game.structure, m)  # skeptical
            assert eq.beliefs[m] == s  # full revelation
    print("PASS criterion 4: 500 random PNBP games: verified equilibria, "
          "lowest-consistent supports, skeptical beliefs, full revelation")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20241)
    for _ in range(100):
        game = rand_oracle_game(rng, want_pnbp=True)
        values = exhaustive_search(game, max_messages=4, max_grid=12)
        analytic = pl_eval(value_hull(game), game.prior)
        assert values, "oracle found no equilibrium"
        assert max(values) == analytic == solve(game).value
    print("PASS criterion 5: 100 desk-scale PNBP games: exhaustive-search max "
          "equals cav(v-)(prior) equals solve value, exactly")


def test_criterion_6_no_pnbp_suite():
    rng = random.Random(20242)
    for _ in range(200):
        game = rand_oracle_game(rng, want_pnbp=False)
        eq = solve(game)
        vp = step_eval(game.payoff, game.prior)
        assert eq.value == vp
        assert eq.signal.support == (game.prior,)
        assert verify_equilibrium(game, eq).ok
        values = exhaustive_search(game, max_messages=4, max_grid=12)
        assert all(v <= vp for v in values)
    print("PASS criterion 6: 200 random no-PNBP games: no-information "
          "equilibrium with value v(prior); no oracle value exceeds it")


def test_criterion_7_comparative_statics_suite():
    rng = random.Random(20243)
    checked = 0
    while checked < 200:
        game = rand_pnbp_game(rng)
        bigger = add_message(
            game.structure, "extra", IntervalUnion.from_pairs([(rand_interior(rng), 1)])
        )
        assert geq_lc(bigger, game.structure).holds
        lo_val = equilibrium_value(game).value
        hi_val = equilibrium_value(GameSpec(game.payoff, game.prior, bigger)).value
        assert hi_val >= lo_val
        checked += 1
    reversed_count = 0
    while reversed_count < 50:
        hi, lo = rand_structure(rng), rand_structure(rng)
        if geq_lc(hi, lo).holds:
            continue
        inst = separating_instance(hi, lo)
        assert inst.value_lo > inst.sup_value_hi  # strict reversal
        reversed_count += 1
    print("PASS criterion 7: lc-dominance monotone on 200 ordered pairs; "
          "strict value reversal on 50 unordered pairs")


def test_criterion_8_receiver_optimal_suite(m31):
    receiver_optimal = VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_1", IntervalUnion.from_pairs([(1, 1)])),
        )
    )
    rng = random.Random(20244)
    checked = 0
    while checked < 100:
        payoff = rand_payoff(rng)
        prior = rand_interior(rng)
        if not step_eval(payoff, prior) < step_eval(payoff, F(1)):
            continue
        game = GameSpec(payoff, prior, receiver_optimal)
        eq = solve(game)
        assert eq.signal.support == (F(0), F(1))  # full information
        assert verify_equilibrium(game, eq).ok
        checked += 1
    # under the three-action structure the indicator instance pools instead
    s_star = F(1, 2)
    indicator = StepFunction((F(0), s_star), (F(0), F(1)))
    game = GameSpec(indicator, s_star / 2, m31)
    eq = solve(game)
    assert eq.signal.support != (F(0), F(1))
    assert eq.value == (s_star / 2) / s_star == F(1, 2)
    print("PASS criterion 8: receiver-optimal fixture yields full information "
          "on 100 random payoffs; three-action structure pools with value prior/s*")


def test_criterion_9_separation_implies_lc():
    rng = random.Random(20245)
    for _ in range(200):
        base = rand_structure(rng)
        if rng.random() < 0.5:
            hi = add_message(
                base, "extra", IntervalUnion.from_pairs([(rand_interior(rng), 1)])
            )
            lo = base
        else:
            hi, lo = rand_structure(rng), base
        if geq_sep(hi, lo).holds:
            assert geq_lc(hi, lo).holds
    sep_a = VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_a", IntervalUnion.from_pairs([(F(1, 2), 1)])),
        )
    )
    sep_b = VerifStructure(
        (
            ("m_L", IntervalUnion.from_pairs([(0, 1)])),
            ("m_b", IntervalUnion.from_pairs([(F(1, 2), F(3, 4))])),
        )
    )
    assert geq_lc(sep_a, sep_b).holds and geq_lc(sep_b, sep_a).holds
    assert not geq_sep(sep_a, sep_b).holds and not geq_sep(sep_b, sep_a).holds
    print("PASS criterion 9: separation implies lc on 200 random pairs; "
          "stored counterexample is lc-equivalent but sep-incomparable")


def test_criterion_10_concavification_suite():
    # every drawn payoff, and for every fourth one the same pieces with their
    # values shuffled: the skepticism-adjusted payoff need not be monotone
    rng, shuffler = random.Random(20246), random.Random(20247)
    steps = []
    for k in range(1000):
        steps.append(rand_payoff(rng))
        if k % 4 == 0:
            values = list(steps[-1].values)
            shuffler.shuffle(values)
            steps.append(StepFunction(steps[-1].breakpoints, tuple(values)))
    assert sum(not f.is_non_decreasing for f in steps) > 150
    for f in steps:
        envelope = cav(f)
        grid = []
        for lo, hi, _ in f.pieces():
            grid.extend([lo, (lo + hi) / 2])
        grid.append(F(1))
        for x in grid:
            assert pl_eval(envelope, x) >= step_eval(f, x)
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(envelope.vertices, envelope.vertices[1:])
        ]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        candidates = piece_ends(f)
        for x in grid:
            assert pl_eval(envelope, x) == discrete_hull_value(candidates, x)
    print("PASS criterion 10: 1000 random payoffs and 250 shuffled step functions: envelope majorizes, "
          "slopes strictly decrease, agrees with the discrete hull, exactly")
