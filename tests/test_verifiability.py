"""Message availability, support minima, lowest-consistent sets, builders."""

import random
from fractions import Fraction as F

import pytest

from disclosuregame import (
    ConstructionError,
    DomainError,
    IntervalUnion,
    PreconditionError,
    StepFunction,
    UnknownMessageError,
    VerifStructure,
    add_message,
    cheap_talk,
    full_verif,
    lowest_consistent_set,
    mandatory_disclosure,
    messages_at,
    min_inverse,
    partition,
    skeptical_type_map,
    thresholds,
)
from disclosuregame.verifiability import (
    SupportInterval,
)

from genutil import rand_rich_structure, rand_structure
from reference_paths import pointwise_g, swept_g

M31 = VerifStructure(
    (
        ("m_L", IntervalUnion.from_pairs([(0, 1)])),
        ("m_M", IntervalUnion.from_pairs([(F(1, 2), 1)])),
    )
)
M43 = add_message(cheap_talk(("m_0",)), "m_H", IntervalUnion.from_pairs([(F(9, 10), 1)]))


class TestIntervalUnion:
    def test_canonical_merge(self):
        u = IntervalUnion.from_pairs([(F(1, 2), F(3, 4), False), (F(3, 4), 1)])
        assert u.intervals == (SupportInterval(F(1, 2), F(1), True),)
        # the merged interval keeps the open or closed end of whichever reaches furthest
        for pairs, merged in (
            ([(0, F(1, 2)), (F(1, 4), F(3, 4), False)], (0, F(3, 4), False)),
            ([(0, F(3, 4), False), (F(1, 4), F(3, 4))], (0, F(3, 4), True)),
            ([(0, F(3, 4)), (F(1, 4), F(3, 4), False)], (0, F(3, 4), True)),
            ([(0, F(1, 2), False), (F(1, 2), F(1, 2))], (0, F(1, 2), True)),
        ):
            assert IntervalUnion.from_pairs(pairs).intervals == (SupportInterval(*merged),)
            assert IntervalUnion.from_pairs(pairs[::-1]).intervals == (SupportInterval(*merged),)

    def test_disjoint_kept_sorted(self):
        u = IntervalUnion.from_pairs([(F(1, 2), F(3, 4)), (0, F(1, 4))])
        assert [iv.lo for iv in u.intervals] == [F(0), F(1, 2)]

    def test_degenerate_point(self):
        u = IntervalUnion.from_pairs([(1, 1)])
        assert u.intervals == (SupportInterval(F(1), F(1)),)
        assert u.hull_bounds() == (F(1), F(1))

    def test_degenerate_open_rejected(self):
        with pytest.raises(ConstructionError):
            SupportInterval(F(1, 2), F(1, 2), False)

    def test_complement_pieces(self):
        u = IntervalUnion.from_pairs([(F(1, 2), F(3, 4))])
        assert u.complement_pieces() == [
            (F(0), True, F(1, 2), False),
            (F(3, 4), False, F(1), True),
        ]

    def test_complement_of_full_interval_is_empty(self):
        assert IntervalUnion.from_pairs([(0, 1)]).complement_pieces() == []


class TestMessagesAt:
    def test_three_action_low_type(self):
        assert messages_at(M31, F(1, 3)) == {"m_L"}

    def test_three_action_threshold_type(self):
        assert messages_at(M31, F(1, 2)) == {"m_L", "m_M"}

    def test_cheap_talk_everywhere(self):
        ct = cheap_talk(("a", "b"))
        for s in (F(0), F(1, 3), F(1)):
            assert messages_at(ct, s) == {"a", "b"}

    def test_identity_included_under_full_verifiability(self):
        assert messages_at(mandatory_disclosure(), F(1, 2)) == {"id:1/2"}

    def test_domain_error(self):
        with pytest.raises(DomainError):
            messages_at(M31, F(3, 2))


class TestMinInverse:
    def test_threshold_message(self):
        assert min_inverse(M31, "m_M") == F(1, 2)

    def test_base_message(self):
        assert min_inverse(M31, "m_L") == 0

    def test_counterexample_high_message(self):
        assert min_inverse(M43, "m_H") == F(9, 10)

    def test_identity(self):
        assert min_inverse(mandatory_disclosure(), "id:2/3") == F(2, 3)

    def test_unknown(self):
        with pytest.raises(UnknownMessageError):
            min_inverse(M31, "nope")


class TestLowestConsistentSet:
    def test_three_action(self):
        assert lowest_consistent_set(M31).types == (F(0), F(1, 2))

    def test_cheap_talk(self):
        assert lowest_consistent_set(cheap_talk(("a", "b"))).types == (F(0),)

    def test_certifiable_thresholds(self):
        levels = [F(1, 4), F(1, 2), F(5, 6)]
        assert lowest_consistent_set(thresholds(levels)).types == (F(0), *levels)

    def test_full_verifiability_flag(self):
        lset = lowest_consistent_set(mandatory_disclosure())
        assert lset.all_of_unit_interval and lset.issuperset(lowest_consistent_set(thresholds([F(17, 31)])))

    def test_always_contains_zero(self):
        rng = random.Random(3)
        for _ in range(50):
            assert F(0) in lowest_consistent_set(rand_structure(rng)).types


class TestSkepticalTypeMap:
    def test_three_action(self):
        assert skeptical_type_map(M31) == StepFunction((F(0), F(1, 2)), (F(0), F(1, 2)))

    def test_counterexample(self):
        assert skeptical_type_map(M43) == StepFunction((F(0), F(9, 10)), (F(0), F(9, 10)))

    def test_mandatory_disclosure_is_identity(self):
        # under full verifiability g is the identity, read off no sweep;
        # it is not a step function, so skeptical_type_map refuses
        for structure in (mandatory_disclosure(), full_verif(M31)):
            with pytest.raises(PreconditionError):
                skeptical_type_map(structure)
            for s in (F(0), F(1, 3), F(1, 2), F(1)):
                assert swept_g(structure, s) == s == pointwise_g(structure, s)

    def test_dominated_by_type_with_equality_on_lowest_consistent(self):
        rng = random.Random(5)
        for _ in range(60):
            structure = rand_structure(rng)
            lset = set(lowest_consistent_set(structure).types)
            grid = sorted(
                set(structure.support_endpoints())
                | {F(k, 16) for k in range(17)}
            )
            for s in grid:
                g = swept_g(structure, s)
                assert g == pointwise_g(structure, s)
                assert g <= s
                assert (g == s) == (s in lset)

    def test_breakpoints_within_support_endpoints(self):
        rng = random.Random(9)
        for _ in range(60):
            structure = rand_structure(rng)
            g = skeptical_type_map(structure)
            assert set(g.breakpoints) <= set(structure.support_endpoints()) | {F(0)}


class TestEndpointSweep:
    """The sweep behind skeptical_type_map and the level table, against direct evaluation."""

    def test_matches_pointwise_and_midpoint_references(self):
        rng = random.Random(2024)
        for _ in range(3000):
            structure = rand_rich_structure(rng)
            ends = structure.support_endpoints()
            if structure.full_verifiability:
                with pytest.raises(PreconditionError):
                    skeptical_type_map(structure)
            else:
                # g sampled at every gap's midpoint, and at 1
                on_gaps = [pointwise_g(structure, (a + b) / 2) for a, b in zip(ends, ends[1:])]
                assert skeptical_type_map(structure) == StepFunction(ends, (*on_gaps, pointwise_g(structure, F(1))))
            points = [F(0), F(1), *ends, *((a + b) / 2 for a, b in zip(ends, ends[1:]))]
            for s in points:
                want = s if structure.full_verifiability else pointwise_g(structure, s)
                assert swept_g(structure, s) == want

    def test_point_values_differ_from_gaps(self):
        # a support closed at an interior right end, a degenerate point, a
        # right-open end: g at the endpoint is not the value on either side
        structure = VerifStructure(
            (
                ("m_0", IntervalUnion.from_pairs([(0, 1)])),
                ("m_a", IntervalUnion.from_pairs([(F(1, 4), F(1, 2))])),
                ("m_b", IntervalUnion.from_pairs([(F(3, 4), F(3, 4))])),
                ("m_c", IntervalUnion.from_pairs([(F(1, 8), F(7, 8), False)])),
            )
        )
        expect = {
            F(1, 16): 0, F(1, 8): F(1, 8), F(1, 4): F(1, 4), F(1, 2): F(1, 4),
            F(5, 8): F(1, 8), F(3, 4): F(3, 4), F(7, 8): 0, F(15, 16): 0, F(1): 0,
        }
        for s, g in expect.items():
            assert swept_g(structure, s) == g == pointwise_g(structure, s)

    def test_domain_error(self):
        for structure in (M31, mandatory_disclosure()):
            for s in (F(-1, 2), F(3, 2)):
                with pytest.raises(DomainError):
                    messages_at(structure, s)


class TestBuilders:
    def test_thresholds_reproduces_three_action(self):
        t = thresholds([F(1, 2)], names=["m_L", "m_M"])
        assert t.messages == M31.messages

    def test_add_message_reproduces_counterexample(self):
        assert M43.names == ("m_0", "m_H")
        assert min_inverse(M43, "m_H") == F(9, 10)

    def test_coarsest_partition(self):
        p = partition([(0, 1)])
        assert lowest_consistent_set(p).types == (F(0),)

    def test_partition_lowest_consistent_is_cell_starts(self):
        p = partition([(0, F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), 1)])
        assert lowest_consistent_set(p).types == (F(0), F(1, 3), F(2, 3))

    def test_partition_must_tile(self):
        with pytest.raises(ConstructionError):
            partition([(0, F(1, 3)), (F(1, 2), 1)])

    def test_thresholds_must_ascend(self):
        with pytest.raises(ConstructionError):
            thresholds([F(1, 2), F(1, 4)])

    def test_coverage_enforced(self):
        with pytest.raises(ConstructionError):
            VerifStructure((("m", IntervalUnion.from_pairs([(F(1, 2), 1)])),))
        # uncovered only at 1, and on an interior gap
        with pytest.raises(ConstructionError, match="cover all of"):
            VerifStructure((("m", IntervalUnion.from_pairs([(0, 1, False)])),))
        with pytest.raises(ConstructionError, match="cover all of"):
            VerifStructure(
                (
                    ("a", IntervalUnion.from_pairs([(0, F(1, 3), False)])),
                    ("b", IntervalUnion.from_pairs([(F(1, 2), 1)])),
                )
            )

    def test_reserved_identity_prefix(self):
        with pytest.raises(ConstructionError):
            VerifStructure((("id:0", IntervalUnion.from_pairs([(0, 1)])),))

    def test_full_verif_keeps_messages(self):
        fv = full_verif(M31)
        assert fv.full_verifiability and fv.messages == M31.messages

    def test_add_message_grows_lowest_consistent_set(self):
        rng = random.Random(21)
        for _ in range(40):
            structure = rand_structure(rng)
            lo = F(rng.randint(1, 7), 8)
            bigger = add_message(structure, "extra", IntervalUnion.from_pairs([(lo, 1)]))
            before = set(lowest_consistent_set(structure).types)
            after = set(lowest_consistent_set(bigger).types)
            assert after >= before
