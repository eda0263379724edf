"""Integer kernels on rationals, each against the Fraction arithmetic it stands in for."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from disclosuregame import gamefile
from disclosuregame.rationals import Coordinates, from_pair, not_right_turn, parse_pair, parse_rational

from reference_paths import fraction_str_parse, fraction_str_parse_rational

BIG = 10**39


def outcome(fn, text):
    try:
        return "value", fn(text)
    except ValueError as exc:
        return "error", str(exc)


def newer_python_only(text) -> bool:
    """Whether only a newer Python's Fraction(str) reads text: underscores between digits (3.11) or spaces around the slash (3.12)."""
    if not isinstance(text, str):
        return False
    num, slash, den = text.strip().partition("/")
    return "_" in text or bool(slash) and (num != num.rstrip() or den != den.lstrip())


def expected_outcome(read, text):
    """read's outcome on text, but for a string that only newer Pythons read: Python 3.10's malformed-literal error.

    The digit cap and the refusal of decimal forms come first, as before.
    """
    got = outcome(read, text)
    if newer_python_only(text) and not (got[0] == "error" and ("digits" in got[1] or "must be exact" in got[1])):
        return "error", f"malformed rational {text!r}: Invalid literal for Fraction: {text.strip()!r}"
    return got


@pytest.mark.parametrize("text", [
    " 3/4 ", "+3/4", "-0/5", "007/3", "1/0", "3/-4", "٣/٤", "1_000/3",
    "3 / 4", "3/", "/4", "+", "-", "--3/4", "+-3/4", "1/00", "12", "-12", "0", "0/7", "4/6",
    "0.5", "1e3", "", " ", "\t5/2\n", "²/3", "3/²", str(BIG) + "/" + str(BIG + 1),
])
def test_parse_matches_fraction_str(text):
    assert outcome(parse_rational, text) == expected_outcome(fraction_str_parse_rational, text)


def test_underscores_and_spaces_around_the_slash_are_refused_on_every_version():
    for text in ("1_0/3", "10/3_0", "1 /3", "1/ 3", "1\u2007/\u20073"):
        with pytest.raises(ValueError, match="malformed rational .*: Invalid literal for Fraction"):
            parse_pair(text)
    assert parse_pair(" 10/30 ") == (1, 3)


DIGITS = st.sampled_from("0123456789" * 4 + "٣٤" + "０９" + "²" + "_")
PART = st.one_of(
    st.text(DIGITS, max_size=5),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 10**6)),
    st.builds(lambda k: "7" * k, st.integers(38, 42)),  # around the 40-digit cap
)
SPACE = st.sampled_from(["", "", " ", "\t", "\u2007"])
TEXT = st.builds(
    lambda s1, sign, num, s2, slash, s3, den, s4: f"{s1}{sign}{num}{s2}{slash}{s3}{den}{s4}",
    SPACE, st.sampled_from(["", "", "+", "-", "--", "+-"]), PART, SPACE, st.sampled_from(["/", "/", ""]), SPACE,
    st.one_of(PART, st.sampled_from(["0", "00", "-4", "+4", "", "1.5", "2e3"])), SPACE,
)


@given(st.one_of(
    TEXT,
    st.integers(-(10**42), 10**42),
    st.sampled_from([True, False, None, 0.5, [1], {"n": 1}]),
))
@settings(max_examples=600, deadline=None)
def test_pair_reader_matches_fraction_str_reader(obj):
    # the file reader's pairs against its Fraction(str) predecessor, cap
    # included: the same pair or the same error text, but for the strings
    # that only newer Pythons read
    def as_pair(read):
        def run(text):
            q = read(text)
            return q if isinstance(q, tuple) else (q.numerator, q.denominator)
        return run

    assert outcome(as_pair(gamefile._parse), obj) == expected_outcome(as_pair(fraction_str_parse), obj)


@given(st.integers(-(10**45), 10**45), st.integers(1, 10**45))
@settings(max_examples=200, deadline=None)
def test_pairs_are_canonical_and_build_the_same_fraction(n, d):
    q = F(n, d)
    pair = parse_pair(f"{n}/{d}")
    assert pair == (q.numerator, q.denominator)
    built = from_pair(*pair)
    assert type(built) is F and built == q and hash(built) == hash(q) and repr(built) == repr(q)
    assert built + 1 == q + 1 and built * q == q * q and str(built) == str(q)


def test_parse_rejects_booleans_and_non_strings():
    for obj in (True, False, 0.5, None, [1]):
        with pytest.raises(ValueError, match="must be a string"):
            parse_rational(obj)
    assert parse_rational(7) == 7 and type(parse_rational(7)) is F


FLOAT_TIES = [F(BIG, BIG + 1), F(BIG + 1, BIG + 2), F(BIG + 2, BIG + 3), F(1, BIG), F(1, BIG + 1)]


def test_float_tied_values_are_ordered_exactly():
    a, b = F(BIG, BIG + 1), F(BIG + 1, BIG + 2)
    assert a.numerator / a.denominator == b.numerator / b.denominator and a < b
    assert Coordinates({(q.numerator, q.denominator): q for q in [b, a, b, a]}).points == (a, b)
    table = Coordinates({(q.numerator, q.denominator): q for q in FLOAT_TIES})
    assert table.points == tuple(sorted(FLOAT_TIES))
    assert [table.position(q) for q in FLOAT_TIES] == [2 * table.points.index(q) for q in FLOAT_TIES]


@given(st.lists(
    st.one_of(
        st.fractions(),
        st.sampled_from(FLOAT_TIES),
        st.builds(F, st.integers(-(10**400), 10**400), st.integers(1, 10**40)),
    ),
    max_size=40,
))
@settings(max_examples=100, deadline=None)
def test_coordinates_sort_exactly(values):
    # the values in [0,1], with 0 and 1, as a coordinate table: sorted, distinct, ranked
    unit = {(q.numerator, q.denominator): q for q in (F(0), F(1), *values) if 0 <= q <= 1}
    table = Coordinates(unit)
    assert table.points == tuple(sorted(unit.values()))
    assert all(table.rank[pair] == table.points.index(q) for pair, q in unit.items())


COORD = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    # 39-digit denominators, mostly coprime to each other
    st.builds(lambda n, d: F(n % (d + 1), d), st.integers(0, 10**40), st.integers(10**38, 10**39)),
)
POINT = st.tuples(COORD, st.one_of(COORD, st.fractions(min_value=-5, max_value=5, max_denominator=50)))


def ints(pt):
    (x, y) = pt
    return x.numerator, x.denominator, y.numerator, y.denominator


@given(POINT, POINT, POINT)
@settings(max_examples=150, deadline=None)
def test_int_turns_match_fraction_cross_products(o, a, p):
    (ox, oy), (ax, ay), (px, py) = o, a, p
    assert not_right_turn(ints(o), ints(a), ints(p)) == ((ax - ox) * (py - oy) - (ay - oy) * (px - ox) >= 0)


def test_int_turns_on_collinear_points():
    pts = [(F(k, BIG + 1), F(3 * k, BIG + 1) + F(1, 7)) for k in range(3)]
    assert not_right_turn(*map(ints, pts))
    below = (pts[2][0], pts[2][1] - F(1, BIG))
    assert not not_right_turn(ints(pts[0]), ints(pts[1]), ints(below))


def test_int_turns_on_pairwise_coprime_39_digit_coordinates():
    rng = random.Random(41)
    for _ in range(300):
        dens: list[int] = []
        while len(dens) < 6:  # each coordinate over its own denominator, pairwise coprime
            den = 10**38 + rng.randrange(10**37)
            if all(gcd(den, d) == 1 for d in dens):
                dens.append(den)
        o, a, p = ((F(rng.randrange(1, dx), dx), F(rng.randrange(1, dy), dy)) for dx, dy in zip(dens[::2], dens[1::2]))
        (ox, oy), (ax, ay), (px, py) = o, a, p
        assert not_right_turn(ints(o), ints(a), ints(p)) == ((ax - ox) * (py - oy) - (ay - oy) * (px - ox) >= 0)
