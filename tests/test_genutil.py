"""The seeded generators refuse sizes they cannot produce, and keep the properties they promise."""

import random
from math import gcd

import pytest

from disclosuregame.gamefile import MAX_RATIONAL_DIGITS, game_from_obj, game_to_obj

from genutil import rand_coprime_game, rand_interval_game, rand_payoff_pieces


def test_rand_payoff_pieces_refuses_more_pieces_than_cuts():
    # 5 pieces need 4 distinct interior cuts k/4; only 1/4, 2/4, 3/4 exist
    with pytest.raises(ValueError):
        rand_payoff_pieces(random.Random(1), 5, 4)
    with pytest.raises(ValueError):
        rand_interval_game(random.Random(1), 1600)
    assert len(rand_payoff_pieces(random.Random(1), 4, 4).breakpoints) == 4


def test_rand_coprime_game_denominators():
    game = rand_coprime_game(random.Random(5), 12)
    rationals = [game.prior, *game.payoff.breakpoints[1:]]
    for _, supp in game.structure.messages[1:]:
        rationals += [q for iv in supp.intervals for q in (iv.lo, iv.hi)]
    dens = [q.denominator for q in rationals]
    assert len(dens) == 1 + 11 + 2 * 11
    for i, a in enumerate(dens):
        assert 10**38 <= a < 10**39
        assert all(gcd(a, b) == 1 for b in dens[i + 1:])
    for q in rationals:
        assert len(str(q.numerator)) <= MAX_RATIONAL_DIGITS and len(str(q.denominator)) <= MAX_RATIONAL_DIGITS
        assert 0 < q < 1
    assert game_from_obj(game_to_obj(game)) == game
