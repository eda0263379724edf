"""The seeded generators refuse sizes they cannot produce."""

import random

import pytest

from genutil import rand_interval_game, rand_payoff_pieces


def test_rand_payoff_pieces_refuses_more_pieces_than_cuts():
    # 5 pieces need 4 distinct interior cuts k/4; only 1/4, 2/4, 3/4 exist
    with pytest.raises(ValueError):
        rand_payoff_pieces(random.Random(1), 5, 4)
    with pytest.raises(ValueError):
        rand_interval_game(random.Random(1), 1600)
    assert len(rand_payoff_pieces(random.Random(1), 4, 4).breakpoints) == 4
