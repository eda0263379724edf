"""Metamorphic relations of the solver at full size, past the exhaustive search's range.

The search checks the solver on at most 8 messages.  These relations need no
second solver, so they check it on interval games of 50 and 200 messages, a
200-message game whose rationals share no denominator, and 100 small games on
union supports (right-open ends, points, full verifiability) whose payoff
jumps at a union message's minimum above the prior, so that most of them split:

- a positive affine map of the payoff's values maps the value alike, and
  keeps the signal and whether PNBP holds;
- reordering the messages leaves the equilibrium's JSON unchanged;
- renaming the messages keeps the value, the signal and whether PNBP holds;
- a copy of a message's support under a fresh name keeps them too.
"""

import random
from fractions import Fraction

import pytest

from disclosuregame import GameSpec, StepFunction, VerifStructure, pnbp, solve
from disclosuregame.gamefile import equilibrium_to_obj
from genutil import rand_coprime_game, rand_interior, rand_interval_game, rand_payoff, rand_rich_structure


def with_messages(game: GameSpec, messages) -> GameSpec:
    return GameSpec(game.payoff, game.prior, VerifStructure(tuple(messages), game.structure.full_verifiability))


def outcome(game: GameSpec) -> tuple:
    """The value, the signal and whether PNBP holds."""
    eq = solve(game)
    return eq.value, eq.signal, pnbp(game).holds


def check_relations(game: GameSpec, rng: random.Random) -> None:
    eq = solve(game)
    holds = pnbp(game).holds
    value, signal = eq.value, eq.signal

    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    shift = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    payoff = StepFunction(game.payoff.breakpoints, tuple(scale * v + shift for v in game.payoff.values))
    assert outcome(GameSpec(payoff, game.prior, game.structure)) == (scale * value + shift, signal, holds)

    messages = list(game.structure.messages)
    reordered = with_messages(game, rng.sample(messages, len(messages)))
    assert equilibrium_to_obj(solve(reordered), pnbp(reordered).holds) == equilibrium_to_obj(eq, holds)

    # fresh names in an order unrelated to the old one
    fresh = [f"r{k}" for k in rng.sample(range(len(messages)), len(messages))]
    assert outcome(with_messages(game, [(new, support) for new, (_, support) in zip(fresh, messages)])) == (
        value, signal, holds)

    _, support = rng.choice(messages)
    copied = messages[:]
    copied.insert(rng.randint(0, len(messages)), ("copy", support))
    assert outcome(with_messages(game, copied)) == (value, signal, holds)


@pytest.mark.parametrize("make", [
    lambda rng: rand_interval_game(rng, 50),
    lambda rng: rand_interval_game(rng, 200),
    lambda rng: rand_coprime_game(rng, 200),
], ids=["interval-50", "interval-200", "coprime-200"])
def test_relations_on_large_games(make):
    rng = random.Random(13)
    check_relations(make(rng), rng)


def union_game(rng: random.Random) -> GameSpec:
    """A rand_rich_structure game whose payoff jumps at the minimum of a union message, above the prior.

    That message proves news better than the prior, so PNBP holds and the
    signal splits, unless no message has its minimum inside (0, 1).
    """
    structure = rand_rich_structure(rng)
    payoff = rand_payoff(rng)
    minima = sorted({supp.minimum for _, supp in structure.messages if 0 < supp.minimum < 1})
    if not minima:
        return GameSpec(payoff, rand_interior(rng), structure)
    jump, rise = rng.choice(minima), rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
    bps = sorted({*payoff.breakpoints, jump})
    payoff = StepFunction(tuple(bps), tuple(payoff(b) + (rise if b >= jump else 0) for b in bps))
    return GameSpec(payoff, jump * Fraction(rng.randint(1, 3), 4), structure)


def test_relations_on_union_supports():
    rng = random.Random(29)
    split = 0
    for _ in range(100):
        game = union_game(rng)
        check_relations(game, rng)
        split += len(solve(game).signal.support) > 1
    assert split > 50  # 71 of the 100 games split
