"""Seeded random instance generators shared by the unit and acceptance suites.

Generated structures keep every support right-closed (or right-open only where
another message takes over, as in partitions), so the skeptical type map stays
upper semicontinuous and the solver's admissibility assumptions hold.
"""

import random
from fractions import Fraction
from math import gcd

from disclosuregame import (
    GameSpec,
    IntervalUnion,
    StepFunction,
    VerifStructure,
    partition,
    pnbp,
    thresholds,
)

DENOMS = (2, 3, 4, 5, 6, 8, 10, 12)


def rand_point(rng: random.Random, denoms=DENOMS) -> Fraction:
    den = rng.choice(denoms)
    return Fraction(rng.randint(0, den), den)


def rand_interior(rng: random.Random, denoms=DENOMS) -> Fraction:
    while True:
        x = rand_point(rng, denoms)
        if 0 < x < 1:
            return x


def rand_payoff(rng: random.Random, max_pieces=5, denoms=DENOMS) -> StepFunction:
    n = rng.randint(1, max_pieces)
    cuts = set()
    while len(cuts) < n - 1:
        cuts.add(rand_interior(rng, denoms))
    bps = [Fraction(0)] + sorted(cuts)
    vals = []
    level = Fraction(rng.randint(0, 2))
    for _ in bps:
        vals.append(level)
        level += rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)))
    return StepFunction(tuple(bps), tuple(vals))


def rand_structure(rng: random.Random, max_messages=4, denoms=DENOMS) -> VerifStructure:
    style = rng.choice(("thresholds", "partition", "intervals"))
    if style == "thresholds":
        k = rng.randint(1, max_messages - 1)
        levels = set()
        while len(levels) < k:
            levels.add(rand_interior(rng, denoms))
        return thresholds(sorted(levels))
    if style == "partition":
        k = rng.randint(1, max_messages - 1)
        cuts = set()
        while len(cuts) < k:
            cuts.add(rand_interior(rng, denoms))
        edges = [Fraction(0)] + sorted(cuts) + [Fraction(1)]
        return partition(list(zip(edges, edges[1:])))
    # base message everywhere plus closed-interval messages
    msgs = [("m_0", IntervalUnion.from_pairs([(0, 1)]))]
    for i in range(rng.randint(1, max_messages - 1)):
        a = rand_interior(rng, denoms)
        b = rng.choice((Fraction(1), max(a, rand_interior(rng, denoms))))
        msgs.append((f"m_{i + 1}", IntervalUnion.from_pairs([(a, b)])))
    return VerifStructure(tuple(msgs))


def rand_game(rng: random.Random, max_pieces=5, max_messages=4, denoms=DENOMS) -> GameSpec:
    return GameSpec(
        rand_payoff(rng, max_pieces, denoms),
        rand_interior(rng, denoms),
        rand_structure(rng, max_messages, denoms),
    )


def rand_pnbp_game(rng: random.Random, **kwargs) -> GameSpec:
    while True:
        game = rand_game(rng, **kwargs)
        if pnbp(game).holds:
            return game


def rand_no_pnbp_game(rng: random.Random, **kwargs) -> GameSpec:
    while True:
        game = rand_game(rng, **kwargs)
        if not pnbp(game).holds:
            return game


def rand_union(rng: random.Random, allow_open=True, allow_degenerate=True) -> IntervalUnion:
    """Union supports exercising the full interval vocabulary.

    Degenerate points and right-open ends are representable but invisible to
    the left-closed step representation; the solver must handle them through
    pointwise-exact evaluation.
    """
    ivs = []
    for _ in range(rng.randint(1, 3)):
        a = rand_point(rng)
        style = rng.random()
        if allow_degenerate and style < 0.15:
            ivs.append((a, a, True))
            continue
        b = rand_point(rng)
        a, b = min(a, b), max(a, b)
        if a == b:
            ivs.append((a, b, True))
        elif allow_open and style < 0.45:
            ivs.append((a, b, False))
        else:
            ivs.append((a, b, True))
    return IntervalUnion.from_pairs(ivs)


def rand_rich_structure(rng: random.Random, allow_full_verif=True) -> VerifStructure:
    """Base coverage message plus union-supported extras; sometimes the identity family."""
    from disclosuregame import full_verif

    msgs = [("m_0", IntervalUnion.from_pairs([(0, 1)]))]
    for i in range(rng.randint(1, 3)):
        msgs.append((f"m_{i + 1}", rand_union(rng)))
    structure = VerifStructure(tuple(msgs))
    if allow_full_verif and rng.random() < 0.15:
        structure = full_verif(structure)
    return structure


def rand_sep_pair(rng: random.Random) -> tuple[VerifStructure, VerifStructure]:
    """An ordered pair (hi, lo) for the separation pre-order.

    lo is a rich or plain random structure, or mandatory disclosure; it may
    gain a message named to sort before identity names, and full
    verifiability.  hi is often lo plus at most one union message, so that
    the comparison holds, otherwise an unrelated draw; it may gain the point
    supports {0} and {1}, and full verifiability of its own.
    """
    from disclosuregame import mandatory_disclosure

    def draw():
        style = rng.random()
        if style < 0.1:
            return mandatory_disclosure()
        return rand_rich_structure(rng) if style < 0.7 else rand_structure(rng)

    lo = draw()
    extra = (("a_0", rand_union(rng)),) if rng.random() < 0.2 else ()
    lo = VerifStructure(lo.messages + extra, lo.full_verifiability or rng.random() < 0.25)
    base = lo if rng.random() < 0.45 else draw()
    extra = tuple((f"x_{i}", rand_union(rng)) for i in range(rng.randint(0, 1)) if base is lo)
    for name, point in (("p_0", 0), ("p_1", 1)):
        if rng.random() < 0.3:
            extra += ((name, IntervalUnion.from_pairs([(point, point)])),)
    hi = VerifStructure(base.messages + extra, base.full_verifiability or rng.random() < 0.15)
    return hi, lo


def rand_interval_game(rng: random.Random, messages: int, denom: int = 997) -> GameSpec:
    """A PNBP game with `messages` closed-interval supports and as many payoff pieces.

    One base message covers [0,1]; the others are random intervals.  Every
    rational has denominator `denom`, so endpoints rarely coincide.
    """
    while True:
        msgs = [("m_0", IntervalUnion.from_pairs([(0, 1)]))]
        for i in range(1, messages):
            a, b = sorted(rand_point(rng, (denom,)) for _ in range(2))
            msgs.append((f"m_{i}", IntervalUnion.from_pairs([(a, b)])))
        game = GameSpec(
            rand_payoff_pieces(rng, messages, denom),
            rand_interior(rng, (denom,)),
            VerifStructure(tuple(msgs)),
        )
        if pnbp(game).holds:
            return game


def rand_payoff_pieces(rng: random.Random, pieces: int, denom: int) -> StepFunction:
    """Non-decreasing step payoff with exactly `pieces` pieces, breakpoints over `denom`.

    Needs `pieces - 1` distinct interior cuts k/denom, and only `denom - 1`
    exist, so `pieces > denom` raises ValueError instead of searching forever.
    """
    if pieces > denom:
        raise ValueError(f"{pieces} pieces need {pieces - 1} distinct cuts; denominator {denom} has {denom - 1}")
    cuts = set()
    while len(cuts) < pieces - 1:
        cuts.add(rand_interior(rng, (denom,)))
    vals = [Fraction(rng.randint(0, 2))]
    for _ in range(pieces - 1):
        vals.append(vals[-1] + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))))
    return StepFunction((Fraction(0), *sorted(cuts)), tuple(vals))


def rand_coprime_game(rng: random.Random, messages: int) -> GameSpec:
    """A PNBP game like rand_interval_game whose rationals share no denominator.

    Every support endpoint, every payoff breakpoint and the prior gets its own
    denominator near 10**38 (39 digits, inside gamefile.MAX_RATIONAL_DIGITS),
    pairwise coprime with every other one, so a common denominator of the
    game's rationals has thousands of digits.
    """
    used = 1  # product of the denominators handed out so far

    def fresh() -> Fraction:
        nonlocal used
        den = 10**38 + rng.randrange(10**37)
        while gcd(den, used) != 1:
            den += 1
        used *= den
        while True:
            num = rng.randrange(1, den)
            if gcd(num, den) == 1:
                return Fraction(num, den)

    while True:
        msgs = [("m_0", IntervalUnion.from_pairs([(0, 1)]))]
        for i in range(1, messages):
            msgs.append((f"m_{i}", IntervalUnion.from_pairs([sorted((fresh(), fresh()))])))
        vals = [Fraction(rng.randint(0, 2))]
        for _ in range(messages - 1):
            vals.append(vals[-1] + rng.choice((Fraction(1, 2), Fraction(1), Fraction(2))))
        payoff = StepFunction((Fraction(0), *sorted(fresh() for _ in range(messages - 1))), tuple(vals))
        game = GameSpec(payoff, fresh(), VerifStructure(tuple(msgs)))
        if pnbp(game).holds:
            return game


SMALL = dict(max_pieces=3, max_messages=2, denoms=(2, 3, 4, 6))


def critical_grid(game: GameSpec) -> tuple[Fraction, ...]:
    """The oracle's critical grid: 0, 1, the prior, the payoff breakpoints and support endpoints, and the midpoint of each gap."""
    return tuple(Fraction(n, d) for n, d in game._oracle_grid[1])


def rand_oracle_game(rng: random.Random, want_pnbp: bool, max_grid=12) -> GameSpec:
    """Desk-scale instances within the exhaustive oracle's bounds."""
    while True:
        game = rand_game(rng, **SMALL)
        if pnbp(game).holds != want_pnbp:
            continue
        if len(critical_grid(game)) <= max_grid:
            return game
