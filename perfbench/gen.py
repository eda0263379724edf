"""Seeded inputs for the benchmark's workloads.

The benchmark owns this generator: it shares no code with the test suite, so
edits to the tests cannot shift the inputs.  Every workload draws from
``random.Random(f"<workload>:<seed>")``, so one seed always yields the same
games and the same files, byte for byte.  The program only ever sees the JSON
files written by ``write_inputs``; it reads them through ``load_game`` and
``load_structure``.

Why each workload exists (the load model is the same for all three: one
process, one thread, a closed loop in which the next ``cli.main`` call starts
only after the previous one returned):

``ladder``
    ``solve <file> --json --svg <out>`` on PNBP games with interval supports,
    M = P in {50, 100, 200} messages and payoff pieces, every rational over
    997.  It is the only workload where the best-credible-type queries
    (``verifiability.max_min_available``) dominate ``solve`` and the grid
    deviation search (``oracle.best_deviation``) dominates
    ``verify_equilibrium``, so a sweep over sorted endpoints, computing each
    per-game intermediate once, or dropping the chord re-search shows here.
    It never reaches the exhaustive search.  M = 400 is left out: one op
    there takes over 20 s on the current code.

``oracle_desk``
    ``oracle <file>`` (4 messages, 12 grid points at most) on 480 desk-scale
    games, half with PNBP and half without: at most 3 messages and 3 payoff
    pieces, small denominators, a critical grid of 9 or 11 points.  Nearly
    all time is in the exhaustive search and its many nested
    ``verify_equilibrium`` / ``w_beta_step`` / ``discrete_cav`` calls.
    Best-message queries cover 3 messages at most, so a verifiability sweep
    should change nothing here; the same ``best_deviation`` runs on tiny grids
    many times, against one large grid per op on ``ladder``.

``mixed_small``
    Many small ops in fixed proportions per round of ten: four ``solve``
    (text mode) on rich games (union supports, degenerate points, right-open
    ends, full verifiability, games without PNBP), two ``compare --relation
    lc``, two ``compare --relation sep``, one ``witness`` and one
    ``optimal``.  Per-call overhead dominates: JSON parsing, dataclass
    construction, the comparative pre-orders, the full-verifiability and
    no-PNBP paths, printing.  Work added to every game's set-up (an analysis
    cache, input caps) shows up here as a regression, while large-M
    algorithmic gains should leave it flat.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ZERO, ONE = Fraction(0), Fraction(1)

Interval = tuple[Fraction, Fraction, bool]  # (lo, hi, hi_closed); lo is always attained


@dataclass(frozen=True)
class Structure:
    messages: tuple[tuple[str, tuple[Interval, ...]], ...]
    full: bool = False


@dataclass(frozen=True)
class Game:
    prior: Fraction
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    structure: Structure


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call: its argument list and what the checker needs."""

    kind: str  # solve_json | solve_text | oracle | compare_lc | compare_sep | optimal_* | witness
    argv: tuple[str, ...]
    inputs: tuple  # Game, or (Structure, Structure), or Structure
    rung: int = 0  # ladder size M, 0 elsewhere


LADDER_RUNGS = (50, 100, 200)
LADDER_DEN = 997
LADDER_PRIOR = Fraction(498, 997)
DESK_DENOMS = (2, 3, 4, 6)
RICH_DENOMS = (2, 3, 4, 5, 6, 8, 10, 12)


# ---------------------------------------------------------------------------
# JSON in the program's file format
# ---------------------------------------------------------------------------

def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def structure_obj(st: Structure) -> dict:
    return {
        "full_verifiability": st.full,
        "messages": [
            {
                "name": name,
                "support": [{"lo": fmt(lo), "hi": fmt(hi), "hi_closed": closed} for lo, hi, closed in ivs],
            }
            for name, ivs in st.messages
        ],
    }


def game_obj(game: Game) -> dict:
    return {
        "prior": fmt(game.prior),
        "payoff": {
            "breakpoints": [fmt(b) for b in game.breakpoints],
            "values": [fmt(v) for v in game.values],
        },
        "structure": structure_obj(game.structure),
    }


def game_from_obj(obj: dict) -> Game:
    """Read a game file's JSON object back into the benchmark's own model."""
    st = obj["structure"]
    messages = tuple(
        (m["name"], tuple((Fraction(iv["lo"]), Fraction(iv["hi"]), iv.get("hi_closed", True)) for iv in m["support"]))
        for m in st.get("messages", [])
    )
    return Game(
        Fraction(obj["prior"]),
        tuple(Fraction(b) for b in obj["payoff"]["breakpoints"]),
        tuple(Fraction(v) for v in obj["payoff"]["values"]),
        Structure(messages, st.get("full_verifiability", False)),
    )


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _point(rng: random.Random, denoms) -> Fraction:
    den = rng.choice(denoms)
    return Fraction(rng.randint(0, den), den)


def _interior(rng: random.Random, denoms) -> Fraction:
    while True:
        x = _point(rng, denoms)
        if ZERO < x < ONE:
            return x


def _payoff(rng: random.Random, pieces: int, cut) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Non-decreasing step payoff with `pieces` pieces; `cut()` draws an interior breakpoint."""
    cuts: set[Fraction] = set()
    while len(cuts) < pieces - 1:
        cuts.add(cut())
    bps = (ZERO,) + tuple(sorted(cuts))
    level = Fraction(rng.randint(0, 2))
    vals = []
    for _ in bps:
        vals.append(level)
        level += rng.choice((Fraction(1, 2), ONE, Fraction(2), Fraction(3)))
    return bps, tuple(vals)


def v_at(game: Game, x: Fraction) -> Fraction:
    """The payoff at x: pieces are left-closed."""
    return game.values[bisect_right(game.breakpoints, x) - 1]


def contains(ivs: tuple[Interval, ...], s: Fraction) -> bool:
    return any(lo <= s <= hi if closed else lo <= s < hi for lo, hi, closed in ivs)


def lc_types(st: Structure) -> set[Fraction]:
    """Support minima: the lowest-consistent types apart from the identity family."""
    return {min(lo for lo, _, _ in ivs) for _, ivs in st.messages}


def has_pnbp(game: Game) -> bool:
    vp = v_at(game, game.prior)
    if game.structure.full:
        return v_at(game, ONE) > vp
    return any(v_at(game, t) > vp for t in lc_types(game.structure))


def base_points(game: Game) -> set[Fraction]:
    pts = {ZERO, ONE, game.prior, *game.breakpoints}
    for _, ivs in game.structure.messages:
        for lo, hi, _ in ivs:
            pts.update((lo, hi))
    return pts


# ---------------------------------------------------------------------------
# ladder: interval supports over 997
# ---------------------------------------------------------------------------

def ladder_game(rng: random.Random, m: int) -> Game:
    """M = P = m: a base message on [0,1] plus m - 1 closed intervals, a third of them up to 1.

    The cost of the deviation search depends severalfold on where the prior
    sits and grows with the grid, so the prior is LADDER_PRIOR on every rung,
    interior support endpoints are distinct and the payoff breaks at m - 1 of
    them: each rung then has one grid size, whatever the seed.
    """
    den = LADDER_DEN
    to_one = (m - 1) // 3
    interior = [k for k in range(1, den) if Fraction(k, den) != LADDER_PRIOR]
    while True:
        pts = [Fraction(k, den) for k in rng.sample(interior, 2 * (m - 1) - to_one)]
        cuts = rng.sample(pts, m - 1)
        msgs = [("m_0", ((ZERO, ONE, True),))]
        for i in range(1, m):
            if i <= to_one:
                lo, hi = pts.pop(), ONE
            else:
                lo, hi = sorted((pts.pop(), pts.pop()))
            msgs.append((f"m_{i}", ((lo, hi, True),)))
        bps, vals = _payoff(rng, m, iter(cuts).__next__)
        game = Game(LADDER_PRIOR, bps, vals, Structure(tuple(msgs)))
        if has_pnbp(game):
            return game


# ---------------------------------------------------------------------------
# desk-scale games for the exhaustive oracle
# ---------------------------------------------------------------------------

def _simple_structure(rng: random.Random, max_messages: int, denoms) -> Structure:
    """Thresholds, an interval partition, or a base message plus closed intervals."""
    style = rng.choice(("thresholds", "partition", "intervals"))
    k = rng.randint(1, max_messages - 1)
    if style == "thresholds":
        levels: set[Fraction] = set()
        while len(levels) < k:
            levels.add(_interior(rng, denoms))
        msgs = [("m_0", ((ZERO, ONE, True),))]
        msgs += [(f"m_{i + 1}", ((lv, ONE, True),)) for i, lv in enumerate(sorted(levels))]
        return Structure(tuple(msgs))
    if style == "partition":
        cuts: set[Fraction] = set()
        while len(cuts) < k:
            cuts.add(_interior(rng, denoms))
        edges = [ZERO, *sorted(cuts), ONE]
        return Structure(
            tuple(
                (f"m_{i}", ((a, b, i == len(edges) - 2),))
                for i, (a, b) in enumerate(zip(edges, edges[1:]))
            )
        )
    msgs = [("m_0", ((ZERO, ONE, True),))]
    for i in range(k):
        a = _interior(rng, denoms)
        b = rng.choice((ONE, max(a, _interior(rng, denoms))))
        msgs.append((f"m_{i + 1}", ((a, b, True),)))
    return Structure(tuple(msgs))


def desk_game(rng: random.Random) -> Game:
    bps, vals = _payoff(rng, rng.randint(1, 3), lambda: _interior(rng, DESK_DENOMS))
    return Game(_interior(rng, DESK_DENOMS), bps, vals, _simple_structure(rng, 3, DESK_DENOMS))


# ---------------------------------------------------------------------------
# rich games and structures for mixed_small
# ---------------------------------------------------------------------------

def _rich_union(rng: random.Random) -> tuple[Interval, ...]:
    """1-3 intervals: degenerate points, right-open ends, closed pieces."""
    ivs = []
    for _ in range(rng.randint(1, 3)):
        a = _point(rng, RICH_DENOMS)
        style = rng.random()
        if style < 0.15:
            ivs.append((a, a, True))
            continue
        b = _point(rng, RICH_DENOMS)
        a, b = min(a, b), max(a, b)
        ivs.append((a, b, a == b or style >= 0.45))
    return tuple(ivs)


def rich_structure(rng: random.Random) -> Structure:
    msgs = [("m_0", ((ZERO, ONE, True),))]
    msgs += [(f"m_{i + 1}", _rich_union(rng)) for i in range(rng.randint(1, 3))]
    return Structure(tuple(msgs), rng.random() < 0.15)


def rich_game(rng: random.Random) -> Game:
    bps, vals = _payoff(rng, rng.randint(1, 5), lambda: _interior(rng, RICH_DENOMS))
    return Game(_interior(rng, RICH_DENOMS), bps, vals, rich_structure(rng))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

LADDER_PER_RUNG = 3
DESK_PER_CELL = 30
SEARCH_BANDS = (48, 64, 115, 160, 241, 356, 672)
MIXED_ROUNDS = 100


def ladder_ops(rng: random.Random) -> list[Op]:
    """Rounds of one game per rung, smallest first; LADDER_PER_RUNG games per rung."""
    games = {m: [ladder_game(rng, m) for _ in range(LADDER_PER_RUNG)] for m in LADDER_RUNGS}
    return [
        Op("solve_json", ("solve", "{0}", "--json", "--svg", "{svg}"), (games[m][r],), m)
        for r in range(LADDER_PER_RUNG)
        for m in LADDER_RUNGS
    ]


def search_size(game: Game) -> int:
    """Messaging profiles over 3-point grid supports around the prior.

    The exhaustive oracle's time follows this count closely (log-log
    correlation 0.96 over 1,400 games), so desk games are drawn by it.
    """
    base = sorted(base_points(game))
    grid = sorted(set(base) | {(a + b) / 2 for a, b in zip(base, base[1:])})
    avail = [sum(contains(ivs, s) for _, ivs in game.structure.messages) for s in grid]
    p = game.prior
    return sum(
        avail[i] * avail[j] * avail[k]
        for i in range(len(grid)) for j in range(i + 1, len(grid)) for k in range(j + 1, len(grid))
        if grid[i] < p < grid[k]
    )


def desk_ops(rng: random.Random) -> list[Op]:
    """DESK_PER_CELL games with and without PNBP in each band of `search_size`.

    Games have a critical grid of 9 or 11 points.  The oracle's cost varies
    fiftyfold between games, so every seed gets the same number of games in
    each cost band (the bands are the octiles of `search_size` over such
    games), and the ops come in rounds of one game per cell, so that a run
    that stops on a round boundary has measured the same mix whatever its
    length.
    """
    cells = {(band, pnbp): [] for band in range(len(SEARCH_BANDS) + 1) for pnbp in (True, False)}
    while any(len(c) < DESK_PER_CELL for c in cells.values()):
        game = desk_game(rng)
        if 2 * len(base_points(game)) - 1 not in (9, 11):
            continue
        key = (bisect_left(SEARCH_BANDS, search_size(game)), has_pnbp(game))
        if len(cells[key]) < DESK_PER_CELL:
            cells[key].append(game)
    return [Op("oracle", ("oracle", "{0}"), (c[r],)) for r in range(DESK_PER_CELL) for c in cells.values()]


def mixed_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for r in range(MIXED_ROUNDS):
        ops += [Op("solve_text", ("solve", "{0}"), (rich_game(rng),)) for _ in range(4)]
        for relation in ("lc", "lc", "sep", "sep"):
            pair = (rich_structure(rng), rich_structure(rng))
            ops.append(Op(f"compare_{relation}", ("compare", "{0}", "{1}", "--relation", relation), pair))
        while True:
            hi, lo = _simple_structure(rng, 4, RICH_DENOMS), _simple_structure(rng, 4, RICH_DENOMS)
            if not lc_types(hi) >= lc_types(lo):
                break
        ops.append(Op("witness", ("witness", "{0}", "{1}"), (hi, lo)))
        side = ("--receiver", "--sender")[r % 2]
        ops.append(Op(f"optimal_{side[2:]}", ("optimal", "{0}", side), (rich_structure(rng),)))
    return ops


WORKLOADS = {"ladder": ladder_ops, "oracle_desk": desk_ops, "mixed_small": mixed_ops}


def make_ops(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def write_inputs(ops: list[Op], outdir: Path) -> list[list[str]]:
    """Write every op's input files under `outdir`; return each op's argv.

    Files are numbered by first use, so the same ops give the same bytes.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    paths: dict[int, str] = {}
    argvs = []
    for k, op in enumerate(ops):
        files = []
        for item in op.inputs:
            key = id(item)
            if key not in paths:
                obj = game_obj(item) if isinstance(item, Game) else structure_obj(item)
                path = outdir / f"in{len(paths):04d}.json"
                path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
                paths[key] = str(path)
            files.append(paths[key])
        svg = str(outdir / f"out{k:04d}.svg")
        argvs.append([a.format(*files, svg=svg) for a in op.argv])
    return argvs
