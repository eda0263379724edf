"""Structures built from endpoint pairs: the file reader's path, against structures built from support objects.

A loaded structure carries only its coordinate table and spans until something
reads ``messages``; these tests check that it equals the structure a library
caller builds from the same supports, that merging a union's intervals on
positions agrees with IntervalUnion's own merge, that the support objects it
builds on first access are the ones the caller would have passed, and that
no subcommand builds them (solve --json --svg, oracle, compare, optimal and
witness, each through cli.main).
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from disclosuregame import GameSpec, IntervalUnion, SupportInterval, VerifStructure, mandatory_disclosure, solve, thresholds
from disclosuregame import cli, gamefile, verifiability
from disclosuregame.equilibrium import verify_equilibrium
from disclosuregame.figures import render_game_svg
from disclosuregame.gamefile import game_from_obj, game_to_obj, load_game
from disclosuregame.grid import _interim_values

from genutil import (
    rand_coprime_game,
    rand_interval_game,
    rand_oracle_game,
    rand_payoff,
    rand_point,
    rand_rich_structure,
    rand_sep_pair,
)
from reference_paths import slice_interim_values


def rich_games(seed: int, count: int) -> list[GameSpec]:
    rng = random.Random(seed)
    games = []
    for k in range(count):
        structure = mandatory_disclosure() if k % 10 == 0 else rand_rich_structure(rng)
        games.append(GameSpec(rand_payoff(rng), rand_point(rng), structure))
    return games


def float_tied_game() -> GameSpec:
    # 39-digit endpoints that share a float, met in descending order
    lo, hi = F(10**38 + 7, 3 * 10**38 + 1), F(10**38 + 8, 3 * 10**38 + 1)
    assert float(lo) == float(hi) and lo < hi
    structure = VerifStructure((
        ("m_0", IntervalUnion.from_pairs([(0, 1)])),
        ("m_hi", IntervalUnion.from_pairs([(hi, 1)])),
        ("m_lo", IntervalUnion.from_pairs([(lo, hi, False), (F(1, 2), F(3, 4))])),
    ))
    return GameSpec(rand_payoff(random.Random(3)), F(1, 3), structure)


def assert_same_structure(loaded: VerifStructure, built: VerifStructure) -> None:
    assert loaded._table.pairs == built._table.pairs
    assert loaded._table.points == built._table.points
    assert loaded._spans == built._spans
    if not built.full_verifiability:  # the sweep's coverage check fails under mandatory disclosure
        assert loaded._best_minima == built._best_minima
    assert loaded.messages == built.messages
    assert loaded == built


def test_loaded_structures_equal_library_built_ones():
    games = rich_games(1801, 300) + [rand_coprime_game(random.Random(1802), k) for k in (2, 5, 9)]
    games.append(float_tied_game())
    seen = {"union": 0, "degenerate": 0, "open": 0, "full": 0}
    for game in games:
        loaded = game_from_obj(json.loads(json.dumps(game_to_obj(game))))
        assert_same_structure(loaded.structure, game.structure)
        assert loaded == game
        ivs = [iv for _, supp in game.structure.messages for iv in supp.intervals]
        seen["union"] += any(len(supp.intervals) > 1 for _, supp in game.structure.messages)
        seen["degenerate"] += any(iv.lo == iv.hi for iv in ivs)
        seen["open"] += any(not iv.hi_closed for iv in ivs)
        seen["full"] += game.structure.full_verifiability
    assert all(seen.values()), seen


def raw_support(rng: random.Random) -> list[tuple[F, F, bool]]:
    """Intervals as a file may list them: unsorted, overlapping, touching, repeated or nested."""
    ivs = []
    for _ in range(rng.randint(1, 4)):
        a, b = sorted(rand_point(rng, (2, 3, 4, 6)) for _ in range(2))
        ivs.append((a, b, a == b or rng.random() < 0.6))
        if rng.random() < 0.3:
            ivs.append(ivs[rng.randrange(len(ivs))])
        if rng.random() < 0.3 and b < 1:  # a touching neighbour
            ivs.append((b, min(F(1), b + F(1, 4)), True))
    rng.shuffle(ivs)
    return ivs


def test_unions_merge_on_positions_as_interval_union_merges():
    rng = random.Random(1803)
    merged = 0
    for _ in range(400):
        supports = [("m_0", [(F(0), F(1), True)])] + [(f"m_{i}", raw_support(rng)) for i in range(1, rng.randint(2, 4))]
        obj = {"messages": [
            {"name": name, "support": [{"lo": str(lo), "hi": str(hi), "hi_closed": c} for lo, hi, c in ivs]}
            for name, ivs in supports
        ]}
        game_obj = {"prior": "1/2", "payoff": {"breakpoints": ["0"], "values": ["1"]}, "structure": obj}
        loaded = game_from_obj(game_obj).structure
        built = VerifStructure(tuple(
            (name, IntervalUnion(tuple(SupportInterval(lo, hi, c) for lo, hi, c in ivs))) for name, ivs in supports
        ))
        assert_same_structure(loaded, built)
        merged += sum(len(ivs) for _, ivs in supports) > len(loaded._spans)
    assert merged > 100


def write_games(tmp_path, games: list[GameSpec]) -> list:
    paths = []
    for k, game in enumerate(games):
        path = tmp_path / f"game{k}.json"
        path.write_text(json.dumps(game_to_obj(game)))
        paths.append(path)
    return paths


def count_support_objects(monkeypatch) -> list:
    built = []
    for cls in (verifiability.SupportInterval, verifiability.IntervalUnion):
        init = cls.__post_init__

        def counted(self, init=init):
            built.append(type(self).__name__)
            init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


def test_solve_json_svg_builds_no_support_objects(monkeypatch, tmp_path):
    paths = write_games(tmp_path, [rand_interval_game(random.Random(1804), 60)] + rich_games(1805, 40))
    built = count_support_objects(monkeypatch)
    for path in paths:
        game = load_game(str(path))
        eq = solve(game)
        assert verify_equilibrium(game, eq).ok
        render_game_svg(game, eq)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(path), "--json", "--svg", str(tmp_path / "out.svg")]) == 0
        assert built == []
    # the counter counts: reading messages builds the objects
    assert load_game(str(paths[0])).structure.messages and built


def test_oracle_builds_no_support_objects(monkeypatch, tmp_path):
    # the search reads names, minima and availability from the table and
    # spans, as verify does, never from the structure's messages
    rng = random.Random(1809)
    games = [rand_oracle_game(rng, want_pnbp=k % 2 == 0, max_grid=20) for k in range(12)] + rich_games(1810, 12)
    paths = write_games(tmp_path, games)
    built = count_support_objects(monkeypatch)
    searched = 0
    for path in paths:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["oracle", str(path), "--max-messages", "8", "--max-grid", "81"])
        searched += code != 2
        assert built == []
    assert searched >= 12
    assert load_game(str(paths[0])).structure.messages and built


def comparative_runs(tmp_path) -> dict[str, list[list[str]]]:
    """Command lines for each comparative subcommand, on rand_sep_pair's pairs and a pair whose high side is receiver-optimal."""
    rng = random.Random(1811)
    pairs = [rand_sep_pair(rng) for _ in range(40)]
    pairs.append((VerifStructure((("m_0", IntervalUnion.from_pairs([(0, 1)])), ("m_1", IntervalUnion.from_pairs([(1, 1)])))),
                  thresholds([F(1, 2)])))
    paths = []
    for k, pair in enumerate(pairs):
        paths.append([])
        for side, structure in zip(("hi", "lo"), pair):
            path = tmp_path / f"{side}{k}.json"
            path.write_text(json.dumps(gamefile.structure_to_obj(structure)))
            paths[-1].append(str(path))
    runs = {"optimal": []}
    for k, (hi, lo) in enumerate(paths):
        json_flag = ["--json"] if k % 2 else []
        for relation in ("lc", "sep"):
            runs.setdefault(f"compare-{relation}", []).append(["compare", hi, lo, "--relation", relation, *json_flag])
        runs.setdefault("witness", []).append(["witness", hi, lo, *json_flag])
        runs["optimal"] += [["optimal", hi, which, *json_flag] for which in ("--sender", "--receiver")]
    return runs


@pytest.mark.parametrize("command", ["compare-lc", "compare-sep", "optimal", "witness"])
def test_comparative_subcommands_build_no_support_objects(command, monkeypatch, tmp_path):
    # lowest-consistent sets, the separation comparison and its witness, and
    # the witness game's JSON read minima and intervals from the table and
    # spans; each subcommand both holds (exit 0) and fails (exit 1) here
    runs = comparative_runs(tmp_path)[command]
    built = count_support_objects(monkeypatch)
    codes = set()
    for argv in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.add((argv[2] if command == "optimal" else command, cli.main(argv)))
        assert built == [], argv
    kinds = ("--sender", "--receiver") if command == "optimal" else (command,)
    assert codes == {(kind, code) for kind in kinds for code in (0, 1)}
    assert gamefile.load_structure(runs[-1][1]).messages and built


def test_linear_fill_matches_slice_fill():
    rng = random.Random(1806)
    games = rich_games(1807, 150) + [rand_interval_game(rng, 40), float_tied_game()]
    for game in games:
        for _ in range(3):
            beliefs = {}
            for name, supp in game.structure.messages:
                lo, hi = supp.hull_bounds()
                beliefs[name] = rng.choice((lo, hi, (lo + hi) / 2, lo + rand_point(rng) * (hi - lo)))
            assert _interim_values(game, beliefs) == slice_interim_values(game, beliefs)


def test_each_distinct_string_is_parsed_once(monkeypatch):
    parsed = []
    parse_pair = gamefile.parse_pair
    monkeypatch.setattr(gamefile, "parse_pair", lambda text: parsed.append(text) or parse_pair(text))
    obj = game_to_obj(rand_interval_game(random.Random(1808), 30))
    game_from_obj(obj)
    strings = [obj["prior"], *obj["payoff"]["breakpoints"], *obj["payoff"]["values"]]
    strings += [iv[key] for m in obj["structure"]["messages"] for iv in m["support"] for key in ("lo", "hi")]
    assert len(strings) > len(set(strings)) and sorted(parsed) == sorted(set(strings))
