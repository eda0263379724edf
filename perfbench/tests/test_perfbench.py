"""Tests of the benchmark itself: seeded inputs, output checks and self times.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from disclosuregame import cli  # noqa: E402


def _files(workload: str, seed: int, outdir: Path) -> dict[str, bytes]:
    gen.write_inputs(gen.make_ops(workload, seed), outdir)
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_one_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    assert first == _files(workload, 7, tmp_path / "b")
    assert first != _files(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_program_reads_the_generated_files(workload, tmp_path):
    from disclosuregame.gamefile import load_game, load_structure

    ops = gen.make_ops(workload, 3)
    argvs = gen.write_inputs(ops, tmp_path)
    for op, argv in list(zip(ops, argvs))[:20]:
        paths = [a for a in argv if a.endswith(".json")]
        for item, path in zip(op.inputs, paths):
            if isinstance(item, gen.Game):
                game = load_game(path)
                assert game.prior == item.prior
                assert len(game.structure.messages) == len(item.structure.messages)
            else:
                assert len(load_structure(path).messages) == len(item.messages)


def test_ladder_rungs_have_one_grid_size_per_rung():
    sizes = {}
    for seed in (1, 2):
        for op in gen.make_ops("ladder", seed):
            sizes.setdefault(op.rung, set()).add(reference.expected(op.inputs[0]).grid_points)
    assert sorted(sizes) == list(gen.LADDER_RUNGS)
    assert all(len(s) == 1 for s in sizes.values())


def _answer(op: gen.Op, tmp_path: Path):
    """A real answer from the program for one op, captured as the benchmark captures it."""
    argv = gen.write_inputs([op], tmp_path)[0]
    _, _, code, out, err = run.run_op(cli, argv)
    svg = tmp_path / "out0000.svg"
    return code, out, err, svg.read_text() if svg.exists() else None


def _first(workload: str, kind: str, seed: int = 2) -> gen.Op:
    return next(op for op in gen.make_ops(workload, seed) if op.kind == kind)


def _check(op: gen.Op, code, out, err, figure):
    item = op.inputs[0]
    exp = reference.expected(item) if isinstance(item, gen.Game) else None
    return reference.check_op(op, exp, code, out, err, figure)


def _bump(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_solve_json_check_rejects_wrong_answers(tmp_path):
    op = gen.Op("solve_json", ("solve", "{0}", "--json", "--svg", "{svg}"),
                (gen.ladder_game(random.Random(0), 20),), 20)
    code, out, err, figure = _answer(op, tmp_path)
    assert _check(op, code, out, err, figure) is None
    obj = json.loads(out)
    wrong_value = dict(obj, value=gen.fmt(reference.parse_q(obj["value"]) + 1))
    assert _check(op, 0, json.dumps(wrong_value), err, figure)
    wrong_split = dict(obj, s_minus=obj["s_plus"], s_plus=obj["s_minus"])
    assert _check(op, 0, json.dumps(wrong_split), err, figure)
    assert _check(op, 0, json.dumps(dict(obj, pnbp=False)), err, figure)
    assert _check(op, 2, out, err, figure)
    assert _check(op, code, out, err, None)
    assert _check(op, code, out, err, figure[:-8])


def test_solve_text_check_rejects_wrong_answers(tmp_path):
    op = _first("mixed_small", "solve_text")
    code, out, err, _ = _answer(op, tmp_path)
    assert _check(op, code, out, err, None) is None
    value_line = out.splitlines()[1]
    value = reference.parse_q(value_line.split()[1])
    assert _check(op, code, _bump(out, value_line, value_line.replace(gen.fmt(value), gen.fmt(value + 1), 1)), err, None)
    assert _check(op, code, _bump(out, "weight ", "weight 1"), err, None)
    tags = ("(unique)", "(sender_preferred)")
    tag = next(t for t in tags if t in value_line)
    assert _check(op, code, _bump(out, tag, tags[1 - tags.index(tag)]), err, None)
    assert _check(op, code, "", err, None)


def test_oracle_check_rejects_wrong_answers(tmp_path):
    op = _first("oracle_desk", "oracle")
    code, out, err, _ = _answer(op, tmp_path)
    assert _check(op, code, out, err, None) is None
    analytic = out.splitlines()[0].split(": ")[1]
    wrong = gen.fmt(reference.parse_q(analytic) + 1)
    assert _check(op, code, out.replace(analytic, wrong), err, None)
    assert _check(op, code, _bump(out, "oracle values: {", f"oracle values: {{{wrong}, "), err, None)
    assert _check(op, 1, out.replace("agreement: yes", "agreement: no"), err, None)


@pytest.mark.parametrize("kind", ["compare_lc", "compare_sep", "optimal_receiver", "optimal_sender"])
def test_verdict_checks_reject_the_opposite_verdict(kind, tmp_path):
    for seed in range(2, 12):
        op = _first("mixed_small", kind, seed)
        code, out, err, _ = _answer(op, tmp_path / str(seed))
        assert _check(op, code, out, err, None) is None
        flipped = 1 - code
        if kind.startswith("compare"):
            relation = kind[len("compare_"):]
            fake = f"relation {relation}: holds\n" if code else f"relation {relation}: fails, witness type 1/2\n"
        else:
            side = kind[len("optimal_"):]
            fake = f"{side}-optimal: {'no' if code else 'yes'}\n"
        assert _check(op, flipped, fake, err, None)
        assert _check(op, flipped, out, err, None)


def test_witness_check_rejects_wrong_answers(tmp_path):
    op = _first("mixed_small", "witness")
    code, out, err, _ = _answer(op, tmp_path)
    assert _check(op, code, out, err, None) is None
    obj = json.loads(out)
    assert _check(op, code, json.dumps(dict(obj, prior="0")), err, None)
    assert _check(op, code, out, err.replace("value_lo = ", "value_lo = 1"), None)


def test_self_times_of_a_synthetic_tree_sum_to_the_root():
    # root [0, 10] with children [1, 4] and [5, 9]; [2, 3] under the first
    spans = [
        (0, -1, "cli.main", 0.0, 10.0, None),
        (0, 0, "equilibrium.solve", 1.0, 4.0, None),
        (0, 1, "verifiability.max_min_available", 2.0, 3.0, None),
        (0, 0, "equilibrium.verify_equilibrium", 5.0, 9.0, True),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0]
    assert sum(selfs) == spans[0][4] - spans[0][3]


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    import disclosuregame.equilibrium as equilibrium

    original = equilibrium.solve
    op = _first("mixed_small", "solve_text")
    argv = gen.write_inputs([op], tmp_path)[0]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert equilibrium.solve is not original and cli.solve is equilibrium.solve
        tr.op = 0
        _, _, code, out, _ = run.run_op(cli, argv)
    finally:
        tr.uninstall()
    assert equilibrium.solve is original and cli.solve is original
    names = [s[2] for s in tr.spans]
    assert names.count("cli.main") == 1 and "equilibrium.solve" in names
    root = names.index("cli.main")
    selfs = tracer.self_times(tr.spans)
    start, end = tr.spans[root][3], tr.spans[root][4]
    assert sum(selfs) == pytest.approx(end - start)
    assert all(s[1] < j for j, s in enumerate(tr.spans))


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
