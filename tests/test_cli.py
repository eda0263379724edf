"""Command-line interface: commands, exit codes, JSON round-trips, SVG output."""

import argparse
import contextlib
import gc
import json
import os
import pathlib
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest

from disclosuregame import cli, oracle
from disclosuregame.cli import ORACLE_CEILINGS, main
from disclosuregame.equilibrium import _best_message
from disclosuregame.gamefile import (
    MAX_MESSAGES,
    MAX_PAYOFF_PIECES,
    MAX_RATIONAL_DIGITS,
    equilibrium_to_obj,
    game_from_obj,
    game_to_obj,
    load_game,
    load_structure,
    structure_from_obj,
    structure_to_obj,
)
from disclosuregame import (
    Equilibrium, GameFileError, GameSpec, IntervalUnion, Signal, StepFunction, VerifStructure, parse_rational, pnbp, solve,
    step_eval,
)
from disclosuregame.figures import render_game_svg

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GAME_FIXTURES = ("fig2_cheap_talk", "fig2_more_verifiable", "mandatory_disclosure", "three_action")


def fx(name: str) -> str:
    return str(FIXTURES / name)


class TestSolveCommand:
    def test_three_action(self, capsys):
        assert main(["solve", fx("three_action.json")]) == 0
        out = capsys.readouterr().out
        assert "value: 2/3" in out
        assert "posterior 1/2" in out
        assert "m_M = 1/2" in out

    def test_counterexample_value(self, capsys):
        assert main(["solve", fx("fig2_more_verifiable.json")]) == 0
        assert "value: 5/3" in capsys.readouterr().out

    def test_cheap_talk_value(self, capsys):
        assert main(["solve", fx("fig2_cheap_talk.json")]) == 0
        out = capsys.readouterr().out
        assert "value: 2 (sender_preferred)" in out
        assert "pnbp: no" in out

    def test_unverified_solution_is_an_internal_error(self, monkeypatch, capsys):
        # a solver fault must not reach the output: under PNBP the babbling
        # profile (no acquisition, the prior's best message believed to be
        # the prior, skeptical beliefs elsewhere) fails condition (1)
        def babbling(game):
            p, m0 = game.prior, _best_message(game.structure, game.prior)
            beliefs = {**game.structure._minima, m0: p}
            return Equilibrium(Signal((p,), (F(1),)), {p: m0}, beliefs, step_eval(game.payoff, p))

        monkeypatch.setattr(cli, "solve", babbling)
        assert main(["solve", fx("three_action.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: solution failed verification: profitable deviation: value 0 below 2/3,"
            " the witness signal's value (not necessarily the best response)\n"
        )

    def test_json_matches_schema(self, capsys):
        assert main(["solve", fx("three_action.json"), "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["value"] == "2/3"
        assert obj["pnbp"] is True
        assert obj["s_minus"] == "0" and obj["s_plus"] == "1/2"
        assert {e["posterior"]: e["message"] for e in obj["signal"]} == {
            "0": "m_L",
            "1/2": "m_M",
        }

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        assert main(["solve", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.json"]) == 2

    def test_invalid_game_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "prior": "0.5",
            "payoff": {"breakpoints": ["0"], "values": ["1"]},
            "structure": {"messages": [{"name": "m", "support": [{"lo": "0", "hi": "1"}]}]},
        }))
        assert main(["solve", str(bad)]) == 2
        assert "prior" in capsys.readouterr().err


class TestGoldenOutputs:
    """Pinned outputs of every game fixture.

    Each `golden/<fixture>.txt` is the stdout of `disclosuregame solve <fixture>`;
    `.json` and `.svg` are the stdout and the figure of
    `disclosuregame solve <fixture> --json --svg <fixture>.svg`.
    """

    @pytest.mark.parametrize("stem", GAME_FIXTURES)
    def test_solve_text_json_and_svg(self, stem, tmp_path, capsys):
        assert main(["solve", fx(f"{stem}.json")]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{stem}.txt").read_text()
        svg = tmp_path / f"{stem}.svg"
        assert main(["solve", fx(f"{stem}.json"), "--json", "--svg", str(svg)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"{stem}.json").read_text()
        assert svg.read_bytes() == (GOLDEN / f"{stem}.svg").read_bytes()

    # `golden/commands.json` maps each command line (fixture file names
    # standing for their paths) to its exit code, stdout and stderr: oracle
    # on every game fixture, optimal both ways on every structure fixture,
    # and compare (lc and sep) and witness on fixture pairs, all with --json.
    COMMANDS = json.loads((GOLDEN / "commands.json").read_text())

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_json_commands(self, command, capsys):
        want = self.COMMANDS[command]
        argv = [fx(word) if word.endswith(".json") else word for word in command.split()]
        assert main(argv) == want["exit"]
        assert capsys.readouterr() == (want["stdout"], want["stderr"])


class TestSvg:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["solve", fx("three_action.json"), "--svg", str(a)]) == 0
        assert main(["solve", fx("three_action.json"), "--svg", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_payoff_with_equal_adjacent_values_gives_the_golden_bytes(self, tmp_path, capsys):
        # three_action's payoff with each piece cut in two: the cuts merge
        # away, and the pairs the payoff keeps are those of the merged pieces,
        # so solve --json --svg prints and draws the fixture's golden bytes
        obj = json.loads(pathlib.Path(fx("three_action.json")).read_text())
        obj["payoff"] = {"breakpoints": ["0", "1/5", "2/5", "3/5", "4/5", "9/10"], "values": ["0", "0", "1", "1", "3", "3"]}
        svg = tmp_path / "split.svg"
        assert main(["solve", _write(tmp_path, obj), "--json", "--svg", str(svg)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "three_action.json").read_text()
        assert svg.read_bytes() == (GOLDEN / "three_action.svg").read_bytes()

    def test_contains_expected_elements(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        main(["solve", fx("fig2_more_verifiable.json"), "--svg", str(out)])
        capsys.readouterr()
        text = out.read_text()
        assert text.startswith("<svg")
        assert "stroke-dasharray" in text  # skepticism-adjusted curve
        assert "polyline" in text  # concave envelope
        assert "m_H" in text  # availability bar label
        assert text.count("circle") >= 3  # prior dot plus split dots

    def test_identity_row_for_full_verifiability(self, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        main(["solve", fx("mandatory_disclosure.json"), "--svg", str(out)])
        capsys.readouterr()
        assert "identity" in out.read_text()

    def test_message_named_identity_draws_its_own_support(self):
        # only the identity family of full verifiability gets the dotted bar
        # over [0,1]; a finite message of that name keeps its support [1/2,1]
        structure = VerifStructure((
            ("base", IntervalUnion.from_pairs([(0, 1)])),
            ("identity", IntervalUnion.from_pairs([(F(1, 2), 1)])),
        ))
        game = GameSpec(StepFunction((F(0), F(1, 2)), (F(0), F(1))), F(1, 4), structure)
        svg = render_game_svg(game, solve(game))
        assert 'stroke-dasharray="1,3"' not in svg
        assert '<line x1="340.000" y1="400" x2="620.000" y2="400" stroke="black" stroke-width="2"/>' in svg


class TestCompareCommand:
    def test_holds(self, capsys):
        code = main(["compare", fx("thresholds_half.json"), fx("cheap_talk.json")])
        assert code == 0
        assert "holds" in capsys.readouterr().out

    def test_fails_with_witness(self, capsys):
        code = main(["compare", fx("thresholds_three_quarters.json"), fx("thresholds_half.json")])
        assert code == 1
        assert "witness type 1/2" in capsys.readouterr().out

    def test_sep_relation(self, capsys):
        code = main([
            "compare", fx("sep_interval.json"), fx("sep_threshold.json"), "--relation", "sep",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "separating set" in out

    def test_sep_witness_closed_on_the_right(self, tmp_path, capsys):
        # the separating set (0,1] of type 0: the low structure's m_2 covers
        # [0,1) and its identity message {0}, while the high one has no
        # message whose support is (0,1] or contains it without 0
        hi = _messages(WHOLE, [{"lo": "1/3", "hi": "1"}], [{"lo": "3/5", "hi": "3/5"}])
        lo = {**_messages(WHOLE, [{"lo": "1/8", "hi": "1/3", "hi_closed": False}, {"lo": "1/2", "hi": "1"}],
                          [{"lo": "0", "hi": "1", "hi_closed": False}]), "full_verifiability": True}
        (tmp_path / "hi.json").write_text(json.dumps(hi))
        (tmp_path / "lo.json").write_text(json.dumps(lo))
        assert main(["compare", str(tmp_path / "hi.json"), str(tmp_path / "lo.json"), "--relation", "sep"]) == 1
        assert capsys.readouterr().out == "relation sep: fails at type 0, separating set (0,1]\n"

    def test_sep_json_witness(self, capsys):
        main([
            "compare", fx("sep_interval.json"), fx("sep_threshold.json"),
            "--relation", "sep", "--json",
        ])
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "relation": "sep",
            "holds": False,
            "witness": {
                "type": "1/2",
                "separating_set": [
                    {"lo": "0", "lo_closed": True, "hi": "1/2", "hi_closed": False}
                ],
            },
        }

    def test_accepts_game_file_for_structure(self, capsys):
        code = main(["compare", fx("three_action.json"), fx("cheap_talk.json")])
        assert code == 0


class TestOptimalCommand:
    def test_receiver_optimal_fixture(self, capsys):
        assert main(["optimal", fx("receiver_optimal.json"), "--receiver"]) == 0
        assert "receiver-optimal: yes" in capsys.readouterr().out

    def test_three_action_neither(self, capsys):
        assert main(["optimal", fx("three_action.json"), "--receiver"]) == 1
        assert main(["optimal", fx("three_action.json"), "--sender"]) == 1

    def test_mandatory_disclosure_sender_optimal(self, capsys):
        assert main(["optimal", fx("mandatory_disclosure.json"), "--sender"]) == 0


class TestOracleCommand:
    def test_three_action_agrees(self, capsys):
        assert main(["oracle", fx("three_action.json")]) == 0
        out = capsys.readouterr().out
        assert "analytic value: 2/3" in out and "agreement: yes" in out

    def test_cheap_talk_agrees(self, capsys):
        assert main(["oracle", fx("fig2_cheap_talk.json")]) == 0
        out = capsys.readouterr().out
        assert "analytic value: 2" in out and "agreement: yes" in out

    def test_disagreement_exits_one(self, monkeypatch, capsys):
        # an oracle that misses the analytic value (a fault in either) is
        # reported, not hidden: exit 1, in text and JSON alike
        monkeypatch.setattr(oracle, "exhaustive_search", lambda game, max_messages, max_grid: {F(0)})
        assert main(["oracle", fx("three_action.json")]) == 1
        assert capsys.readouterr().out == "analytic value: 2/3\noracle values: {0}\nagreement: no\n"
        assert main(["oracle", fx("three_action.json"), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"analytic": "2/3", "oracle_values": ["0"], "agree": False}

    def test_oversized_refusal(self, capsys):
        assert main(["oracle", fx("three_action.json"), "--max-grid", "4"]) == 2
        assert "refused" in capsys.readouterr().err

    def test_size_flags_bounded(self, capsys):
        # each flag runs at its ceiling and exits 2 below 1 or above it
        for flag, ceiling in ORACLE_CEILINGS.items():
            option = "--" + flag.replace("_", "-")
            assert main(["oracle", fx("three_action.json"), option, str(ceiling)]) == 0
            assert capsys.readouterr().out.endswith("agreement: yes\n")
            for bad in (0, ceiling + 1):
                assert main(["oracle", fx("three_action.json"), option, str(bad)]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and f"{option} must lie in 1..{ceiling}" in captured.err


class TestWitnessCommand:
    def test_generates_separating_game(self, capsys):
        code = main(["witness", fx("thresholds_three_quarters.json"), fx("thresholds_half.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert "value_lo = 1/2" in captured.err and "sup_value_hi = 1/3" in captured.err
        game = game_from_obj(json.loads(captured.out))
        assert game.prior == F(1, 4)
        assert pnbp(game).holds

    def test_json_mode(self, capsys):
        main(["witness", fx("thresholds_three_quarters.json"), fx("thresholds_half.json"), "--json"])
        obj = json.loads(capsys.readouterr().out)
        assert obj["s_star"] == "1/2"
        assert obj["value_lo"] == "1/2" and obj["sup_value_hi"] == "1/3"
        game_from_obj(obj["game"])

    def test_no_witness_when_ordered(self, capsys):
        code = main(["witness", fx("thresholds_half.json"), fx("cheap_talk.json")])
        assert code == 1
        assert "no witness" in capsys.readouterr().err


class TestRepeatedCalls:
    def test_mixed_sequence_in_one_process(self, capsys):
        # no option of one call may leak into the next, and a bad call must
        # not break later ones
        assert main(["solve", fx("three_action.json"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "2/3"
        assert main(["solve", fx("fig2_cheap_talk.json")]) == 0
        assert capsys.readouterr().out == (
            "pnbp: no\n"
            "value: 2 (sender_preferred)\n"
            "signal:\n"
            "  posterior 1/2  weight 1  -> m_0\n"
            "beliefs:\n"
            "  m_0 = 1/2\n"
            "split points: s- = 1/2  s+ = 1/2\n"
        )
        assert main(["compare", fx("sep_interval.json"), fx("sep_threshold.json"), "--relation", "sep"]) == 1
        assert capsys.readouterr().out == "relation sep: fails at type 1/2, separating set [0,1/2)\n"
        with pytest.raises(SystemExit) as exc:
            main(["solve", fx("three_action.json"), "--relation", "lc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("disclosuregame: error: unrecognized arguments: --relation lc\n")
        assert main(["compare", fx("thresholds_three_quarters.json"), fx("thresholds_half.json")]) == 1
        assert capsys.readouterr().out == "relation lc: fails, witness type 1/2\n"
        assert main(["oracle", fx("three_action.json")]) == 0
        assert capsys.readouterr().out == "analytic value: 2/3\noracle values: {2/3}\nagreement: yes\n"


USAGE = "usage: disclosuregame [-h] {solve,compare,optimal,oracle,witness} ...\n"
TOP_HELP = (
    USAGE + "\n"
    "Solve and compare covert information-acquisition-and-disclosure games.\n"
    "\n"
    "positional arguments:\n"
    "  {solve,compare,optimal,oracle,witness}\n"
    "    solve               solve a game file and report the equilibrium\n"
    "    compare             compare two verifiability structures\n"
    "    optimal             check sender/receiver optimality of a structure\n"
    "    oracle              cross-check the solver against brute force\n"
    "    witness             emit a game separating two lc-unordered structures\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
COMPARE_USAGE = (
    "usage: disclosuregame compare [-h] [--relation {lc,sep}] [--json]\n"
    "                              path_hi path_lo\n"
)
SUBCOMMAND_HELP = {
    "solve": (
        "usage: disclosuregame solve [-h] [--json] [--svg OUT] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json      machine-readable output\n"
        "  --svg OUT   write a figure of the solution\n"
    ),
    "compare": (
        COMPARE_USAGE + "\n"
        "positional arguments:\n"
        "  path_hi\n"
        "  path_lo\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --relation {lc,sep}\n"
        "  --json\n"
    ),
    "optimal": (
        "usage: disclosuregame optimal [-h] (--sender | --receiver) [--json] path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --sender\n"
        "  --receiver\n"
        "  --json\n"
    ),
    "oracle": (
        "usage: disclosuregame oracle [-h] [--max-messages MAX_MESSAGES]\n"
        "                             [--max-grid MAX_GRID] [--json]\n"
        "                             path\n"
        "\n"
        "positional arguments:\n"
        "  path\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-messages MAX_MESSAGES\n"
        "  --max-grid MAX_GRID\n"
        "  --json\n"
    ),
    "witness": (
        "usage: disclosuregame witness [-h] [--json] path_hi path_lo\n"
        "\n"
        "positional arguments:\n"
        "  path_hi\n"
        "  path_lo\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json\n"
    ),
}


class TestParserSurface:
    """Usage, help and argument errors, byte for byte.

    Each call builds the top-level parser with every subcommand's name and
    help, and builds a subcommand's parser, with its arguments, only when
    argparse dispatches to it; every output here is the one a parser with
    every subcommand's arguments prints.  argparse wraps help to the terminal
    width, so COLUMNS is fixed.
    """

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def run(capsys, argv) -> tuple:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_no_arguments(self, capsys):
        err = USAGE + "disclosuregame: error: the following arguments are required: command\n"
        assert self.run(capsys, []) == (2, "", err)

    def test_top_level_help(self, capsys):
        assert self.run(capsys, ["-h"]) == (0, TOP_HELP, "")

    def test_unknown_subcommand(self, capsys):
        code, out, err = self.run(capsys, ["bogus"])
        # argparse quotes each choice up to Python 3.12 and prints them bare from 3.13
        assert (code, out) == (2, "")
        assert err in {
            USAGE + "disclosuregame: error: argument command: invalid choice: 'bogus' "
            f"(choose from {choices})\n"
            for choices in ("'solve', 'compare', 'optimal', 'oracle', 'witness'", "solve, compare, optimal, oracle, witness")
        }

    def test_option_before_subcommand(self, capsys):
        # the first argument names no subcommand: every subcommand gets its
        # arguments, so only --foo is left over
        err = USAGE + "disclosuregame: error: unrecognized arguments: --foo\n"
        assert self.run(capsys, ["--foo", "solve", fx("three_action.json")]) == (2, "", err)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_HELP))
    def test_subcommand_help(self, command, capsys):
        assert self.run(capsys, [command, "-h"]) == (0, SUBCOMMAND_HELP[command], "")

    def test_unrecognized_option_after_subcommand(self, capsys):
        # --receiver is optimal's option, not witness's
        err = USAGE + "disclosuregame: error: unrecognized arguments: --receiver\n"
        argv = ["witness", fx("thresholds_three_quarters.json"), fx("thresholds_half.json"), "--receiver"]
        assert self.run(capsys, argv) == (2, "", err)

    def test_missing_required_argument(self, capsys):
        err = COMPARE_USAGE + "disclosuregame compare: error: the following arguments are required: path_lo\n"
        assert self.run(capsys, ["compare", fx("thresholds_half.json")]) == (2, "", err)

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["disclosuregame", "optimal", fx("receiver_optimal.json"), "--receiver"])
        assert main() == 0
        assert capsys.readouterr() == ("receiver-optimal: yes\n", "")


class TestParsersBuilt:
    """A call builds the top-level parser, and the invoked subcommand's when a subcommand is parsed; none outlives the call."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of each ArgumentParser built since, and a weak set of them all."""
        progs, parsers = [], weakref.WeakSet()
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)
            parsers.add(self)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs, parsers

    @staticmethod
    def call(argv, built) -> list:
        with contextlib.suppress(SystemExit):
            main(argv)
        gc.collect()
        progs, parsers = built
        assert not parsers
        return progs

    @pytest.mark.parametrize("argv", [
        ["solve", fx("three_action.json"), "--json"],
        ["compare", fx("thresholds_half.json"), fx("thresholds_half.json")],
        ["optimal", fx("receiver_optimal.json"), "--receiver"],
        ["oracle", fx("three_action.json")],
        ["witness", fx("thresholds_three_quarters.json"), fx("thresholds_half.json")],
        ["solve", "-h"],
        ["compare", fx("thresholds_half.json")],
    ])
    def test_a_subcommand_line_builds_two(self, argv, built, capsys):
        assert self.call(argv, built) == ["disclosuregame", f"disclosuregame {argv[0]}"]

    @pytest.mark.parametrize("argv", [["-h"], [], ["bogus"], ["--foo"]])
    def test_a_line_without_a_subcommand_builds_one(self, argv, built, capsys):
        assert self.call(argv, built) == ["disclosuregame"]


# one subcommand in a fresh interpreter, its output swallowed: prints its exit
# code, the package's modules that it imported and which of the standard
# library's costly introspection modules it imported
RUN_AND_LIST_IMPORTS = (
    "import contextlib, io, json, sys\n"
    "from disclosuregame.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('disclosuregame.')),\n"
    "                  [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]]))\n"
)


class TestImportSets:
    """Each subcommand imports only the modules it runs: a start that compiles the package from source compiles no more.

    No subcommand imports dataclasses or inspect (with ast, dis and tokenize,
    about 12 ms of a start): the value types are records.Record subclasses.
    Nor typing: annotations are never evaluated, and name collections.abc
    types.
    """

    @staticmethod
    def imported(*argv: str) -> set:
        # -S: no site hooks, whose imports (a .pth file's) are not the package's;
        # the child needs only the standard library and src
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-S", "-c", RUN_AND_LIST_IMPORTS, *argv], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        code, modules, introspection = json.loads(out.stdout)
        assert code == 0
        assert introspection == [], argv
        return {name.split(".", 1)[1] for name in modules}

    def test_solve_imports_figures_only_for_svg(self, tmp_path):
        plain = self.imported("solve", fx("three_action.json"))
        assert {"equilibrium", "grid", "gamefile"} <= plain
        assert plain.isdisjoint({"comparative", "figures", "oracle"})
        assert self.imported("solve", fx("three_action.json"), "--svg", str(tmp_path / "out.svg")) == plain | {"figures"}

    def test_structure_commands_import_no_grid(self):
        for argv in (
            ("compare", fx("thresholds_half.json"), fx("cheap_talk.json")),
            ("optimal", fx("receiver_optimal.json"), "--receiver"),
            ("witness", fx("thresholds_three_quarters.json"), fx("thresholds_half.json")),
        ):
            modules = self.imported(*argv)
            assert "comparative" in modules
            assert modules.isdisjoint({"oracle", "grid", "figures"}), argv

    def test_oracle_imports_no_pre_orders_or_figure(self):
        modules = self.imported("oracle", fx("three_action.json"))
        assert "oracle" in modules
        assert modules.isdisjoint({"comparative", "figures"})


def _write(tmp_path, obj) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _game_obj(**changes) -> dict:
    obj = {
        "prior": "1/3",
        "payoff": {"breakpoints": ["0", "2/5"], "values": ["0", "1"]},
        "structure": {"messages": [{"name": "m_0", "support": [{"lo": "0", "hi": "1"}]}]},
    }
    obj.update(changes)
    return obj


class TestInputCaps:
    def test_message_count(self, tmp_path, capsys):
        messages = [{"name": f"m_{i}", "support": [{"lo": "0", "hi": "1"}]} for i in range(MAX_MESSAGES + 1)]
        path = _write(tmp_path, {"messages": messages})
        with pytest.raises(GameFileError, match="messages"):
            load_structure(path)
        assert main(["optimal", path, "--sender"]) == 2
        assert f"more than {MAX_MESSAGES}" in capsys.readouterr().err
        assert len(load_structure(_write(tmp_path, {"messages": messages[:MAX_MESSAGES]})).messages) == MAX_MESSAGES

    def test_payoff_pieces(self, tmp_path, capsys):
        n = MAX_PAYOFF_PIECES + 1
        payoff = {"breakpoints": [f"{i}/{n}" for i in range(n)], "values": [str(i) for i in range(n)]}
        path = _write(tmp_path, _game_obj(payoff=payoff))
        with pytest.raises(GameFileError, match="pieces"):
            load_game(path)
        assert main(["solve", path]) == 2
        assert f"more than {MAX_PAYOFF_PIECES} pieces" in capsys.readouterr().err
        payoff = {key: vals[:-1] for key, vals in payoff.items()}
        assert len(load_game(_write(tmp_path, _game_obj(payoff=payoff))).payoff.values) == MAX_PAYOFF_PIECES

    def test_rational_digits(self, tmp_path, capsys):
        longest = "1/" + "3" * MAX_RATIONAL_DIGITS
        assert load_game(_write(tmp_path, _game_obj(prior=longest))).prior == F(1, int("3" * MAX_RATIONAL_DIGITS))
        for text in ("1/3" + "3" * MAX_RATIONAL_DIGITS, "1" * (MAX_RATIONAL_DIGITS + 1) + "/" + "3" * 50):
            path = _write(tmp_path, _game_obj(prior=text))
            with pytest.raises(GameFileError, match="prior: more than"):
                load_game(path)
            assert main(["solve", path]) == 2
            assert "digits" in capsys.readouterr().err
        structure = {"messages": [{"name": "m_0", "support": [{"lo": "0", "hi": "1" * (MAX_RATIONAL_DIGITS + 1)}]}]}
        with pytest.raises(GameFileError, match=r"support\[0\]\.hi"):
            load_structure(_write(tmp_path, structure))


def _messages(*supports) -> dict:
    """A structure whose message m_i has supports[i] as its list of intervals."""
    return {"messages": [{"name": f"m_{i}", "support": supp} for i, supp in enumerate(supports)]}


WHOLE = [{"lo": "0", "hi": "1"}]
FIELD_ERRORS = [
    (_messages(WHOLE, "all"), "structure.messages[1].support: expected list, got str"),
    ({"messages": [{"name": "m_0", "support": WHOLE}, ["m_1"]]}, "structure.messages[1]: expected dict, got list"),
    ({"messages": [{"name": "m_0", "support": WHOLE}, {"name": 1, "support": WHOLE}]},
     "structure.messages[1].name: expected str, got int"),
    (_messages(WHOLE, [{"lo": "0", "hi": "1/2"}, "1/2..1"]), "structure.messages[1].support[1]: expected dict, got str"),
    (_messages(WHOLE, [{"lo": "0", "hi": "1/2"}, {"lo": "1/2", "hi": "x"}]),
     "structure.messages[1].support[1].hi: malformed rational 'x': "),
    (_messages(WHOLE, [{"lo": "0.5", "hi": "1"}]),
     "structure.messages[1].support[0].lo: rational '0.5' must be exact (no decimal/float forms)"),
    (_messages([{"lo": 0, "hi": 1}], [{"lo": 0, "hi": True}]),
     "structure.messages[1].support[0].hi: rational must be a string like '2/5', got True"),
    (_messages(WHOLE, [{"lo": "0", "hi": "1", "hi_closed": 1}]), "structure.messages[1].support[0].hi_closed: expected bool"),
    (_messages(WHOLE, [{"lo": "3/4", "hi": "1/2"}]), "structure.messages[1].support[0]: interval has lo 3/4 > hi 1/2"),
    (_messages(WHOLE, [{"lo": "1/2", "hi": "1/2", "hi_closed": False}]),
     "structure.messages[1].support[0]: degenerate interval must be closed"),
    (_messages(WHOLE, []), "structure.messages[1].support: support must be non-empty"),
    (_messages([{"lo": "0", "hi": "1/2", "hi_closed": False}]), "structure: message supports must cover all of [0,1]"),
]


class TestFieldPaths:
    """Each parse error names its field; paths are built only on error, so each one is checked here.

    Where the reason ends in Fraction's own wording, which may vary across
    Python versions, only the text up to it is pinned.
    """

    @pytest.mark.parametrize("structure, message", FIELD_ERRORS)
    def test_structure_errors(self, tmp_path, structure, message):
        with pytest.raises(GameFileError) as err:
            load_game(_write(tmp_path, _game_obj(structure=structure)))
        assert str(err.value) == message or message.endswith(": ") and str(err.value).startswith(message)

    def test_payoff_errors(self, tmp_path):
        for payoff, message in (
            ({"breakpoints": ["0", "2/5", "2/5"], "values": ["0", "1", "2"]},
             "payoff: breakpoints must be strictly ascending"),
            ({"breakpoints": ["0", "2/5", "1/2"], "values": ["0", "1", "1.5"]},
             "payoff.values[2]: rational '1.5' must be exact (no decimal/float forms)"),
            ({"breakpoints": ["0", "2/5", "-"], "values": ["0", "1", "2"]},
             "payoff.breakpoints[2]: malformed rational '-': "),
            ({"breakpoints": ["1/5", "2/5"], "values": ["0", "1"]}, "payoff: first breakpoint must be 0"),
            ({"breakpoints": ["0", "6/5"], "values": ["0", "1"]}, "payoff: breakpoints must lie in [0,1]"),
            ({"breakpoints": ["0", "2/5"], "values": ["1", "0"]}, "game: payoff function must be non-decreasing"),
        ):
            with pytest.raises(GameFileError) as err:
                load_game(_write(tmp_path, _game_obj(payoff=payoff)))
            assert str(err.value) == message or message.endswith(": ") and str(err.value).startswith(message)

    def test_game_object_errors_name_default_paths(self):
        # a game object read on its own names its fields from its root, and
        # the game itself "game"
        with pytest.raises(GameFileError, match=r"^prior: malformed rational"):
            game_from_obj(_game_obj(prior="-"))
        with pytest.raises(GameFileError, match=r"^game: payoff function must be non-decreasing$"):
            game_from_obj(_game_obj(payoff={"breakpoints": ["0", "2/5"], "values": ["1", "0"]}))
        with pytest.raises(GameFileError, match=r"^game: expected dict, got list$"):
            game_from_obj([])

    def test_repeated_strings_share_one_parse(self):
        game = game_from_obj(_game_obj(prior="2/5", structure=_messages(WHOLE, [{"lo": "2/5", "hi": "1"}])))
        assert game.prior is game.payoff.breakpoints[1] is game.structure.support("m_1").minimum


class TestRoundTrips:
    def test_game_round_trip(self):
        game = load_game(fx("three_action.json"))
        assert game_from_obj(game_to_obj(game)) == game

    def test_structure_round_trip(self):
        game = load_game(fx("fig2_more_verifiable.json"))
        assert structure_from_obj(structure_to_obj(game.structure)) == game.structure

    def test_equilibrium_signal_round_trip(self):
        game = load_game(fx("three_action.json"))
        eq = solve(game)
        entries = equilibrium_to_obj(eq, pnbp(game).holds)["signal"]
        support = tuple(parse_rational(e["posterior"]) for e in entries)
        assert Signal(support, tuple(parse_rational(e["weight"]) for e in entries)) == eq.signal
        assert dict(zip(support, (e["message"] for e in entries))) == dict(eq.messaging)

    def test_rationals_normalized_on_reparse(self, tmp_path):
        raw = {
            "prior": "2/6",
            "payoff": {"breakpoints": ["0", "4/10"], "values": ["0", "3"]},
            "structure": {"messages": [{"name": "m", "support": [{"lo": "0", "hi": "1"}]}]},
        }
        game = game_from_obj(raw)
        assert game.prior == F(1, 3)
        assert game.payoff.breakpoints[1] == F(2, 5)
        assert game_from_obj(game_to_obj(game)) == game

    def test_boolean_rationals_rejected(self, tmp_path, capsys):
        # JSON true and false are not rationals, although Python reads them as 1 and 0
        assert main(["solve", _write(tmp_path, _game_obj(prior=True))]) == 2
        assert "parse error: prior: rational must be a string like '2/5', got True" in capsys.readouterr().err
        payoff = {"breakpoints": ["0", "2/5"], "values": [False, "1"]}
        with pytest.raises(GameFileError, match=r"payoff\.values\[0\]"):
            load_game(_write(tmp_path, _game_obj(payoff=payoff)))

    def test_float_rationals_rejected(self):
        with pytest.raises(GameFileError):
            game_from_obj({
                "prior": "0.5",
                "payoff": {"breakpoints": ["0"], "values": ["1"]},
                "structure": {"messages": [{"name": "m", "support": [{"lo": "0", "hi": "1"}]}]},
            })
