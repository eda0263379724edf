"""Command-line front end.

Subcommands: solve, compare, optimal, oracle, witness.  Exit codes follow one
contract everywhere: 0 success/holds, 1 semantic negative (comparison fails,
oracle disagrees, not optimal, no witness), 2 input error.

Each subcommand imports the modules only it runs (comparative, figures,
oracle) when it runs, so a start that compiles the package from source
compiles only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .equilibrium import equilibrium_value, pnbp, solve, verify_equilibrium
from .errors import GameFileError, OracleSizeError, PreconditionError
from .gamefile import (
    equilibrium_to_obj,
    game_to_obj,
    load_game,
    load_structure,
    verdict_to_obj,
)
from .rationals import format_rational

# oracle --max-messages, --max-grid ceilings; the slowest games measured at both: under 1 s (README)
ORACLE_CEILINGS = {"max_messages": 8, "max_grid": 81}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OracleSizeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser(command=None) -> argparse.ArgumentParser:
    """A new parser with every subcommand's name and help, and ``command``'s arguments.

    argparse reads a command line's arguments with the one subparser it
    names, so a parser built for ``argv[0]`` parses ``argv`` as the full
    parser does, with the same usage, help and errors.  When ``command``
    names no subcommand (None, an option, a typo), every subcommand gets its
    arguments.
    """
    parser = argparse.ArgumentParser(
        prog="disclosuregame",
        description="Solve and compare covert information-acquisition-and-disclosure games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in SUBCOMMANDS
    for name, (help_text, add_arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if every or name == command:
            add_arguments(p)
    return parser


def solve_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--svg", metavar="OUT", help="write a figure of the solution")
    p.set_defaults(func=cmd_solve)


def compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path_hi")
    p.add_argument("path_lo")
    p.add_argument("--relation", choices=("lc", "sep"), default="lc")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)


def optimal_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sender", action="store_true")
    group.add_argument("--receiver", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_optimal)


def oracle_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--max-messages", type=int, default=4)
    p.add_argument("--max-grid", type=int, default=12)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)


def witness_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("path_hi")
    p.add_argument("path_lo")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)


# the one list of subcommands, in help order: name -> (help line, adds its arguments)
SUBCOMMANDS = {
    "solve": ("solve a game file and report the equilibrium", solve_arguments),
    "compare": ("compare two verifiability structures", compare_arguments),
    "optimal": ("check sender/receiver optimality of a structure", optimal_arguments),
    "oracle": ("cross-check the solver against brute force", oracle_arguments),
    "witness": ("emit a game separating two lc-unordered structures", witness_arguments),
}


def cmd_solve(args) -> int:
    game = load_game(args.path)
    verdict = pnbp(game)
    eq = solve(game)
    report = verify_equilibrium(game, eq)
    if not report.ok:
        print(f"internal error: solution failed verification: {report.detail}", file=sys.stderr)
        return 2
    if args.svg:
        from .figures import render_game_svg

        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_game_svg(game, eq))
    if args.json:
        print(json.dumps(equilibrium_to_obj(eq, verdict.holds), indent=2))
        return 0
    tag = equilibrium_value(game).tag
    if verdict.holds:
        print(f"pnbp: yes (witness {verdict.witness})")
    else:
        print("pnbp: no")
    print(f"value: {format_rational(eq.value)} ({tag})")
    print("signal:")
    for s, w in zip(eq.signal.support, eq.signal.weights):
        print(
            f"  posterior {format_rational(s)}  weight {format_rational(w)}"
            f"  -> {eq.messaging[s]}"
        )
    print("beliefs:")
    for name in sorted(eq.beliefs):
        print(f"  {name} = {format_rational(eq.beliefs[name])}")
    print(f"split points: s- = {format_rational(eq.s_minus)}  s+ = {format_rational(eq.s_plus)}")
    return 0


def cmd_compare(args) -> int:
    from .comparative import geq_lc, geq_sep

    hi = load_structure(args.path_hi)
    lo = load_structure(args.path_lo)
    verdict = geq_lc(hi, lo) if args.relation == "lc" else geq_sep(hi, lo)
    if args.json:
        print(json.dumps(verdict_to_obj(verdict), indent=2))
    else:
        if verdict.holds:
            print(f"relation {args.relation}: holds")
        elif args.relation == "lc":
            print(f"relation lc: fails, witness type {format_rational(verdict.witness)}")
        else:
            s, pieces = verdict.witness
            desc = " u ".join(
                f"{'[' if lc else '('}{format_rational(lo_)},{format_rational(hi_)}{']' if hc else ')'}"
                for lo_, lc, hi_, hc in pieces
            )
            print(f"relation sep: fails at type {format_rational(s)}, separating set {desc}")
    return 0 if verdict.holds else 1


def cmd_optimal(args) -> int:
    from .comparative import is_receiver_optimal, is_sender_optimal

    structure = load_structure(args.path)
    if args.sender:
        which, result = "sender", is_sender_optimal(structure)
    else:
        which, result = "receiver", is_receiver_optimal(structure)
    if args.json:
        print(json.dumps({"optimal_for": which, "holds": result}))
    else:
        print(f"{which}-optimal: {'yes' if result else 'no'}")
    return 0 if result else 1


def cmd_oracle(args) -> int:
    for flag, ceiling in ORACLE_CEILINGS.items():
        if not 1 <= getattr(args, flag) <= ceiling:
            raise ValueError(f"--{flag.replace('_', '-')} must lie in 1..{ceiling}")
    from .oracle import exhaustive_search

    game = load_game(args.path)
    analytic = equilibrium_value(game).value
    values = exhaustive_search(game, args.max_messages, args.max_grid)
    agree = bool(values) and max(values) == analytic
    if args.json:
        print(
            json.dumps(
                {
                    "analytic": format_rational(analytic),
                    "oracle_values": [format_rational(v) for v in sorted(values)],
                    "agree": agree,
                }
            )
        )
    else:
        rendered = ", ".join(format_rational(v) for v in sorted(values))
        print(f"analytic value: {format_rational(analytic)}")
        print(f"oracle values: {{{rendered}}}")
        print(f"agreement: {'yes' if agree else 'no'}")
    return 0 if agree else 1


def cmd_witness(args) -> int:
    from .comparative import separating_instance

    hi = load_structure(args.path_hi)
    lo = load_structure(args.path_lo)
    try:
        inst = separating_instance(hi, lo)
    except PreconditionError as exc:
        print(f"no witness: {exc}", file=sys.stderr)
        return 1
    game_obj = game_to_obj(inst.game_lo)
    if args.json:
        print(
            json.dumps(
                {
                    "game": game_obj,
                    "s_star": format_rational(inst.s_star),
                    "value_lo": format_rational(inst.value_lo),
                    "sup_value_hi": format_rational(inst.sup_value_hi),
                },
                indent=2,
            )
        )
    else:
        print(
            f"s* = {format_rational(inst.s_star)}  value_lo = {format_rational(inst.value_lo)}"
            f"  sup_value_hi = {format_rational(inst.sup_value_hi)}",
            file=sys.stderr,
        )
        print(json.dumps(game_obj, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
