"""Every validation raise of the game's value types, through the library constructors and through the loader.

Each check runs once, on ints, in the constructor that owns it (SupportInterval,
IntervalUnion, StepFunction, ConcavePL, GameSpec, Signal) or on the structure's coordinate
table (VerifStructure's names and its endpoint sweep).  Each one is reached here
by a library call and, where a game file can express it, by load_game and by
the CLI, which exits with code 2; so moving a check cannot drop it silently.
"""

import json
import pathlib
import re
from fractions import Fraction as F
from functools import cache

import pytest

from disclosuregame import (
    ConcavePL,
    ConstructionError,
    DomainError,
    GameSpec,
    IntervalUnion,
    Signal,
    StepFunction,
    SupportInterval,
    UnknownMessageError,
    VerifStructure,
    cheap_talk,
    mandatory_disclosure,
    min_inverse,
    partition,
    solve,
    thresholds,
    verify_equilibrium,
)
from disclosuregame.cli import main
from disclosuregame.errors import GameFileError
from disclosuregame.gamefile import game_from_obj, load_game, load_structure

HALF, THIRD = F(1, 2), F(1, 3)


# sample values, built on first use (and cached), so a fault in a constructor
# fails the tests that read them rather than the module's collection
@cache
def whole():
    return IntervalUnion.from_pairs([(0, 1)])


@cache
def two_piece_payoff():
    return StepFunction((F(0), F(2, 5)), (F(0), F(1)))


LIBRARY = [
    # SupportInterval
    (lambda: SupportInterval(F(-1, 2), HALF), ConstructionError, r"interval \[-1/2,1/2\] must lie in \[0,1\]"),
    (lambda: SupportInterval(HALF, F(3, 2)), ConstructionError, r"interval \[1/2,3/2\] must lie in \[0,1\]"),
    (lambda: SupportInterval(HALF, THIRD), ConstructionError, "interval has lo 1/2 > hi 1/3"),
    (lambda: SupportInterval(HALF, HALF, False), ConstructionError, "degenerate interval must be closed"),
    # IntervalUnion
    (lambda: IntervalUnion(()), ConstructionError, "support must be non-empty"),
    # VerifStructure
    (lambda: VerifStructure((("m", whole()), ("m", whole()))), ConstructionError, "message names must be unique"),
    (lambda: VerifStructure((("id:1/2", whole()),)), ConstructionError, "uses the reserved prefix 'id:'"),
    (lambda: VerifStructure(()), ConstructionError, "a structure without full verifiability needs messages"),
    (lambda: VerifStructure((("m", IntervalUnion.from_pairs([(0, HALF, False), (F(2, 3), 1)])),)),
     ConstructionError, r"message supports must cover all of \[0,1\]"),
    (lambda: VerifStructure((("m", IntervalUnion.from_pairs([(0, 1, False)])),)),
     ConstructionError, r"message supports must cover all of \[0,1\]"),
    (lambda: VerifStructure((("m", IntervalUnion.from_pairs([(THIRD, 1)])),)),
     ConstructionError, r"message supports must cover all of \[0,1\]"),
    (lambda: min_inverse(VerifStructure((("m", whole()),)), "id:1/2"), UnknownMessageError, "id:1/2"),
    (lambda: VerifStructure((("m", whole()),)).support("nope"), UnknownMessageError, "nope"),
    *((lambda name=name: min_inverse(mandatory_disclosure(), name), UnknownMessageError, name)
      for name in ("id:2", "id:-1/3", "id:2/4", "id: 1/2")),
    # the canonical builders
    (lambda: cheap_talk(()), ConstructionError, "cheap talk needs at least one message"),
    (lambda: thresholds([F(0)]), ConstructionError, r"thresholds must lie in \(0,1\]"),
    (lambda: thresholds([HALF], names=["m"]), ConstructionError, "need one name per threshold plus the base message"),
    (lambda: partition([(0, HALF)]), ConstructionError, r"partition cells must tile \[0,1\]"),
    (lambda: partition([(0, 0), (0, 1)]), ConstructionError, "partition cells must be non-degenerate"),
    (lambda: partition([(0, 1)], names=["a", "b"]), ConstructionError, "need one name per cell"),
    # StepFunction
    (lambda: StepFunction((), ()), ValueError, "breakpoints and values must be non-empty and same length"),
    (lambda: StepFunction((F(0), HALF), (F(0),)), ValueError, "breakpoints and values must be non-empty and same length"),
    (lambda: StepFunction((THIRD, HALF), (F(0), F(1))), ValueError, "first breakpoint must be 0"),
    (lambda: StepFunction((F(0), HALF, THIRD), (F(0), F(1), F(2))), ValueError, "breakpoints must be strictly ascending"),
    (lambda: StepFunction((F(0), F(3, 2)), (F(0), F(1))), ValueError, r"breakpoints must lie in \[0,1\]"),
    # ConcavePL: a repeated x, and a chain whose slopes rise, then stay equal
    (lambda: ConcavePL(((F(0), F(0)),)), ValueError, "need at least two vertices"),
    (lambda: ConcavePL(((F(0), F(0)), (HALF, F(1)))), ValueError, r"vertex chain must span \[0,1\]"),
    (lambda: ConcavePL(((F(0), F(0)), (HALF, F(1)), (HALF, F(1)), (F(1), F(1)))), ValueError,
     "vertex x-coordinates must be strictly ascending"),
    (lambda: ConcavePL(((F(0), F(0)), (HALF, F(0)), (F(1), F(1)))), ValueError, r"slopes must strictly decrease \(concavity\)"),
    (lambda: ConcavePL(((F(0), F(0)), (THIRD, F(1)), (F(1), F(3)))), ValueError, r"slopes must strictly decrease \(concavity\)"),
    # GameSpec
    (lambda: GameSpec(two_piece_payoff(), F(3, 2), VerifStructure((("m", whole()),))), DomainError, r"prior 3/2 outside \[0,1\]"),
    (lambda: GameSpec(StepFunction((F(0), HALF), (F(1), F(0))), THIRD, VerifStructure((("m", whole()),))),
     ValueError, "payoff function must be non-decreasing"),
    # Signal
    (lambda: Signal((), ()), ValueError, "support and weights must be non-empty and same length"),
    (lambda: Signal((THIRD,), (HALF, HALF)), ValueError, "support and weights must be non-empty and same length"),
    (lambda: Signal((THIRD, THIRD), (HALF, HALF)), ValueError, "support entries must be distinct"),
    (lambda: Signal((THIRD, F(3, 2)), (HALF, HALF)), ValueError, r"support entries must lie in \[0,1\]"),
    (lambda: Signal((THIRD, HALF), (F(3, 2), F(-1, 2))), ValueError, "weights must be positive"),
    (lambda: Signal((THIRD, HALF), (HALF, THIRD)), ValueError, "weights must sum to 1"),
]


@pytest.mark.parametrize("build, error, message", LIBRARY)
def test_library_constructors_refuse(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _game(prior="1/3", payoff=None, messages=None, **structure) -> dict:
    messages = [{"name": "m_0", "support": [{"lo": "0", "hi": "1"}]}] if messages is None else messages
    return {
        "prior": prior,
        "payoff": payoff or {"breakpoints": ["0", "2/5"], "values": ["0", "1"]},
        "structure": {"messages": messages, **structure},
    }


def _support(*intervals) -> list:
    return [{"name": "m_0", "support": [dict(zip(("lo", "hi", "hi_closed"), iv)) for iv in intervals]}]


LOADED = [
    (_game(messages=_support(("-1/2", "1"))), r"structure\.messages\[0\]\.support\[0\]: interval \[-1/2,1\] must lie in \[0,1\]"),
    (_game(messages=_support(("0", "3/2"))), r"structure\.messages\[0\]\.support\[0\]: interval \[0,3/2\] must lie in \[0,1\]"),
    (_game(messages=_support(("0", "1"), ("2/3", "1/3"))),
     r"structure\.messages\[0\]\.support\[1\]: interval has lo 2/3 > hi 1/3"),
    (_game(messages=_support(("0", "1"), ("1/2", "1/2", False))),
     r"structure\.messages\[0\]\.support\[1\]: degenerate interval must be closed"),
    (_game(messages=[{"name": "m_0", "support": []}]), r"structure\.messages\[0\]\.support: support must be non-empty"),
    (_game(messages=_support(("0", "1")) * 2), "structure: message names must be unique"),
    (_game(messages=[{"name": "id:1", "support": [{"lo": "0", "hi": "1"}]}]),
     "structure: message name 'id:1' uses the reserved prefix 'id:'"),
    (_game(messages=[]), "structure: a structure without full verifiability needs messages"),
    (_game(messages=_support(("0", "1/2", False), ("2/3", "1"))), r"structure: message supports must cover all of \[0,1\]"),
    (_game(messages=_support(("0", "1", False))), r"structure: message supports must cover all of \[0,1\]"),
    (_game(payoff={"breakpoints": ["0", "2/5"], "values": ["0"]}),
     "payoff: breakpoints and values must be non-empty and same length"),
    (_game(payoff={"breakpoints": [], "values": []}), "payoff: breakpoints and values must be non-empty and same length"),
    (_game(payoff={"breakpoints": ["1/5", "2/5"], "values": ["0", "1"]}), "payoff: first breakpoint must be 0"),
    (_game(payoff={"breakpoints": ["0", "2/5", "1/5"], "values": ["0", "1", "2"]}),
     "payoff: breakpoints must be strictly ascending"),
    (_game(payoff={"breakpoints": ["0", "6/5"], "values": ["0", "1"]}), r"payoff: breakpoints must lie in \[0,1\]"),
    (_game(prior="3/2"), r"^game: prior 3/2 outside \[0,1\]"),
    (_game(payoff={"breakpoints": ["0", "2/5"], "values": ["1", "0"]}), "^game: payoff function must be non-decreasing"),
    (_game(payoff=["0"]), "^payoff: expected dict, got list"),
    (_game(full_verifiability="yes"), r"^structure\.full_verifiability: expected bool"),
]


@pytest.mark.parametrize("game, message", LOADED)
def test_loader_and_cli_refuse(game, message, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game))
    with pytest.raises(GameFileError, match=message):
        load_game(str(path))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: ")


# files on which json.load raises something other than JSONDecodeError
UNDECODABLE = {
    "deep_nesting": b"[" * 200_000 + b"]" * 200_000,  # RecursionError
    "not_utf8": b"\xff\xfe{}",  # UnicodeDecodeError
    "integer_over_digit_limit": b'{"prior": ' + b"9" * 5_000 + b"}",  # ValueError from int()
}
SUBCOMMANDS = {
    "solve": lambda path: ["solve", path],
    "compare": lambda path: ["compare", path, path],
    "optimal": lambda path: ["optimal", "--sender", path],
    "oracle": lambda path: ["oracle", path],
    "witness": lambda path: ["witness", path, path],
}


@pytest.mark.parametrize("kind", UNDECODABLE)
@pytest.mark.parametrize("load", [load_game, load_structure])
def test_loader_refuses_undecodable_files(kind, load, tmp_path):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(UNDECODABLE[kind])
    with pytest.raises(GameFileError, match=f"^{re.escape(str(path))}: "):
        load(str(path))


@pytest.mark.parametrize("kind", UNDECODABLE)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_refuses_undecodable_files_with_exit_two(kind, command, tmp_path, capsys):
    # exit 1 means "relation fails", "disagrees" or "not optimal" for some
    # subcommands, so an unreadable file must exit 2 with a parse error
    path = tmp_path / f"{kind}.json"
    path.write_bytes(UNDECODABLE[kind])
    assert main(SUBCOMMANDS[command](str(path))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"parse error: {path}: ")


# the input contract: every object holds only the keys gamefile.FIELDS lists
# for it, each at most once; these are fixtures/three_action.json with one edit
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
THREE_ACTION = (FIXTURES / "three_action.json").read_text()
UNKNOWN_KEYS = {
    "interval": (('"hi_closed": true\n          }\n        ]\n      }\n    ]', '"hi_close": true\n          }\n        ]\n      }\n    ]'),
                 "structure.messages[1].support[0]: unknown key 'hi_close'"),
    "message": (('"name": "m_L"', '"nme": "m_L"'), "structure.messages[0]: unknown key 'nme'"),
    "structure": (('"full_verifiability": false', '"full_verifiabilty": true'), "structure: unknown key 'full_verifiabilty'"),
    "payoff": (('"values"', '"value"'), "payoff: unknown key 'value'"),
    "game": (('"prior": "1/3"', '"prior": "1/3", "note": "drawn by hand"'), "game: unknown key 'note'"),
}
REPEATED_KEYS = {
    "prior": ('"prior": "1/3"', '"prior": "1/3", "prior": "9/10"'),
    "hi_closed": ('"hi_closed": true', '"hi_closed": true, "hi_closed": false'),
}


def _edited(tmp_path, old_new, text=THREE_ACTION) -> str:
    old, new = old_new
    assert old in text
    path = tmp_path / "edited.json"
    path.write_text(text.replace(old, new, 1))
    return str(path)


@pytest.mark.parametrize("kind", UNKNOWN_KEYS)
def test_unknown_key_is_refused_with_its_path(kind, tmp_path, capsys):
    edit, message = UNKNOWN_KEYS[kind]
    path = _edited(tmp_path, edit)
    with pytest.raises(GameFileError) as err:
        load_game(path)
    assert str(err.value) == message
    assert main(["solve", "--json", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"parse error: {message}\n"
    with pytest.raises(GameFileError, match=f"^{re.escape(message)}$"):
        game_from_obj(json.loads(pathlib.Path(path).read_text()))


@pytest.mark.parametrize("key", REPEATED_KEYS)
def test_repeated_key_is_refused(key, tmp_path, capsys):
    path = _edited(tmp_path, REPEATED_KEYS[key])
    for load in (load_game, load_structure):
        with pytest.raises(GameFileError, match=f"^{re.escape(path)}: repeated key '{key}'$"):
            load(path)
    assert main(["solve", "--json", path]) == 2
    assert capsys.readouterr().err == f"parse error: {path}: repeated key '{key}'\n"


STRUCTURE_EDITS = {
    "hi_close": (('"hi_closed": true\n        }\n      ]\n    }\n  ]', '"hi_close": true\n        }\n      ]\n    }\n  ]'),
                 "structure.messages[1].support[0]: unknown key 'hi_close'"),
    "full_verifiabilty": (('"full_verifiability": false', '"full_verifiabilty": true'), "structure: unknown key 'full_verifiabilty'"),
    "repeated": (('"full_verifiability": false', '"full_verifiability": false, "full_verifiability": true'),
                 "repeated key 'full_verifiability'"),
    "top_level": (('"full_verifiability": false', '"full_verifiability": false, "prior": "1/3"'), "structure: unknown key 'prior'"),
}
STRUCTURE_COMMANDS = {
    "compare": lambda path: ["compare", path, str(FIXTURES / "cheap_talk.json")],
    "optimal": lambda path: ["optimal", path, "--sender"],
    "witness": lambda path: ["witness", str(FIXTURES / "thresholds_half.json"), path],
}


@pytest.mark.parametrize("edit", STRUCTURE_EDITS)
@pytest.mark.parametrize("command", STRUCTURE_COMMANDS)
def test_structure_file_edits_are_refused(edit, command, tmp_path, capsys):
    old_new, message = STRUCTURE_EDITS[edit]
    text = json.dumps(json.loads(THREE_ACTION)["structure"], indent=2)
    path = _edited(tmp_path, old_new, text)
    assert main(STRUCTURE_COMMANDS[command](path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: ") and captured.err.endswith(f"{message}\n")


def test_structure_commands_read_a_game_file_whole(tmp_path, capsys):
    # a game file given where a structure is read is read as a game, so a
    # key of its payoff, which the structure does not use, is checked too
    assert load_structure(str(FIXTURES / "three_action.json")) == load_game(str(FIXTURES / "three_action.json")).structure
    non_decreasing = (('"3"\n    ]', '"1/2"\n    ]'), "game: payoff function must be non-decreasing")
    for edit, message in (UNKNOWN_KEYS["game"], UNKNOWN_KEYS["payoff"], UNKNOWN_KEYS["interval"], non_decreasing):
        path = _edited(tmp_path, edit)
        with pytest.raises(GameFileError, match=f"^{re.escape(message)}$"):
            load_structure(path)
        assert main(["optimal", path, "--receiver"]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"


def test_prior_outside_unit_interval_with_a_structure_error_reports_the_structure():
    # the structure is read, and checked, before the game checks its prior
    game = _game(prior="3/2", messages=_support(("0", "1/2")))
    with pytest.raises(GameFileError, match=r"structure: message supports must cover all of \[0,1\]"):
        game_from_obj(game)


def _solved():
    structure = VerifStructure((("m_0", whole()), ("m_1", IntervalUnion.from_pairs([(F(2, 5), 1)]))))
    game = GameSpec(two_piece_payoff(), THIRD, structure)
    return game, solve(game)


VALIDATE = [
    (lambda eq: eq.replace(signal=Signal((F(0), F(2, 5)), (HALF, HALF))),
     "signal is not Bayes-plausible for the game's prior"),
    (lambda eq: eq.replace(beliefs={"m_0": F(0)}), "beliefs missing finite message 'm_1'"),
    (lambda eq: eq.replace(beliefs={**eq.beliefs, "id:1/2": HALF}), "identity belief 'id:1/2' without full verifiability"),
    (lambda eq: eq.replace(beliefs={**eq.beliefs, "m_9": HALF}), "belief for 'm_9', which is no message of the structure"),
    (lambda eq: eq.replace(messaging={eq.signal.support[0]: "m_0"}), "messaging missing support type 2/5"),
    (lambda eq: eq.replace(value=eq.value + 1), "value does not match the signal/messaging/beliefs it claims"),
]


@pytest.mark.parametrize("tamper, message", VALIDATE)
def test_verify_refuses_structurally_invalid_equilibria(tamper, message):
    game, eq = _solved()
    assert eq.signal.support == (F(0), F(2, 5)) and verify_equilibrium(game, eq).ok
    with pytest.raises(ValueError, match=message):
        verify_equilibrium(game, tamper(eq))


def test_verify_refuses_a_message_outside_the_structure():
    game, eq = _solved()
    with pytest.raises(UnknownMessageError, match="m_9"):
        verify_equilibrium(game, eq.replace(messaging={**eq.messaging, eq.signal.support[0]: "m_9"}))
    # a belief for a name that is no message is refused under full verifiability too
    game = GameSpec(two_piece_payoff(), THIRD, mandatory_disclosure())
    eq = solve(game)
    with pytest.raises(ValueError, match="belief for 'm_9', which is no message of the structure"):
        verify_equilibrium(game, eq.replace(beliefs={**eq.beliefs, "m_9": HALF}))


@pytest.mark.parametrize("name", ["id:2", "id:-1/3", "id:2/4", "id: 1/2"])
def test_verify_refuses_identity_beliefs_that_name_no_type(name):
    # under full verifiability an identity belief must still name a type in
    # [0, 1] the one way identity_name spells it
    game = GameSpec(two_piece_payoff(), THIRD, mandatory_disclosure())
    eq = solve(game)
    with pytest.raises(ValueError, match=re.escape(f"identity belief {name!r} names no type in [0,1]")):
        verify_equilibrium(game, eq.replace(beliefs={**eq.beliefs, name: HALF}))


def test_identity_beliefs_allowed_under_full_verifiability():
    # the same identity belief that _validate_structure refuses above is
    # accepted once every type owns its identity message
    game = GameSpec(two_piece_payoff(), THIRD, mandatory_disclosure())
    eq = solve(game)
    assert verify_equilibrium(game, eq.replace(beliefs={**eq.beliefs, "id:1/2": HALF})).ok
