"""The 13 value types against frozen dataclass twins: the records.Record base keeps what a frozen dataclass gave.

Each twin is built here with dataclasses.make_dataclass(..., frozen=True)
from the fields the type had as a dataclass (names, annotations, defaults).
It subclasses the type, so it runs the same __post_init__, cached
properties and lazy attributes, while the dataclass machinery writes its
own __init__, repr, ==, hash and frozen __setattr__ and __delattr__ over
the record's (and never calls Record._store).  Every twin field is given
as a dataclasses.field(), with or without a default: a bare field would
take a class attribute of the same name as its default, and
VerifStructure's lazily built ``messages`` is such an attribute, a cached
property.  Every check compares the record with its twin on the same
arguments: the signature, repr, ==, hash, frozen assignment and deletion,
the constructor's TypeErrors, and replace against dataclasses.replace.
"""

import dataclasses
import inspect
from fractions import Fraction as F

import pytest

from disclosuregame import (
    ConcavePL,
    Equilibrium,
    GameSpec,
    IntervalUnion,
    LowestConsistentSet,
    PnbpVerdict,
    Signal,
    StepFunction,
    SupportInterval,
    VerifStructure,
    VerifyReport,
    cheap_talk,
    solve,
    thresholds,
)
from disclosuregame.comparative import OrderVerdict, SeparatingInstance, separating_instance
from disclosuregame.gamefile import structure_from_obj, structure_to_obj
from disclosuregame.records import Record


def field_values(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__match_args__)


STEP_ARGS = ((F(0), F(1, 2)), (F(0), F(1)))
IDS = ["GameSpec", "Signal", "Equilibrium", "PnbpVerdict", "VerifyReport", "StepFunction", "ConcavePL", "SupportInterval",
       "IntervalUnion", "VerifStructure", "LowestConsistentSet", "OrderVerdict", "SeparatingInstance"]


@pytest.fixture(scope="module")
def cases() -> dict:
    """Each type by name: (type, its dataclass fields as (name, annotation[, default]), two unequal argument lists, and
    one change for replace).  Built here, not at import, so a fault in a constructor or the solver fails the tests."""
    step = StepFunction(*STEP_ARGS)
    half_open = SupportInterval(F(0), F(1, 2), False)
    union = IntervalUnion((SupportInterval(F(1, 2), F(1)), SupportInterval(F(0), F(1, 4))))
    eq = solve(GameSpec(step, F(1, 3), thresholds([F(1, 2)])))
    witnesses = [separating_instance(cheap_talk(), thresholds([level])) for level in (F(1, 2), F(1, 4))]
    listed = [
        (GameSpec, [("payoff", "StepFunction"), ("prior", "Fraction"), ("structure", "VerifStructure")],
         (step, F(1, 3), thresholds([F(1, 2)])), (step, F(1, 4), cheap_talk()), {"prior": F(1, 5)}),
        (Signal, [("support", "tuple[Fraction, ...]"), ("weights", "tuple[Fraction, ...]")],
         ((F(1), F(0)), (F(1, 3), F(2, 3))), ((F(0), F(1)), (F(1, 2), F(1, 2))), {"weights": (F(1, 4), F(3, 4))}),
        (Equilibrium, [("signal", "Signal"), ("messaging", "Mapping[Fraction, str]"), ("beliefs", "Mapping[str, Fraction]"),
                       ("value", "Fraction")],
         (eq.signal, eq.messaging, eq.beliefs, eq.value), (eq.signal, eq.messaging, eq.beliefs, F(1)), {"value": F(0)}),
        (PnbpVerdict, [("holds", "bool"), ("witness", "Optional[str]", None)],
         (True, "m_1"), (False,), {"witness": "m_0"}),
        (VerifyReport, [("ok", "bool"), ("condition", "Optional[int]", None), ("detail", "str", ""), ("witness", "object", None)],
         (True,), (False, 2, "type 0 prefers 'm_1'", (F(0), "m_1")), {"detail": "x"}),
        (StepFunction, [("breakpoints", "tuple[Fraction, ...]"), ("values", "tuple[Fraction, ...]")],
         ((F(0), F(1, 2), F(3, 4)), (F(0), F(1), F(1))), ((F(0), F(1, 4)), (F(0), F(2))), {"values": (F(1), F(2))}),
        (ConcavePL, [("vertices", "tuple[Point, ...]")],
         (((0, 0), (F(1, 2), F(1)), (1, 1)),), (((F(0), F(0)), (F(1), F(1))),), {"vertices": ((F(0), F(1)), (F(1), F(0)))}),
        (SupportInterval, [("lo", "Fraction"), ("hi", "Fraction"), ("hi_closed", "bool", True)],
         (0, F(1, 2)), (F(0), F(1, 2), False), {"lo": F(1, 4)}),
        (IntervalUnion, [("intervals", "tuple[SupportInterval, ...]")],
         (union.intervals[::-1],), ((half_open,),), {"intervals": (SupportInterval(F(0), F(1)),)}),
        (VerifStructure, [("messages", "tuple[tuple[str, IntervalUnion], ...]"), ("full_verifiability", "bool", False)],
         ((("m_0", union), ("m_1", IntervalUnion((SupportInterval(F(1, 4), F(1, 2)),)))),), ((), True),
         {"full_verifiability": True}),
        (LowestConsistentSet, [("types", "tuple[Fraction, ...]"), ("all_of_unit_interval", "bool", False)],
         ((F(0), F(1, 2)),), ((), True), {"types": (F(0),)}),
        (OrderVerdict, [("relation", "str"), ("holds", "bool"), ("witness", "object", None)],
         ("lc", True), ("sep", False, (F(0), [(F(0), True, F(1), True)])), {"holds": False}),
        (SeparatingInstance, [("s_star", "Fraction"), ("payoff", "StepFunction"), ("prior", "Fraction"), ("game_lo", "GameSpec"),
                              ("game_hi", "GameSpec"), ("value_lo", "Fraction"), ("sup_value_hi", "Fraction")],
         field_values(witnesses[0]), field_values(witnesses[1]), {"value_lo": F(0)}),
    ]
    return {entry[0].__name__: entry for entry in listed}


def twin_of(cls, fields):
    """A frozen dataclass on the type's dataclass fields, overriding the record's protocol."""
    spec = [(name, annotation, dataclasses.field(default=default[0]) if default else dataclasses.field())
            for name, annotation, *default in fields]
    return dataclasses.make_dataclass(cls.__name__, spec, bases=(cls,), frozen=True)


@pytest.fixture(params=IDS)
def case(request, cases):
    cls, fields, a, b, changes = cases[request.param]
    return cls, twin_of(cls, fields), [name for name, *_ in fields], a, b, changes


def outcome(call):
    """What a call returns or raises, as something to compare."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the exception itself is the outcome
        return type(exc), str(exc)


def test_all_thirteen_value_types_are_records(cases):
    assert len(cases) == 13 and list(cases) == IDS
    for cls, *_ in cases.values():
        assert Record in cls.__mro__ and not dataclasses.is_dataclass(cls)


def test_signature_fields_and_match_args(case):
    cls, twin, names, *_ = case
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls._fields == cls.__match_args__ == tuple(names)


def test_repr_eq_and_hash(case):
    cls, twin, _, a, b, _ = case
    for args in (a, b):
        record, copy, other = cls(*args), cls(*args), twin(*args)
        assert repr(record) == repr(other)
        assert record == copy and not record != copy
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(other)) == outcome(lambda: hash(copy))
    assert (cls(*a) == cls(*b)) is (twin(*a) == twin(*b)) is False
    assert cls(*a) != cls(*b)


def test_equal_fields_across_classes_are_unequal(case):
    cls, twin, names, a, *_ = case
    record, other = cls(*a), twin(*a)
    assert [getattr(record, name) for name in names] == [getattr(other, name) for name in names]
    assert record != other and other != record and not record == other
    assert record != field_values(record)


def test_frozen_assignment_and_deletion(case):
    cls, twin, names, a, *_ = case
    record, other = cls(*a), twin(*a)
    for name in (*names, "not_a_field"):
        for change in (lambda obj: setattr(obj, name, None), lambda obj: delattr(obj, name)):
            got, want = outcome(lambda: change(record)), outcome(lambda: change(other))
            assert issubclass(got[0], AttributeError) and issubclass(want[0], AttributeError)
            assert got[1] == want[1]
    assert repr(record) == repr(twin(*a))


def test_constructor_type_errors(case):
    cls, twin, names, a, *_ = case
    assert repr(cls(**dict(zip(names, a)))) == repr(twin(**dict(zip(names, a)))) == repr(cls(*a))
    calls = [
        ((), {}),  # missing
        (a, {"not_a_field": 1}),  # unknown keyword
        (a, {names[0]: a[0]}),  # repeated
        ((*a, *[None] * (len(names) + 1 - len(a))), {}),  # too many positional
    ]
    for args, kwargs in calls:
        got, want = outcome(lambda: cls(*args, **kwargs)), outcome(lambda: twin(*args, **kwargs))
        assert got[0] is want[0] is TypeError
        assert got[1] == want[1]


def test_replace_matches_dataclasses_replace(case):
    cls, twin, _, a, b, changes = case
    for args in (a, b):
        record, other = cls(*args), twin(*args)
        assert repr(record.replace(**changes)) == repr(dataclasses.replace(other, **changes))
        assert record.replace() == record and record.replace() is not record
        assert type(record.replace(**changes)) is cls
    assert outcome(lambda: cls(*a).replace(not_a_field=1)) == outcome(lambda: cls(*a, not_a_field=1))


def test_cached_and_lazy_values_stay_outside_eq_hash_and_repr():
    built = VerifStructure((("m_0", IntervalUnion((SupportInterval(F(0), F(1)),))),))
    loaded = structure_from_obj({"messages": [{"name": "m_0", "support": [{"lo": "0", "hi": "1"}]}]})
    assert "messages" not in vars(loaded) and built._hulls and built._supports
    assert not hasattr(loaded, "not_a_field") and "messages" not in vars(loaded)  # only messages is built lazily
    assert repr(loaded) == repr(built) and loaded == built and hash(loaded) == hash(built)
    step = StepFunction(*STEP_ARGS)
    game, fresh = GameSpec(step, F(1, 3), built), GameSpec(step, F(1, 3), built)
    assert game._value_hull and game.payoff._table and "_value_hull" in vars(game)
    assert game == fresh and hash(game) == hash(fresh) and repr(game) == repr(fresh)


def test_structure_from_lists_keeps_a_tuple_of_messages():
    # a structure given its messages as a list of lists stores a tuple of
    # (name, support) pairs, as StepFunction, Signal and IntervalUnion store
    # tuples, so it hashes and equals the same structure read back from JSON
    whole, upper = IntervalUnion.from_pairs([(0, 1)]), IntervalUnion.from_pairs([(F(2, 5), 1)])
    built = VerifStructure([["m_0", whole], ["m_1", upper]])
    assert built.messages == (("m_0", whole), ("m_1", upper))
    loaded = structure_from_obj(structure_to_obj(built))
    assert loaded == built and hash(loaded) == hash(built) and repr(loaded) == repr(built)
    assert built == VerifStructure((("m_0", whole), ("m_1", upper)))
