"""Exact solver and verification toolkit for covert acquisition-and-disclosure games."""

from .equilibrium import (
    Equilibrium,
    GameSpec,
    PnbpVerdict,
    Signal,
    ValueResult,
    VerifyReport,
    check_theorem1,
    equilibrium_value,
    pnbp,
    skeptical_value,
    solve,
    verify_equilibrium,
)
from .errors import (
    ConstructionError,
    DomainError,
    GameFileError,
    OracleSizeError,
    PreconditionError,
    UnknownMessageError,
)
from .piecewise import ConcavePL, StepFunction, cav, pl_eval, step_eval
from .rationals import format_rational, parse_rational
from .verifiability import (
    IntervalUnion,
    LowestConsistentSet,
    SupportInterval,
    VerifStructure,
    add_message,
    cheap_talk,
    full_verif,
    lowest_consistent_set,
    mandatory_disclosure,
    messages_at,
    min_inverse,
    partition,
    skeptical_type_map,
    thresholds,
)

__all__ = [
    # equilibrium
    "Equilibrium", "GameSpec", "PnbpVerdict", "Signal", "ValueResult", "VerifyReport", "check_theorem1",
    "equilibrium_value", "pnbp", "skeptical_value", "solve", "verify_equilibrium",
    # errors
    "ConstructionError", "DomainError", "GameFileError", "OracleSizeError", "PreconditionError",
    "UnknownMessageError",
    # piecewise
    "ConcavePL", "StepFunction", "cav", "pl_eval", "step_eval",
    # rationals
    "format_rational", "parse_rational",
    # verifiability
    "IntervalUnion", "LowestConsistentSet", "SupportInterval", "VerifStructure", "add_message", "cheap_talk",
    "full_verif", "lowest_consistent_set", "mandatory_disclosure", "messages_at", "min_inverse", "partition",
    "skeptical_type_map", "thresholds",
]
__version__ = "0.1.0"
