"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside the function's domain (beliefs/types live in [0,1])."""


class ConstructionError(ValueError):
    """Invalid data for a structure, builder or game (coverage gaps, bad thresholds...)."""


class UnknownMessageError(KeyError):
    """Lookup of a message name that is not part of the structure."""


class PreconditionError(ValueError):
    """An operation was called outside its stated precondition."""


class OracleSizeError(ValueError):
    """The brute-force oracle refuses instances above its desk-scale bounds."""


class GameFileError(ValueError):
    """Malformed game/structure JSON; message carries a field path diagnostic."""
