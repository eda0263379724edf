"""Frozen records: the base of the package's value types.

A record's fields are the parameters of its class's own ``__init__``, whose
body is one call, ``self._store(<fields>)``: it stores each value with
``set_field`` (``object.__setattr__``, as a frozen dataclass's generated
``__init__`` does) and then runs ``__post_init__`` where the class has one,
looked up on the class at each call (so a hook patched onto the class
runs too).  Importing this module costs next to nothing, where
``dataclasses`` imports ``inspect``, ``ast``, ``dis`` and ``tokenize`` and
compiles several functions per class.  The base gives what a frozen
dataclass had: a repr of the fields, ``==`` between instances of the same
class on the field tuple, the hash of that tuple, no assignment or
deletion, ``__match_args__``, and ``replace``, a copy with some fields
changed.  Attributes that are not fields (cached properties, values set in
``__post_init__``) stay outside all of these; they are stored with
``set_field`` too.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    """Frozen value type; subclasses define ``__init__(self, <fields>)`` calling ``self._store(<fields>)``."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
        # postponed annotations make `-> None` the string 'None'; keep the object, as in a dataclass's signature
        cls.__init__.__annotations__["return"] = None

    def _store(self, *values) -> None:
        """Store the values as the fields, in order, then run the class's __post_init__ if it has one."""
        for name, value in zip(self._fields, values):
            set_field(self, name, value)
        post_init = getattr(type(self), "__post_init__", None)
        if post_init is not None:
            post_init(self)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record of the same class: these fields changed, the others as here, and __post_init__ run again."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
