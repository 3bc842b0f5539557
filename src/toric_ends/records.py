"""Immutable value records, without dataclasses.

A record lists its fields in __slots__.  A record with checks, or one built
in a hot loop, sets each field once in its own __init__ with `setfield`,
because assignment raises; any other takes the fields in order.  Records
compare and hash by class and fields, leaving out a `context` field, and
their repr reads Name(field=value, ...).  Importing dataclasses and
processing a frozen dataclass took most of the package's import time.
"""

setfield = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):  # repr shows __slots__ unless a class names _fields
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._compared = tuple(f for f in cls._fields if f != "context")

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple(named.pop(f) for f in fields[len(values):] if f in named)
        if len(values) != len(fields) or named:
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(fields)}")
        for field, value in zip(fields, values):
            setfield(self, field, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
