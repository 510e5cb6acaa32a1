"""Base classes for the package's records.

A record names its fields in ``__slots__``, in constructor order, and sets
them in its own ``__init__``; nothing is generated at class creation.
"""

from __future__ import annotations


class Record:
    """A slotted record whose repr lists its fields as Name(field=value, ...)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__name__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )


class FrozenRecord(Record):
    """A frozen record: equal to a record of the same class with equal fields,
    and hashed by its fields. Its __init__ sets them with object.__setattr__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))
