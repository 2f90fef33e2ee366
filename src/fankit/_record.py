"""Value semantics for fankit's record types, written once.

A record class names its fields in `_fields`, in constructor order, and
writes its own `__init__`.  The base gives it equality with records of
the same class only, a `Name(field=value, ...)` repr and `replace`.  A
`FrozenRecord` also hashes by its fields and refuses assignment, so its
`__init__` stores each field through `_set`.

Plain classes, not `dataclasses`: a CLI call imports every record type,
and `dataclasses` costs its own import (with `inspect`, `ast`, `dis` and
`tokenize`) plus one generated and compiled set of methods per class.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """A mutable record: compared by value, so unhashable."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """A new record of the same class with the given fields changed."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)  # an unknown name is a TypeError from __init__
        return self.__class__(**values)


class FrozenRecord(Record):
    """An immutable record, hashed by its fields."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
