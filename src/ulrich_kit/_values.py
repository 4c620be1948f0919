"""Value types without generated code.

Every value type of the kit is a plain class with ``__slots__`` and its
own ``__init__``.  ``Record`` gives it, read off its slots once per
class, what ``dataclasses`` would build as source text and compile on
every start: equality by fields, the repr ``Name(field=value, ...)``,
no hash, and copies and pickles that rebuild through ``__init__``.
``Frozen`` adds the hash of the field tuple and refuses assignment, so
its ``__init__``s set their fields through ``set_field``.  The sheaf
descriptors, built and hashed in the oracles' loops, write out their
own ``__eq__`` and ``__hash__``, which by ``timeit`` cost a half to a
sixth of the generic ones.
"""

from __future__ import annotations

import sys
from operator import attrgetter


# ``object.__setattr__`` under a module-level name, which a frozen
# ``__init__`` reads faster than the attribute
set_field = object.__setattr__


class _Field:
    """An entry of ``__dataclass_fields__``: what ``dataclasses.fields``,
    ``replace`` and ``asdict`` read of a field, so that they still take a
    value type.  The field-kind marker is looked up in ``dataclasses``
    when they ask for it; their caller has imported it."""

    __slots__ = ("name",)
    init = True

    def __init__(self, name: str) -> None:
        self.name = name

    @property
    def _field_type(self):
        return sys.modules["dataclasses"]._FIELD


class Record:
    """A mutable value: equal to a value of its own class with equal
    fields, in ``__slots__`` order; unhashable."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        if names:  # Frozen below adds no field
            get = attrgetter(*names)
            cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
            cls.__dataclass_fields__ = {name: _Field(name) for name in names}

    def __eq__(self, other):
        if other is self:  # as a field tuple compares to itself: equal
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class Frozen(Record):
    """An immutable value: hashed as the tuple of its fields, and no
    field is assigned or deleted after ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
