"""Frozen records: the package's value classes, without ``dataclasses``.

A subclass of ``Record`` lists its fields as annotations, in order, and
gives defaults as class attributes.  Records are built from keyword
arguments only, run ``__post_init__`` to validate, compare and hash by
their fields, and refuse assignment and deletion.

Nothing is generated: every record shares the methods below, so defining
one costs no compilation when the package is imported.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the frozen records; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # the class's own, from Python 3.10
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        # The fields' values: a tuple, or the value itself for one field.
        cls._key_of = attrgetter(*cls._fields)

    def __init__(self, **kwargs) -> None:
        values = self.__dict__
        values.update(self._defaults)
        values.update(kwargs)
        if values.keys() != self._field_set:
            raise TypeError(self._argument_error())
        self.__post_init__()

    def _argument_error(self) -> str:
        """What is wrong with the arguments ``__init__`` refused, read from what it stored."""
        name, given = type(self).__qualname__, self.__dict__
        unknown = [key for key in given if key not in self._field_set]
        if unknown:
            return f"{name}() got an unexpected keyword argument {unknown[0]!r}"
        missing = [key for key in self._fields if key not in given]
        return f"{name}() missing required argument(s): {', '.join(map(repr, missing))}"

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key_of(self) == other._key_of(other)

    def __hash__(self) -> int:
        return hash(self._key_of(self))

    def __repr__(self) -> str:
        values = self.__dict__
        shown = ", ".join(f"{name}={values[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __replace__(self, **changes):
        return replace(self, **changes)


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with ``changes`` applied, validated again."""
    return type(record)(**{**asdict(record), **changes})


def asdict(record: Record) -> dict[str, object]:
    """The fields of ``record`` by name, in order; values are not converted."""
    return {name: record.__dict__[name] for name in record._fields}
