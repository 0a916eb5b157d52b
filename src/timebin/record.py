"""Frozen records: the package's value classes, without ``dataclasses``.

A subclass of ``Record`` lists its fields as annotations, in order, and
gives defaults as class attributes.  Records are built from keyword
arguments only, check each field's type and range by ``_RULES`` (the range
kinds are ``NonNegative``, ``Positive``, ``Fraction`` and ``Count``), then run
``__post_init__``, compare and hash by their fields, and refuse assignment
and deletion.  ``check`` words every refusal and checks any named value.

Nothing is generated: every record shares the methods below, so defining
one costs no compilation when the package is imported.
"""

from __future__ import annotations

import sys
from operator import attrgetter

# An error message quotes at most QUOTE_CHARS characters of the input at fault.
QUOTE_CHARS = 200


def clip(text: str) -> str:
    """``text``, an input or a message that quotes one, cut to QUOTE_CHARS characters."""
    return text if len(text) <= QUOTE_CHARS else text[: QUOTE_CHARS - 3] + "..."


def quote(value: object) -> str:
    """``repr(value)`` for an error message, clipped; it never raises on a document's value.

    A value with no repr, an int past the interpreter's digit limit or lists
    nested past the recursion limit, alone or in a list, shows as a stand-in.
    """
    try:
        return clip(repr(value))
    except (ValueError, RecursionError):
        return f"<unprintable {type(value).__name__}>"


def finite(value: object) -> bool:
    """Whether ``value`` is a finite number: an int or a float, not a bool."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    return numeric and abs(value) <= sys.float_info.max  # also refuses NaN and huge ints


# The range kinds: a float or an int to a type checker, a type and a bound to _RULES.
NonNegative = Positive = Fraction = float
Count = int
# Annotation string (never evaluated) -> (test, what the field expects); others go unchecked.
_RULES = {
    "float": (finite, "a finite number"),
    "NonNegative": (lambda v: finite(v) and v >= 0.0, "a finite number >= 0"),
    "Positive": (lambda v: finite(v) and v > 0.0, "a finite number > 0"),
    "Fraction": (lambda v: finite(v) and 0.0 <= v <= 1.0, "a finite number in [0, 1]"),
    "float | None": (lambda v: v is None or finite(v), "a finite number or None"),
    "int": (lambda v: type(v) is int, "an integer"),
    "Count": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "bool": (lambda v: type(v) is bool, "a bool"),
}


def check(kind: str, /, **values: object) -> None:
    """Refuse the first of ``values`` that ``kind``'s rule does not hold, named by its keyword."""
    test, expected = _RULES[kind]
    for name, value in values.items():
        if not test(value):
            raise ValueError(clip(f"{name}: expected {expected}, got {quote(value)}"))


class Record:
    """Base of the frozen records; see the module docstring."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(kinds := cls.__annotations__)  # the class's own, from Python 3.10
        cls._checks = tuple((n, _RULES[k][0], k) for n, k in kinds.items() if k in _RULES)
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
        for name, test, kind in self._checks:
            if not test(values[name]):
                check(kind, **{name: values[name]})  # raises the refusal
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
