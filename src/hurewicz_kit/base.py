"""Shared error types, the three-valued outcome used by finite-prefix checks,
the kit's rule for a uniform random draw, and ``Record``, the immutable
value record that the kit's small result and index types subclass."""

from __future__ import annotations

import enum
import operator


class CapacityError(Exception):
    """A request exceeds the configured combinatorial caps."""


class HorizonError(Exception):
    """An operation needs coordinates beyond the decidable range of a prefix."""

    def __init__(self, required_index: int, message: str | None = None):
        self.required_index = required_index
        super().__init__(
            message or f"coordinate {required_index} is outside the decidable range"
        )


class DomainError(ValueError):
    """A point is decidably outside the domain of a partial map."""


class Record:
    """An immutable value record whose fields are its ``__slots__``.

    Built positionally, fields in slot order; equal to a record of the same
    class with equal fields and hashed as the tuple of its fields, so it
    keys dicts, sets and caches exactly as that tuple would; shown as
    ``Name(field=value, ...)``; copied and pickled by rebuilding it from
    its fields.  Assigning or deleting a field raises ``AttributeError``.
    A subclass needs two fields or more: the fields are read by one
    ``operator.attrgetter``, which returns a bare value, not a tuple, for
    a single name.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__name__} needs two fields or more")
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the refused setattr
        return type(self), self._fields(self)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Tri(enum.Enum):
    """Outcome of a membership or comparison test on finite data.

    Finite prefixes cannot always decide a question; UNKNOWN is a first-class
    answer, never an error.
    """

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        # forbid accidental `if in_domain(...)`: compare against members instead
        raise TypeError("tri-state outcome is not a boolean")


def _below(getrandbits, n: int) -> int:
    """A draw in [0, n), n >= 1, by CPython's rule for ``randrange(n)``: k =
    n.bit_length() bits, drawn again while they read n or more.  Python
    promises only ``random()``'s sequence across versions, so the kit owns
    this rule and its samples depend on ``getrandbits`` alone.
    ``seq[_below(bits, len(seq))]`` is ``choice(seq)`` by the same rule."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r
