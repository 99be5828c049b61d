"""Shared error types, the three-valued outcome used by finite-prefix checks,
and the kit's rule for a uniform random draw."""

from __future__ import annotations

import enum


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
