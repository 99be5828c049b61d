"""Shared error types and the three-valued outcome used by finite-prefix checks."""

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
