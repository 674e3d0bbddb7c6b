"""Exception types shared across the toolkit."""

from __future__ import annotations


class RegmatchError(Exception):
    """Base class for all toolkit-specific errors."""


class Graph6ParseError(RegmatchError):
    """Malformed graph6 input.

    Carries the byte offset of the first invalid byte and, when parsing
    multi-line input, the 1-based line number.
    """

    def __init__(self, message: str, offset: int, line: int | None = None):
        self.offset = offset
        self.line = line
        where = f"byte {offset}" if line is None else f"line {line}, byte {offset}"
        super().__init__(f"{message} ({where})")


class CapacityError(RegmatchError):
    """A request exceeds a documented desk-scale cap."""


class NoGraphsError(RegmatchError):
    """The requested graph family is empty (e.g. n*d odd)."""


class DomainError(RegmatchError):
    """An argument lies outside the guaranteed domain of a bound or formula."""


class ConvergenceError(RegmatchError):
    """An iterative routine failed to converge within its iteration cap."""


class PrecisionError(RegmatchError):
    """An enclosure stays too wide to use at the precision asked for."""
