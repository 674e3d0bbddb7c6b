"""Certified numerics: exact rational enclosures and three-way verdicts.

Every inequality reported by this package is decided either by exact
rational arithmetic or by directed-rounding interval arithmetic whose
endpoints are converted back to exact fractions.  The intervals are libmp's
(mpmath.libmp, the mpi_* functions) at an explicit working precision of
bits + _GUARD_BITS, passed to every call; no global precision is read or set.
A comparison that interval arithmetic cannot settle at the precision cap is
reported INCONCLUSIVE, never guessed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

from mpmath import libmp

from .errors import DomainError

DEFAULT_BITS = 128
MAX_BITS = 1024
_GUARD_BITS = 10


class Verdict(enum.Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INCONCLUSIVE = "INCONCLUSIVE"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, x) -> "Enclosure":
        q = Fraction(x)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return self + (-other)

    def __truediv__(self, other) -> "Enclosure":
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("enclosure divided by zero")
        if q > 0:
            return Enclosure(self.lo / q, self.hi / q)
        return Enclosure(self.hi / q, self.lo / q)


def _mpf_to_fraction(raw) -> Fraction:
    if raw in (libmp.finf, libmp.fninf, libmp.fnan):
        raise DomainError("non-finite interval endpoint")
    return Fraction(*libmp.to_rational(raw))


def _enclosure(x) -> Enclosure:
    """The libmp interval x = (lo, hi) as an Enclosure."""
    return Enclosure(_mpf_to_fraction(x[0]), _mpf_to_fraction(x[1]))


def _working_precision(bits: int) -> int:
    """libmp precision for a `bits`-bit result; bits must be 1..MAX_BITS
    (libmp never returns at a precision <= 0)."""
    if not 1 <= bits <= MAX_BITS:
        raise DomainError(f"precision must be 1..{MAX_BITS} bits, got {bits}")
    return bits + _GUARD_BITS


def _interval(q, prec: int):
    """Outward-rounded libmp interval of the rational (or int) q."""
    p, r = q.numerator, q.denominator
    floor, ceiling = libmp.round_floor, libmp.round_ceiling
    return libmp.mpi_div((libmp.from_int(p, prec, floor), libmp.from_int(p, prec, ceiling)),
                         (libmp.from_int(r, prec, floor), libmp.from_int(r, prec, ceiling)),
                         prec)


def log_enclosure(q: Fraction, bits: int = DEFAULT_BITS) -> Enclosure:
    """Rigorous enclosure of ln(q) for a positive rational q."""
    prec = _working_precision(bits)
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"log of non-positive value {q}")
    if q == 1:
        return Enclosure.exact(0)
    return _enclosure(libmp.mpi_log(_interval(q, prec), prec))


def sqrt_enclosure(q: Fraction, bits: int = DEFAULT_BITS) -> Enclosure:
    prec = _working_precision(bits)
    q = Fraction(q)
    if q < 0:
        raise DomainError(f"sqrt of negative value {q}")
    r, exact = _isqrt_frac(q)
    if exact:
        return Enclosure.exact(r)
    return _enclosure(libmp.mpi_sqrt(_interval(q, prec), prec))


def _isqrt_frac(q: Fraction) -> tuple[Fraction, bool]:
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b), True
    return Fraction(0), False


T = TypeVar("T")


def _escalate(attempt: Callable[[int], T], settled: Callable[[T], bool],
              bits: int) -> tuple[T, int]:
    """Run attempt(bits), doubling bits up to MAX_BITS, until settled(result).

    Returns (result, bits_used); at MAX_BITS the last result is returned
    whether or not it settled."""
    while True:
        result = attempt(bits)
        if settled(result) or bits >= MAX_BITS:
            return result, bits
        bits = min(2 * bits, MAX_BITS)
