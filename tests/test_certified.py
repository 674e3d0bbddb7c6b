"""Exact-rational enclosures and certified elementary functions."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    iv_fraction,
    iv_precision,
    iv_to_enclosure,
    reference_log_enclosure,
    reference_sqrt_enclosure,
)

from regmatch.certified import (
    DEFAULT_BITS,
    MAX_BITS,
    Enclosure,
    _escalate,
    log_enclosure,
    sqrt_enclosure,
)
from regmatch.errors import DomainError, PrecisionError

ORACLE_BITS = (1, 8, 64, 128, 256, 1024)


def test_enclosure_invariants():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.width == Fraction(1, 6)
    assert e.midpoint == Fraction(5, 12)
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_arithmetic():
    a = Enclosure(Fraction(1), Fraction(2))
    b = Enclosure(Fraction(-1), Fraction(3))
    s = a + b
    assert (s.lo, s.hi) == (0, 5)
    d = a - b
    assert (d.lo, d.hi) == (-2, 3)
    half = a / 2
    assert (half.lo, half.hi) == (Fraction(1, 2), 1)
    neg = -a
    assert (neg.lo, neg.hi) == (-2, -1)
    flipped = a / -2
    assert (flipped.lo, flipped.hi) == (-1, Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_enclosure_comparisons():
    # margins are compared with 0 through their endpoints, as the verdicts do
    a = Enclosure(Fraction(1), Fraction(2))
    assert (a - Enclosure.exact(Fraction(1, 2))).lo > 0
    assert (a - Enclosure.exact(1)).lo == 0
    assert (a - Enclosure.exact(3)).hi < 0
    assert Enclosure.exact(Fraction(7, 2)).width == 0


def test_log_enclosure_brackets_truth():
    # e^lo <= q <= e^hi iff lo <= ln q <= hi; check via exp round trip,
    # with mpmath's interval exp at the same precision as the oracle
    def exp(x: Fraction) -> Enclosure:
        with iv_precision(DEFAULT_BITS) as iv:
            return iv_to_enclosure(iv.exp(iv_fraction(iv, x)))

    for q in (Fraction(2), Fraction(10), Fraction(1, 3), Fraction(19, 64)):
        enc = log_enclosure(q)
        assert enc.width < Fraction(1, 2 ** 100)
        back = exp(enc.lo)
        assert back.lo <= q
        back_hi = exp(enc.hi)
        assert back_hi.hi >= q
    assert log_enclosure(Fraction(1)) == Enclosure.exact(0)


def test_log_enclosure_rejects_nonpositive():
    with pytest.raises(Exception):
        log_enclosure(Fraction(0))
    with pytest.raises(Exception):
        log_enclosure(Fraction(-3))


def test_precision_outside_range_rejected_at_once():
    # libmp never returns at a precision <= 0, and a precision above MAX_BITS
    # would be used as given; the shortcuts (q = 1, exact squares) check too
    for bits in (0, -20, MAX_BITS + 1):
        for q in (Fraction(2), Fraction(1), Fraction(9, 4)):
            with pytest.raises(DomainError):
                log_enclosure(q, bits)
            with pytest.raises(DomainError):
                sqrt_enclosure(q, bits)


def _rationals(low):
    digits = st.integers(low, 10 ** 200)
    return st.builds(Fraction, digits, st.integers(1, 10 ** 200))


@settings(max_examples=150, deadline=None)
@given(_rationals(1), st.sampled_from(ORACLE_BITS))
def test_log_enclosure_matches_the_iv_context_bit_for_bit(q, bits):
    assert log_enclosure(q, bits) == reference_log_enclosure(q, bits)


@settings(max_examples=150, deadline=None)
@given(_rationals(0), st.sampled_from(ORACLE_BITS))
def test_sqrt_enclosure_matches_the_iv_context_bit_for_bit(q, bits):
    assert sqrt_enclosure(q, bits) == reference_sqrt_enclosure(q, bits)


def test_enclosures_ignore_mpmath_global_precision():
    qs = (Fraction(2), Fraction(1, 3), Fraction(10 ** 40 + 1, 7 ** 30))
    default = [(log_enclosure(q, bits), sqrt_enclosure(q, bits))
               for q in qs for bits in ORACLE_BITS]
    iv_prec, mp_prec = mpmath.iv.prec, mpmath.mp.prec
    try:
        mpmath.iv.prec, mpmath.mp.prec = 7, 33
        assert [(log_enclosure(q, bits), sqrt_enclosure(q, bits))
                for q in qs for bits in ORACLE_BITS] == default
        assert (mpmath.iv.prec, mpmath.mp.prec) == (7, 33)
    finally:
        mpmath.iv.prec, mpmath.mp.prec = iv_prec, mp_prec


def test_sqrt_enclosure_exact_squares():
    e = sqrt_enclosure(Fraction(9, 4))
    assert e.lo == e.hi == Fraction(3, 2)
    e = sqrt_enclosure(Fraction(2))
    assert e.width > 0
    assert e.lo ** 2 <= 2 <= e.hi ** 2


def test_escalation_runs_until_success():
    calls = []

    def attempt(bits):
        calls.append(bits)
        return "ok" if bits >= 512 else None

    result, bits = _escalate(attempt, lambda r: r is not None, DEFAULT_BITS)
    assert result == "ok"
    assert bits == 512
    assert calls == [128, 256, 512]


def test_escalation_gives_up():
    calls = []

    def attempt(bits):
        calls.append(bits)
        return None

    result, bits = _escalate(attempt, lambda r: r is not None, DEFAULT_BITS)
    assert result is None
    assert bits == MAX_BITS
    assert calls == [128, 256, 512, 1024]


def test_escalation_treats_a_precision_error_as_unsettled():
    calls = []

    def attempt(bits):
        calls.append(bits)
        if bits < 512:
            raise PrecisionError(f"unusable at {bits} bits")
        return bits

    # the first result past the errors, which settles
    assert _escalate(attempt, lambda r: True, DEFAULT_BITS) == (512, 512)
    assert calls == [128, 256, 512]


def test_escalation_raises_a_precision_error_at_the_cap():
    calls = []

    def attempt(bits):
        calls.append(bits)
        raise PrecisionError(f"unusable at {bits} bits")

    with pytest.raises(PrecisionError, match=f"up to the {MAX_BITS}-bit cap: unusable at "
                                             f"{MAX_BITS} bits"):
        _escalate(attempt, lambda r: True, DEFAULT_BITS)
    assert calls == [128, 256, 512, 1024]
