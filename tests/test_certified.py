"""Exact-rational enclosures and certified elementary functions."""

from fractions import Fraction

import pytest

from regmatch.certified import (
    DEFAULT_BITS,
    MAX_BITS,
    Enclosure,
    _escalate,
    _iv_precision,
    _iv_to_enclosure,
    log_enclosure,
    sqrt_enclosure,
)


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
        with _iv_precision(DEFAULT_BITS) as iv:
            return _iv_to_enclosure(iv.exp(iv.mpf(x.numerator) / iv.mpf(x.denominator)))

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
