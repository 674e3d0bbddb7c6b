"""Exact polynomial arithmetic and Sturm root counting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_poly_divmod

from regmatch.polynomials import (
    Poly,
    _scaled_horner,
    count_distinct_real_roots,
    count_real_roots_with_multiplicity,
    poly_divmod,
    poly_gcd,
    squarefree_decomposition,
    squarefree_part,
    sturm_chain,
)

X = Poly([0, 1])


def root(r) -> Poly:
    """x - r"""
    return Poly([-r, 1])


def test_construction_trims_leading_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0]).is_zero()
    assert Poly([]).degree == -1
    assert Poly([0, 0, 5]).degree == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12),
       st.integers(-10 ** 40, 10 ** 40),
       st.one_of(st.integers(1, 10 ** 20), st.integers(0, 200).map(lambda e: 1 << e)))
def test_scaled_horner_is_the_scaled_fraction_value(coeffs, p, q):
    # q a power of two takes the shifting branch, any other q the multiplying one
    value = _scaled_horner(coeffs, p, q)
    assert value == Poly(coeffs)(Fraction(p, q)) * q ** max(len(coeffs) - 1, 0)
    assert type(value) is int


def test_arithmetic_basics():
    p = Poly.const(1) + 2 * X + 3 * X ** 2
    q = root(1)
    assert p + q == Poly([0, 3, 3])
    assert p - p == Poly([])
    assert (p * q)(Fraction(7, 3)) == p(Fraction(7, 3)) * q(Fraction(7, 3))
    assert root(-1) ** 3 == Poly([1, 3, 3, 1])
    assert p * X ** 2 == Poly([0, 0, 1, 2, 3])
    assert p.derivative() == Poly([2, 6])


def test_divmod_reconstructs():
    a = Poly([3, -2, 0, 7, 1])
    b = Poly([1, 4, 2])
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


_COEFF = st.one_of(st.just(0), st.integers(-9, 9),
                   st.fractions(-9, 9, max_denominator=6), st.integers(-10 ** 20, 10 ** 20))


@st.composite
def division_pairs(draw):
    """(a, b) with b nonzero, degree 0 included, and a = q*b + r for drawn q
    and r: zeros in q cancel leading terms mid-division, and an empty q
    makes a shorter than b."""
    low = draw(st.lists(_COEFF, max_size=4))
    b = Poly(low + [draw(_COEFF.filter(bool))])
    q = Poly(draw(st.lists(_COEFF, max_size=6)))
    r = Poly(draw(st.lists(_COEFF, max_size=b.degree)))
    return q * b + r, b


@settings(max_examples=200, deadline=None)
@given(division_pairs())
def test_divmod_matches_the_reference_division(pair):
    a, b = pair
    q, r = poly_divmod(a, b)
    assert (q, r) == reference_poly_divmod(a, b)
    assert q * b + r == a and r.degree < b.degree


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly([1]), Poly([]))


def test_gcd_of_products():
    a = root(1) * root(2)
    b = root(1) * root(-5)
    g = poly_gcd(a, b).monic()
    assert g == root(1).monic()


def test_squarefree_decomposition():
    p = root(1) ** 3 * root(-2) ** 2 * root(5)
    parts = squarefree_decomposition(p)
    by_mult = {m: f.monic() for f, m in parts if f.degree > 0}
    assert by_mult[3] == root(1).monic()
    assert by_mult[2] == root(-2).monic()
    assert by_mult[1] == root(5).monic()
    assert squarefree_part(p).monic() == (root(1) * root(-2) * root(5)).monic()


def test_sturm_chain_sign_structure():
    p = root(1) * root(3) * root(-2)
    chain = sturm_chain(p)
    assert chain[0] == p
    assert chain[1] == p.derivative()
    assert chain[-1].degree == 0


def test_distinct_real_root_counts():
    p = root(1) * root(3) * root(-2)
    assert count_distinct_real_roots(p) == 3
    assert count_distinct_real_roots(p, 0, 2) == 1
    assert count_distinct_real_roots(p, Fraction(-5), Fraction(0)) == 1
    # x^2 + 1 has no real roots
    assert count_distinct_real_roots(Poly([1, 0, 1])) == 0


def test_root_count_with_multiplicity():
    p = root(1) ** 4 * root(-2)
    assert count_distinct_real_roots(p) == 2
    assert count_real_roots_with_multiplicity(p) == 5
    assert count_real_roots_with_multiplicity(p, 0, 10) == 4


def test_root_endpoints_rejected():
    p = root(1) * root(2)
    assert count_distinct_real_roots(p, 0, 3) == 2
    assert count_distinct_real_roots(p, Fraction(3, 2), 3) == 1
    with pytest.raises(ValueError):
        count_distinct_real_roots(p, 1, 3)
    with pytest.raises(ValueError, match="endpoint 2 is a root"):
        count_distinct_real_roots(p, 3, 2)  # even when lo >= hi


_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _factored(draw):
    """c * prod (x - r_i)^m_i, perhaps times x^2 + 1, with its real roots."""
    roots = draw(st.lists(_RATIONALS, min_size=1, max_size=4, unique=True))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(roots),
                          max_size=len(roots)))
    p = Poly.const(draw(_RATIONALS.filter(bool)))
    for r, m in zip(roots, mults):
        p = p * root(r) ** m
    if draw(st.booleans()):
        p = p * Poly([1, 0, 1])
    return p, dict(zip(roots, mults))


@settings(max_examples=60, deadline=None)
@given(_factored(), st.one_of(st.none(), _RATIONALS), st.one_of(st.none(), _RATIONALS))
def test_root_counts_match_known_factorization(case, lo, hi):
    p, roots = case
    assert count_distinct_real_roots(p) == len(roots)
    assert count_real_roots_with_multiplicity(p) == sum(roots.values())
    if lo in roots or hi in roots:
        for count in (count_distinct_real_roots, count_real_roots_with_multiplicity):
            with pytest.raises(ValueError):
                count(p, lo, hi)
        return
    # unordered endpoints give the empty interval
    inside = {r: m for r, m in roots.items()
              if (lo is None or lo < r) and (hi is None or r < hi)}
    assert count_distinct_real_roots(p, lo, hi) == len(inside)
    assert count_real_roots_with_multiplicity(p, lo, hi) == sum(inside.values())


@settings(max_examples=60, deadline=None)
@given(_factored())
def test_squarefree_decomposition_matches_known_factorization(case):
    p, roots = case
    by_mult = {}
    for r, m in roots.items():
        by_mult[m] = by_mult.get(m, Poly.const(1)) * root(r)
    if p.degree > sum(roots.values()):  # the factor x^2 + 1
        by_mult[1] = by_mult.get(1, Poly.const(1)) * Poly([1, 0, 1])
    parts = squarefree_decomposition(p)
    assert parts == [(by_mult[m].monic(), m) for m in sorted(by_mult)]
    product = Poly.const(p.leading)
    for f, m in parts:
        product = product * f ** m
    assert product == p
    distinct = Poly.const(1)
    for f in by_mult.values():
        distinct = distinct * f
    assert squarefree_part(p) == distinct.monic()


def test_empty_interval_has_no_roots():
    p = root(-1)
    assert count_distinct_real_roots(p, 0, -2) == 0
    assert count_real_roots_with_multiplicity(p, 0, -2) == 0
    assert count_real_roots_with_multiplicity(p ** 2, 0, -2) == 0
    assert count_distinct_real_roots(p, 3, 3) == 0


def test_rational_coefficients_exactness():
    p = Poly([Fraction(1, 3), Fraction(-7, 2), 1])
    disc_roots = count_distinct_real_roots(p)
    # discriminant 49/4 - 4/3 > 0: two real roots
    assert disc_roots == 2
