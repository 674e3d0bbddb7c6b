"""Transfer matrices, necklace trace identities, and the Q_d root."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_critical_constant, reference_trace_power
from regmatch.errors import DomainError
from regmatch.graphs import (
    Graph,
    complete,
    cycle,
    diamond,
    diamond_necklace,
    isomorphic,
    necklace_cover,
    petersen,
    prism,
)
from regmatch.matchpoly import gen_poly_value, matching_gen_poly
from regmatch.necklace import (
    critical_constant,
    discriminant,
    necklace_partition_via_trace,
    pd_direct,
    qd_alternate,
    qd_coefficient_checks,
    qd_direct,
    qd_recursive,
    reduced_discriminant,
    transfer_matrix,
)
from regmatch.polynomials import Poly

X = Poly([0, 1])


def test_transfer_matrix_entries_k4():
    tm = transfer_matrix(complete(4), 0, 1)
    assert tm.minus_edge == Poly([1, 5, 2])
    assert tm.minus_u == Poly([1, 3])
    assert tm.minus_v == Poly([1, 3])
    assert tm.minus_both == Poly([1, 1])


def test_trace_is_edge_recurrence():
    # M(G) = M(G-e) + lam M(G-u-v)
    for g, (u, v) in [(complete(4), (0, 1)), (petersen(), (0, 1)),
                      (prism(), (0, 1)), (diamond(), diamond().edges[0])]:
        tm = transfer_matrix(g, u, v)
        assert tm.trace_poly() == matching_gen_poly(g)


def test_transfer_matrix_needs_edge():
    with pytest.raises(DomainError):
        transfer_matrix(petersen(), 0, 2)


def test_trace_power_equals_cover_polynomial():
    cases = [
        (complete(2), (0, 1)),
        (cycle(3), (0, 1)),
        (complete(4), (0, 1)),
        (diamond(), diamond().edges[0]),
    ]
    for g, (u, v) in cases:
        tm = transfer_matrix(g, u, v)
        for k in (2, 3):
            cover = necklace_cover(g, (u, v), k)
            assert necklace_partition_via_trace(tm, k) == matching_gen_poly(cover)


_BUILTIN_BASES = [
    (complete(2), (0, 1)),
    (cycle(3), (0, 1)),
    (complete(4), (0, 1)),
    (diamond(), (0, 2)),
    (petersen(), (0, 1)),
    (prism(), (0, 1)),
]


def test_trace_recurrence_matches_matrix_powers():
    for g, (u, v) in _BUILTIN_BASES:
        tm = transfer_matrix(g, u, v)
        for k in range(2, 13):
            assert necklace_partition_via_trace(tm, k) == reference_trace_power(tm, k)


@st.composite
def graphs_with_edge(draw):
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    u, v = draw(st.sampled_from(sorted(edges)))
    if draw(st.booleans()):
        u, v = v, u
    return Graph(n, edges), u, v, draw(st.integers(2, 6))


@settings(max_examples=60, deadline=None)
@given(graphs_with_edge())
def test_trace_recurrence_matches_matrix_powers_random(case):
    g, u, v, k = case
    tm = transfer_matrix(g, u, v)
    assert necklace_partition_via_trace(tm, k) == reference_trace_power(tm, k)


def test_k4_necklace_is_diamond_necklace():
    for k in (2, 3):
        cover = necklace_cover(complete(4), (0, 1), k)
        assert isomorphic(cover, diamond_necklace(k))


def test_trace_power_rejects_small_k():
    tm = transfer_matrix(complete(4), 0, 1)
    with pytest.raises(DomainError):
        necklace_partition_via_trace(tm, 1)


def test_discriminant_known_values():
    # det B for K_4 is 2(lam^4 - lam^3); for C_3 it is -lam^3
    assert discriminant(complete(4), 0, 1) == Poly([0, 0, 0, -2, 2])
    assert discriminant(cycle(3), 0, 1) == Poly([0, 0, 0, -1])
    assert reduced_discriminant(complete(4), 0, 1) == Poly([0, 0, -2, 2])
    assert reduced_discriminant(cycle(3), 0, 1) == Poly([0, 0, -1])


def test_discriminant_sign_gives_trichotomy():
    # value of M(necklace_k) against M(K_4)^k follows -sign(det B)
    value = {lam: gen_poly_value(complete(4), lam)
             for lam in (Fraction(1, 2), Fraction(2), Fraction(1))}
    det = discriminant(complete(4), 0, 1)
    for k in (2, 3):
        neck = matching_gen_poly(diamond_necklace(k))
        assert det(Fraction(1, 2)) < 0
        assert neck(Fraction(1, 2)) > value[Fraction(1, 2)] ** k
        assert det(Fraction(2)) > 0
        assert neck(Fraction(2)) < value[Fraction(2)] ** k
        assert det(Fraction(1)) == 0
        assert neck(Fraction(1)) == value[Fraction(1)] ** k == 10 ** k


def test_pd_matches_split_complete_graph():
    for d in range(2, 7):
        assert X * pd_direct(d) == discriminant(complete(d + 1), 0, 1)


def test_pd_is_scaled_qd():
    # P_d = -(d-1) lam Q_d
    for d in range(2, 10):
        assert pd_direct(d) == -(d - 1) * X * qd_direct(d)


def test_pd_smallest_cases():
    assert pd_direct(2) == Poly([0, 0, -1])
    assert pd_direct(3) == Poly([0, 0, -2, 2])
    with pytest.raises(DomainError):
        pd_direct(1)


def test_qd_known_value():
    # Q_5 = q_5 q_3 - q_4^2 worked out by hand
    assert qd_direct(5) == Poly([0, 1, 3, 9, -9])
    assert qd_direct(3) == Poly([0, 1, -1])
    assert qd_direct(2) == Poly([0, 1])


def test_qd_recursions_agree():
    for d in range(3, 16):
        assert qd_recursive(d) == qd_direct(d)
    for d in range(5, 16):
        assert qd_alternate(d) == qd_direct(d)
    with pytest.raises(DomainError):
        qd_recursive(2)
    with pytest.raises(DomainError):
        qd_alternate(4)


def test_qd_coefficient_structure():
    for d in (5, 7, 9, 11, 13, 15):
        report = qd_coefficient_checks(d)
        assert report.ok
        assert report.top == report.top_expected
        assert report.next_to_top == report.next_expected
        assert report.at_d_minus_3 == report.at_d_minus_3_expected
    r5 = qd_coefficient_checks(5)
    assert (r5.top, r5.next_to_top, r5.at_d_minus_3) == (-9, 9, 3)
    with pytest.raises(DomainError):
        qd_coefficient_checks(4)
    with pytest.raises(DomainError):
        qd_coefficient_checks(3)


def test_critical_constant_c3_exact():
    c3 = critical_constant(3)
    assert c3.exact
    assert c3.lo == c3.hi == 1
    assert c3.width == 0


def test_critical_constant_brackets_certified():
    for d in (5, 7):
        c = critical_constant(d)
        assert not c.exact
        assert c.width <= Fraction(1, 10 ** 10)
        assert c.q_lo > 0 > c.q_hi
        q = qd_recursive(d)
        assert q(c.lo) == c.q_lo and q(c.hi) == c.q_hi
    wide = critical_constant(5, width=Fraction(1, 1000))
    assert wide.width <= Fraction(1, 1000)
    assert wide.lo <= critical_constant(5).midpoint <= wide.hi


def test_critical_constant_c5_value():
    c5 = critical_constant(5)
    assert abs(c5.midpoint - Fraction("1.317124345")) < Fraction(1, 10 ** 8)


def test_critical_constant_premises_hold():
    # Q_d = lam R(lam), R(0) = 1, one sign change in R's coefficients, and
    # Q_d(1) = 0 only at d = 3: what critical_constant checks at run time
    for d in range(3, 202, 2):
        q = qd_recursive(d)
        assert q[0] == 0 and q[1] == 1
        signs = [c > 0 for c in q.coeffs[1:] if c != 0]
        assert sum(a != b for a, b in zip(signs, signs[1:])) == 1
        assert (q(1) == 0) if d == 3 else (q(1) > 0)


def test_critical_constant_rejects_nonpositive_width():
    for width in (0, -1, Fraction(-1, 10 ** 10)):
        with pytest.raises(DomainError):
            critical_constant(5, width=width)


def test_critical_constant_matches_fraction_reference():
    for width in (Fraction(1, 10 ** 10), Fraction(1, 10 ** 40)):
        for d in range(3, 62, 2):
            assert critical_constant(d, width) == reference_critical_constant(d, width)


def test_critical_constant_domain():
    with pytest.raises(DomainError):
        critical_constant(4)
    with pytest.raises(DomainError):
        critical_constant(1)
