"""Matching generating polynomials, the signed matching polynomial, and
complete-graph recursions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (brute_matching_counts, complete_matching_count,
                     reference_matching_counts)
from regmatch import matchpoly
from regmatch.cli import _BUILTIN_GRAPHS
from regmatch.graphs import (
    Graph,
    complete,
    complete_bipartite,
    complete_minus_edge,
    cycle,
    diamond_necklace,
    disjoint_union,
    necklace_cover,
    path_graph,
    petersen,
)
from regmatch.matchpoly import (
    certify_root_bound,
    gen_poly_value,
    log_per_vertex,
    matching_counts,
    matching_gen_poly,
    matching_poly_mu,
    q_complete,
    q_complete_minus_edge,
)
from regmatch.polynomials import Poly
from regmatch.series_bounds import negative_lambda_sandwich, verify_inequality


def test_matching_counts_known():
    assert matching_counts(complete(4)) == (1, 6, 3)
    assert matching_counts(cycle(6)) == (1, 6, 9, 2)
    assert matching_counts(path_graph(4)) == (1, 3, 1)
    assert matching_counts(petersen()) == (1, 15, 75, 145, 90, 6)
    assert matching_counts(Graph(1, [])) == (1,)
    assert matching_counts(Graph(0, [])) == (1,)


def test_matching_counts_against_brute_corpus(cubic_by_n, quartic_by_n):
    for g in cubic_by_n[6] + cubic_by_n[8] + quartic_by_n[7] + quartic_by_n[8]:
        assert matching_counts(g) == brute_matching_counts(g)


def test_matching_counts_against_brute_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        assert matching_counts(g) == brute_matching_counts(g)


def test_component_multiplicativity():
    a, b = cycle(5), path_graph(3)
    prod = matching_gen_poly(a) * matching_gen_poly(b)
    assert matching_gen_poly(disjoint_union(a, b)) == prod


def test_complete_graph_formula():
    # up to the DP's width cap: K_n has frontier width n - 1
    for n in range(matchpoly._MAX_FRONTIER_WIDTH + 2):
        got = matching_counts(complete(n))
        assert len(got) == n // 2 + 1
        for r, coeff in enumerate(got):
            assert coeff == complete_matching_count(n, r)


def test_q_complete_matches_direct():
    for n in range(15):
        assert q_complete(n) == matching_gen_poly(complete(n))
    # recursion q_n = q_{n-1} + (n-1) x q_{n-2}
    x = Poly.x()
    for n in range(2, 12):
        assert q_complete(n) == q_complete(n - 1) + (n - 1) * x * q_complete(n - 2)


def test_q_complete_minus_edge():
    for n in range(2, 10):
        assert q_complete_minus_edge(n) == matching_gen_poly(complete_minus_edge(n))
        assert q_complete_minus_edge(n) == q_complete(n - 1) + (n - 2) * Poly.x() * q_complete(n - 2)


def test_mu_transform():
    # mu(G, x) = sum (-1)^k m_k x^(n-2k)
    mu = matching_poly_mu(complete(4))
    assert mu == Poly([3, 0, -6, 0, 1])
    mu5 = matching_poly_mu(cycle(5))
    assert mu5 == Poly([0, 5, 0, -5, 0, 1])


def test_certify_root_bound():
    # Petersen: largest root of mu is 2.6314... < 2 sqrt 2 = 2.8284...
    assert certify_root_bound(petersen(), 3)
    # K_{1,4}: mu = x^3 (x^2 - 4); p(y) = y^2 - 4y has a root at 4(d-1) = 4
    assert not certify_root_bound(complete_bipartite(1, 4), 2)
    # K_{1,9}: roots +-3 lie outside (-2, 2)
    assert not certify_root_bound(complete_bipartite(1, 9), 2)


def test_gen_poly_value_matches_poly_call():
    g = petersen()
    poly = matching_gen_poly(g)
    for lam in (Fraction(1, 7), Fraction(3, 2), Fraction(-1, 8), 0, 2):
        assert gen_poly_value(g, lam) == poly(Fraction(lam))


def test_gen_poly_value_positive_negative_domain():
    g = complete(4)
    assert gen_poly_value(g, 1) == 10
    assert gen_poly_value(g, Fraction(-1, 8)) == Fraction(19, 64)


def test_log_per_vertex_encloses_true_value():
    g = complete(4)
    enc = log_per_vertex(g, 1)
    # (1/4) ln 10: squeeze via exp on exact rationals
    assert enc.width < Fraction(1, 10 ** 30)
    mid = enc.midpoint
    # 4 * enc should bracket ln 10: check e^(4 lo) <= 10 <= e^(4 hi) loosely
    assert abs(float(mid) - 0.5756462732485114) < 1e-12


def test_log_per_vertex_rejects_nonpositive():
    from regmatch.errors import DomainError
    g = complete(4)
    assert gen_poly_value(g, -1) == -2
    with pytest.raises(DomainError):
        log_per_vertex(g, Fraction(-1))
    with pytest.raises(DomainError):
        log_per_vertex(Graph(0, []), 1)


def test_diamond_necklace_partition_at_one():
    for k in (2, 3, 4, 5):
        assert gen_poly_value(diamond_necklace(k), 1) == 10 ** k


def test_bipartite_matchings_are_permanent_counts():
    # m_k(K_{a,b}) = C(a,k) C(b,k) k!
    from math import comb, factorial
    got = matching_counts(complete_bipartite(3, 4))
    for k, coeff in enumerate(got):
        assert coeff == comb(3, k) * comb(4, k) * factorial(k)


def test_gen_poly_value_is_exact_fraction():
    # constant polynomials too: the edgeless graph and q_1
    assert type(gen_poly_value(Graph(3, []), 2)) is Fraction
    assert type(gen_poly_value(complete(4), 1)) is Fraction
    assert type(q_complete(1)(Fraction(1, 2))) is Fraction


@st.composite
def graphs_with_relabeling(draw, nmax=8):
    n = draw(st.integers(0, nmax))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), perm


@settings(max_examples=60, deadline=None)
@given(graphs_with_relabeling())
def test_matching_counts_match_brute_force_and_relabeling(case):
    g, perm = case
    counts = matching_counts(g)
    assert counts == brute_matching_counts(g)
    assert matching_counts(g.relabel(perm)) == counts


def test_repeat_evaluation_runs_the_dp_once(monkeypatch):
    """A Graph keeps its matching counts: only its first evaluation runs the
    frontier DP."""
    calls = []
    dp = matchpoly._frontier_counts

    def counting(adj):
        calls.append(adj)
        return dp(adj)

    monkeypatch.setattr(matchpoly, "_frontier_counts", counting)
    g = petersen()
    assert gen_poly_value(g, Fraction(1, 4)) == matching_gen_poly(petersen())(Fraction(1, 4))
    assert len(calls) == 2
    calls.clear()
    for lam in (Fraction(1, 7), Fraction(3, 2), 0, 1):
        gen_poly_value(g, lam)
        log_per_vertex(g, lam or 1)
        verify_inequality(g, 3, lam)
    negative_lambda_sandwich(g, 3, Fraction(-1, 8))
    matching_counts(g), matching_gen_poly(g), matching_poly_mu(g)
    assert calls == []


# ---------------------------------------------------------------------------
# The frontier DP against the deletion recursion

def test_dp_matches_deletion_recursion_on_regular_corpora(
        cubic12, quartic_by_n, fivereg_by_n):
    graphs = [g for n in sorted(cubic12) for g in cubic12[n]]
    graphs += [g for n in sorted(quartic_by_n) for g in quartic_by_n[n]]
    graphs += fivereg_by_n[8]
    assert len(graphs) == (1 + 2 + 5 + 19 + 85) + (1 + 1 + 2 + 6 + 16) + 3
    for g in graphs:
        assert matchpoly._frontier_counts(g.adj) == reference_matching_counts(g)


@pytest.mark.parametrize("name", sorted(_BUILTIN_GRAPHS))
def test_dp_matches_deletion_recursion_on_necklace_covers(name):
    base = _BUILTIN_GRAPHS[name]()
    for k in range(2, 7):
        cover = necklace_cover(base, base.edges[0], k)
        assert matchpoly._frontier_counts(cover.adj) == reference_matching_counts(cover)
