"""Path trees, tree-like walk counts, and power sums via Newton identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_walks_by_power,
    count_simple_paths_from,
    truncated_tree_adj,
)
from regmatch.errors import CapacityError, DomainError
from regmatch.graphs import Graph, complete, cycle, diamond, path_graph, petersen
from regmatch.matchpoly import matching_gen_poly
from regmatch.walks import (
    build_path_tree,
    closed_walks_at_root,
    graph_power_sums,
    infinite_tree_power_sums,
    power_sums_newton,
    tree_like_walk_total,
)

SMALL = [complete(4), cycle(5), path_graph(4), diamond(), complete(5), petersen()]


def test_path_tree_size_counts_simple_paths():
    for g in SMALL:
        for root in range(g.n):
            tree = build_path_tree(g, root)
            assert tree.size == count_simple_paths_from(g, root)


def test_path_tree_of_tree_is_itself():
    g = path_graph(5)
    tree = build_path_tree(g, 0)
    assert tree.size == 5
    assert tree.parent == (-1, 0, 1, 2, 3)
    assert tree.last == (0, 1, 2, 3, 4)


def test_path_tree_cap(monkeypatch):
    monkeypatch.setattr("regmatch.walks._PATH_TREE_CAP", 10)
    with pytest.raises(CapacityError):
        build_path_tree(petersen(), 0)


def test_cut_path_tree_keeps_short_closed_walks():
    for g in SMALL:
        for root in range(g.n):
            full = build_path_tree(g, root)
            for k in range(5):
                cut = build_path_tree(g, root, depth=k)
                assert cut.size <= full.size
                for length in range(2 * k + 1):
                    assert closed_walks_at_root(cut, length) == \
                        closed_walks_at_root(full, length)
    assert build_path_tree(petersen(), 0, depth=0).size == 1
    assert build_path_tree(petersen(), 0, depth=1).size == 4


def test_closed_walks_match_matrix_power():
    for g in SMALL[:4]:
        for root in range(g.n):
            tree = build_path_tree(g, root)
            adj = [[] for _ in range(tree.size)]
            for child, parent in enumerate(tree.parent):
                if child:
                    adj[child].append(parent)
                    adj[parent].append(child)
            for length in (2, 4, 6, 8):
                assert closed_walks_at_root(tree, length) == \
                    closed_walks_by_power(adj, 0, length)


def test_walk_total_known_value():
    # total tree-like walks of length 6 in K_4 equals the 6th root power sum
    assert tree_like_walk_total(complete(4), 6) == 324


@st.composite
def graphs_and_lengths(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else ()
    g = Graph(n, edges)
    # the oracle's path trees grow like (max degree)^k: keep them small
    kmax = 6 if max(g.degrees()) <= 4 else 4
    return g, 2 * draw(st.integers(1, kmax))


@settings(max_examples=100, deadline=None)
@given(graphs_and_lengths())
def test_walk_total_equals_path_tree_walks(case):
    g, length = case
    k = length // 2
    assert tree_like_walk_total(g, length) == sum(
        closed_walks_at_root(build_path_tree(g, u, depth=k), length) for u in range(g.n))


def test_walk_total_cap_without_recursion(monkeypatch):
    monkeypatch.setattr("regmatch.walks._PATH_TREE_CAP", 1000)
    with pytest.raises(CapacityError):
        tree_like_walk_total(path_graph(1500), 3000)


def test_walk_total_requires_even_positive():
    with pytest.raises(DomainError):
        tree_like_walk_total(complete(4), 5)
    with pytest.raises(DomainError):
        tree_like_walk_total(complete(4), 0)


def test_walk_total_equals_doubled_power_sums():
    for g in SMALL:
        sums = graph_power_sums(g, 5)
        for k in range(1, 6):
            # sum over roots alpha of alpha^(2k) = 2 sum gamma^k = n * 2a_k
            assert tree_like_walk_total(g, 2 * k) == g.n * sums.doubled(k)


def test_power_sums_from_generic_polynomial():
    # explicit check on K_4: gamma roots of x^2 - 6x + 3 reversed
    sums = power_sums_newton(matching_gen_poly(complete(4)), 4, 3)
    # p_1 = 6, p_2 = 30, p_3 = 162 for gamma solving gamma^2 = 6 gamma - 3
    assert sums.a(1) == Fraction(6, 4)
    assert sums.a(2) == Fraction(30, 4)
    assert sums.a(3) == Fraction(162, 4)
    assert sums.doubled(1) == 3


def test_infinite_tree_against_walk_oracle():
    """a_k of the infinite d-regular tree from the depth-truncated tree by
    independent integer matrix powering."""
    for d in (2, 3, 4, 5):
        sums = infinite_tree_power_sums(d, 6)
        for k in range(1, 7):
            adj = truncated_tree_adj(d, k)
            walks = closed_walks_by_power(adj, 0, 2 * k)
            assert sums.doubled(k) == walks


def test_infinite_tree_frozen_row():
    sums = infinite_tree_power_sums(3, 10)
    row = [sums.doubled(k) for k in range(1, 11)]
    assert row == [3, 15, 87, 543, 3543, 23823, 163719, 1143999, 8099511, 57959535]


def test_power_sums_order_guard():
    sums = graph_power_sums(cycle(4), 3)
    assert sums.order == 3
    with pytest.raises(Exception):
        sums.a(4)
