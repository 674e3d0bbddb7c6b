"""Graph container, graph6 codec, canonical forms, counting, covers,
matching, and corpus generation."""

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DIAMOND,
    FIVE_CYCLE,
    FOUR_CYCLE,
    TRIANGLE,
    brute_count_subgraph,
    brute_max_matching,
    is_connected_edge_list,
    labeled_connected_regular_count,
    labeled_regular_count,
    labeled_regular_graphs,
    reference_canonical_order_masks,
)
from regmatch import graphs as graphs_module
from regmatch.errors import CapacityError, Graph6ParseError, NoGraphsError, RegmatchError
from regmatch.graphs import (
    Graph,
    _canonical_order_masks,
    automorphism_count,
    canonical_form,
    canonical_key,
    circulant,
    complete,
    complete_bipartite,
    complete_minus_edge,
    count_subgraphs,
    cycle,
    diamond,
    diamond_necklace,
    disjoint_union,
    encode_graph6,
    generate_connected_regular,
    generation_cap,
    isomorphic,
    max_matching,
    necklace_cover,
    neighborhood_edge_counts,
    parse_graph6,
    parse_graph6_lines,
    path_graph,
    petersen,
    prism,
)

NAMED = {
    "k4": complete(4),
    "k5": complete(5),
    "k5e": complete_minus_edge(5),
    "k33": complete_bipartite(3, 3),
    "c5": cycle(5),
    "c6": cycle(6),
    "p4": path_graph(4),
    "petersen": petersen(),
    "prism": prism(),
    "diamond": diamond(),
    "circ82": circulant(8, (1, 2)),
}


@st.composite
def small_graphs(draw, nmax):
    n = draw(st.integers(0, nmax))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


# ---------------------------------------------------------------------------
# Container basics

def test_degrees_and_neighbors():
    g = NAMED["diamond"]
    assert sorted(g.degrees()) == [2, 2, 3, 3]
    assert g.regular_degree() is None
    assert complete(4).regular_degree() == 3
    hubs = [v for v in range(4) if g.degree(v) == 3]
    assert g.has_edge(*hubs)
    assert set(g.neighbors(hubs[0])) == set(range(4)) - {hubs[0]}


def test_components_and_connectivity():
    g = disjoint_union(cycle(3), path_graph(2))
    comps = g.components()
    assert sorted(len(c) for c in comps) == [2, 3]
    assert not g.is_connected()
    assert cycle(5).is_connected()


def test_induced_subgraph():
    g = complete(5)
    h = g.induced([0, 2, 4])
    assert h.n == 3
    assert len(h.edges) == 3


def test_relabel_preserves_structure():
    g = NAMED["prism"]
    perm = (3, 4, 5, 0, 1, 2)
    h = g.relabel(perm)
    assert sorted(h.degrees()) == sorted(g.degrees())
    assert isomorphic(g, h)


def test_duplicate_and_loop_edges_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


# ---------------------------------------------------------------------------
# graph6 codec

def test_graph6_known_strings():
    # K_4 is C~, the 4-path is Cr (column-major upper triangle)
    assert encode_graph6(complete(4)) == "C~"
    assert parse_graph6("C~").edges == complete(4).edges
    assert parse_graph6("?").n == 0
    assert encode_graph6(Graph(1, [])) == "@"


def test_graph6_roundtrip_named():
    for g in NAMED.values():
        back = parse_graph6(encode_graph6(g))
        assert back.n == g.n and back.edges == g.edges


def test_graph6_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 13)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        assert parse_graph6(encode_graph6(g)).edges == g.edges


@st.composite
def graph6_graphs(draw):
    n = draw(st.integers(0, 62))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=80)) if pairs else ()
    return Graph(n, edges)


@settings(max_examples=100, deadline=None)
@given(graph6_graphs())
def test_graph6_roundtrip_property(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_error_offsets():
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("~~A")     # long-form header unsupported
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("C")       # truncated body
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("C" + chr(30))   # byte below printable range
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("C~~")     # trailing data
    assert err.value.offset == 2


def test_graph6_padding_must_be_zero():
    # n=2: one adjacency bit, five padding bits
    assert parse_graph6("A_").edges == ((0, 1),)
    assert parse_graph6("A?").edges == ()
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(63 + 1))   # stray padding bit


def test_graph6_lines_reports_line_numbers():
    text = "C~\n\nA_\nC\n"
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6_lines(text)
    assert err.value.line == 4
    parsed = parse_graph6_lines("C~\nA_\n")
    assert [g.n for g in parsed] == [4, 2]


def test_graph6_non_ascii():
    with pytest.raises(Graph6ParseError):
        parse_graph6("Cé")


# ---------------------------------------------------------------------------
# Canonical forms and automorphisms

def test_canonical_invariant_under_relabeling():
    rng = random.Random(11)
    for g in NAMED.values():
        key = canonical_key(g)
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(g.relabel(tuple(perm))) == key


@settings(max_examples=60, deadline=None)
@given(small_graphs(8), st.data())
def test_canonical_key_invariant_under_random_relabeling(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_key(g.relabel(perm)) == canonical_key(g)


def _assert_same_search(n, adj):
    """The cell search and the list-based reference give the same order and
    automorphism count."""
    assert _canonical_order_masks(n, adj) == reference_canonical_order_masks(n, adj)


@settings(max_examples=80, deadline=None)
@given(small_graphs(9))
def test_canonical_search_matches_reference(g):
    _assert_same_search(g.n, g.adj)


def test_canonical_search_matches_reference_on_generation_inputs(monkeypatch):
    seen = []
    search = graphs_module._canonical_order_masks

    def recording(n, adj):
        seen.append((n, tuple(adj)))
        return search(n, adj)

    monkeypatch.setattr(graphs_module, "_canonical_order_masks", recording)
    assert len(generate_connected_regular(10, 3)) == 19
    monkeypatch.undo()
    assert len(seen) > 19
    for n, adj in seen:
        _assert_same_search(n, adj)


def test_canonical_form_idempotent():
    for g in NAMED.values():
        cf = canonical_form(g)
        assert canonical_key(cf) == encode_graph6(cf) == canonical_key(g)


def test_automorphism_counts():
    expected = {
        "k4": 24,
        "k5": 120,
        "k33": 72,
        "c5": 10,
        "c6": 12,
        "p4": 2,
        "petersen": 120,
        "prism": 12,
        "diamond": 4,
    }
    for name, aut in expected.items():
        assert automorphism_count(NAMED[name]) == aut, name


def test_isomorphic_distinguishes():
    assert isomorphic(cycle(6), necklace_cover(cycle(3), (0, 1), 2))
    assert not isomorphic(NAMED["k33"], NAMED["prism"])
    assert not isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))


# ---------------------------------------------------------------------------
# Subgraph counting

def test_subgraph_counts_named_against_brute():
    for name, g in NAMED.items():
        counts = count_subgraphs(g)
        assert counts.triangles == brute_count_subgraph(g, *TRIANGLE), name
        assert counts.four_cycles == brute_count_subgraph(g, *FOUR_CYCLE), name
        assert counts.five_cycles == brute_count_subgraph(g, *FIVE_CYCLE), name
        assert counts.diamonds == brute_count_subgraph(g, *DIAMOND), name


def test_subgraph_counts_frozen_values():
    k4 = count_subgraphs(complete(4))
    assert (k4.triangles, k4.four_cycles, k4.five_cycles, k4.diamonds) == (4, 3, 0, 6)
    assert (k4.rho4, k4.rho_diamond) == (3 / 4, 3 / 2)
    pet = count_subgraphs(petersen())
    assert (pet.triangles, pet.four_cycles, pet.five_cycles, pet.diamonds) == (0, 0, 12, 0)


def test_subgraph_counts_corpus_against_brute(cubic_by_n, quartic_by_n):
    for n in (6, 8):
        for g in cubic_by_n[n]:
            counts = count_subgraphs(g)
            assert counts.triangles == brute_count_subgraph(g, *TRIANGLE)
            assert counts.four_cycles == brute_count_subgraph(g, *FOUR_CYCLE)
            assert counts.five_cycles == brute_count_subgraph(g, *FIVE_CYCLE)
            assert counts.diamonds == brute_count_subgraph(g, *DIAMOND)
    for g in quartic_by_n[7]:
        counts = count_subgraphs(g)
        assert counts.triangles == brute_count_subgraph(g, *TRIANGLE)
        assert counts.five_cycles == brute_count_subgraph(g, *FIVE_CYCLE)


def test_neighborhood_edge_counts():
    assert neighborhood_edge_counts(complete(4)) == [3, 3, 3, 3]
    assert neighborhood_edge_counts(petersen()) == [0] * 10
    assert neighborhood_edge_counts(cycle(4)) == [0] * 4


# ---------------------------------------------------------------------------
# Maximum matching

def test_max_matching_named():
    assert max_matching(complete(4)) == 2
    assert max_matching(complete(5)) == 2
    assert max_matching(cycle(5)) == 2
    assert max_matching(cycle(7)) == 3
    assert max_matching(petersen()) == 5
    assert max_matching(path_graph(6)) == 3
    assert max_matching(disjoint_union(cycle(3), cycle(3))) == 2


def test_max_matching_corpus_against_brute(cubic_by_n, quartic_by_n):
    for g in cubic_by_n[6] + cubic_by_n[8] + quartic_by_n[7] + quartic_by_n[8]:
        assert max_matching(g) == brute_max_matching(g)


def test_max_matching_random_against_brute():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        g = Graph(n, edges)
        assert max_matching(g) == brute_max_matching(g)


# ---------------------------------------------------------------------------
# Covers

def test_cover_spec_validation():
    with pytest.raises(RegmatchError):
        necklace_cover(cycle(4), (0, 2), 3)     # not an edge
    with pytest.raises(RegmatchError):
        necklace_cover(cycle(4), (0, 1), 1)     # fold too small
    with pytest.raises(RegmatchError):
        necklace_cover(cycle(4), (4, 5), 3)     # outside the vertex range


def test_cover_is_regular_lift():
    base = complete(4)
    for k in (2, 3, 5):
        cov = necklace_cover(base, (0, 1), k)
        assert cov.n == 4 * k
        assert cov.regular_degree() == 3
        assert cov.is_connected()


def test_necklace_of_k2_is_disjoint_edges():
    # covers preserve degree: the lift of the 1-regular K_2 is 1-regular
    for k in (3, 5):
        cov = necklace_cover(complete(2), (0, 1), k)
        assert cov.n == 2 * k
        assert cov.regular_degree() == 1
        assert sorted(len(c) for c in cov.components()) == [2] * k


def test_necklace_of_c3_doubles_to_c6():
    assert isomorphic(necklace_cover(cycle(3), (0, 1), 2), cycle(6))
    assert isomorphic(necklace_cover(cycle(4), (0, 1), 3), cycle(12))


def test_diamond_necklace_structure():
    for k in (2, 3, 4):
        dn = diamond_necklace(k)
        counts = count_subgraphs(dn)
        assert dn.n == 4 * k
        assert dn.regular_degree() == 3
        assert counts.triangles == 2 * k
        assert counts.diamonds == k


# ---------------------------------------------------------------------------
# Corpus generation

def test_generation_counts_cubic(cubic_by_n):
    assert [len(cubic_by_n[n]) for n in (4, 6, 8, 10)] == [1, 2, 5, 19]


def test_generation_counts_quartic(quartic_by_n):
    assert [len(quartic_by_n[n]) for n in (5, 6, 7, 8, 9)] == [1, 1, 2, 6, 16]


def test_generation_output_canonical_and_regular(cubic_by_n, quartic_by_n):
    for corpus in (cubic_by_n, quartic_by_n):
        for graphs in corpus.values():
            keys = [canonical_key(g) for g in graphs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for g, key in zip(graphs, keys):
                assert encode_graph6(g) == key    # canonically labeled output
                assert g.is_connected()


def test_generation_empty_families():
    with pytest.raises(NoGraphsError):
        generate_connected_regular(7, 3)      # odd n*d
    with pytest.raises(NoGraphsError):
        generate_connected_regular(4, 4)      # d >= n
    assert generate_connected_regular(2, 1) == [complete(2)]
    assert generate_connected_regular(1, 0)[0].n == 1


def test_generation_cap_enforced():
    cap = generation_cap(3)
    with pytest.raises(CapacityError):
        generate_connected_regular(cap + 2, 3)


def test_generation_matches_literal_enumeration_cubic_8():
    labeled = labeled_regular_graphs(8, 3)
    assert len(labeled) == labeled_regular_count(8, 3)
    connected_keys = {
        canonical_key(Graph(8, list(edges)))
        for edges in labeled if is_connected_edge_list(8, edges)
    }
    generated = {canonical_key(g) for g in generate_connected_regular(8, 3)}
    assert generated == connected_keys


def test_generation_matches_literal_enumeration_quartic_7():
    labeled = labeled_regular_graphs(7, 4)
    assert len(labeled) == labeled_regular_count(7, 4) == 465
    connected_keys = {
        canonical_key(Graph(7, list(edges)))
        for edges in labeled if is_connected_edge_list(7, edges)
    }
    generated = {canonical_key(g) for g in generate_connected_regular(7, 4)}
    assert generated == connected_keys


def test_labeled_count_dp_against_literal():
    assert labeled_regular_count(4, 3) == 1
    assert labeled_regular_count(6, 3) == len(labeled_regular_graphs(6, 3)) == 70
    assert labeled_regular_count(5, 4) == 1
    assert labeled_regular_count(6, 4) == len(labeled_regular_graphs(6, 4)) == 15
    assert labeled_regular_count(6, 5) == 1
    assert labeled_regular_count(8, 5) == len(labeled_regular_graphs(8, 5))


def test_generation_complete_by_aut_identity(cubic_by_n, quartic_by_n, fivereg_by_n):
    """sum over classes of n!/|Aut| must equal the labeled connected count."""
    for d, corpus in ((3, cubic_by_n), (4, quartic_by_n), (5, fivereg_by_n)):
        for n, graphs in corpus.items():
            total = sum(factorial(n) // automorphism_count(g) for g in graphs)
            assert total == labeled_connected_regular_count(n, d), (d, n)
