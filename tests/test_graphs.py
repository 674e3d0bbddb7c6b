"""Graph container, graph6 codec, canonical forms, counting, covers,
matching, and corpus generation."""

import hashlib
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
    brute_completable,
    brute_count_subgraph,
    brute_max_matching,
    is_connected_edge_list,
    labeled_connected_regular_count,
    labeled_regular_count,
    labeled_regular_graphs,
    reference_canonical_order_masks,
    reference_generate_connected_regular,
    reference_parse_graph6,
)
from regmatch import graphs as graphs_module
from regmatch.cli import _read_graph_inputs
from regmatch.errors import (
    CapacityError,
    DomainError,
    Graph6ParseError,
    NoGraphsError,
    RegmatchError,
)
from regmatch.graphs import (
    _GENERATION_CAPS,
    Graph,
    _can_complete,
    _canonical_order_masks,
    _prefix_is_canonical,
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
    isomorphic,
    max_matching,
    necklace_cover,
    neighborhood_edge_counts,
    parse_graph6,
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
    hubs = [v for v in range(4) if g.degrees()[v] == 3]
    assert g.has_edge(*hubs)
    assert all(g.has_edge(hubs[0], w) for w in range(4) if w != hubs[0])


def test_components_and_connectivity():
    g = disjoint_union(cycle(3), path_graph(2))
    comps = g.components()
    assert sorted(len(c) for c in comps) == [2, 3]
    assert len(cycle(5).components()) == 1


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


@settings(max_examples=80, deadline=None)
@given(small_graphs(9), st.data())
def test_mask_path_equals_the_validated_constructor(g, data):
    # induced and relabel build a Graph from masks, without the edge checks
    vertices = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True,
                                  max_size=g.n))
    perm = data.draw(st.permutations(range(g.n)))
    for keep, h in ((vertices, g.induced(vertices)), (perm, g.relabel(perm))):
        pos = {v: i for i, v in enumerate(keep)}
        mapped = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
        ref = Graph(len(keep), mapped)
        assert h == ref and hash(h) == hash(ref)
        assert h.n == ref.n == len(keep)
        assert h.edges == ref.edges == tuple(sorted((min(e), max(e)) for e in mapped))


def test_duplicate_and_loop_edges_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_negative_sizes_rejected():
    # a negative size is an error, not an empty (or smaller) graph
    for make in (lambda: Graph(-1, []), lambda: complete(-3), lambda: path_graph(-2),
                 lambda: circulant(-5, (1,)), lambda: complete_bipartite(-1, 2),
                 lambda: complete_bipartite(2, -1)):
        with pytest.raises(ValueError, match="negative"):
            make()
    assert Graph(0, []).n == complete(0).n == path_graph(0).n == 0
    assert complete_bipartite(0, 2) == Graph(2, [])


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


def test_graph6_lines_reports_line_numbers(tmp_path):
    # the multi-line reader skips blank lines but still counts them
    path = tmp_path / "corpus.g6"
    path.write_text("C~\n\nA_\nC\n")
    with pytest.raises(Graph6ParseError) as err:
        _read_graph_inputs([str(path)])
    assert err.value.line == 4
    assert err.value.source == str(path)
    path.write_text("C~\nA_\n")
    parsed = _read_graph_inputs([str(path)])
    assert [(lineno, g.n) for _, _, lineno, g in parsed] == [(1, 4), (2, 2)]


_BYTE = st.one_of(st.integers(0, 255), st.sampled_from((62, 63, 126, 127)))


@st.composite
def mutated_graph6(draw):
    """An encoded graph with up to three bytes set, inserted or deleted, at
    any position but most often the header, the first or the last data byte,
    and an optional line ending, as text decoded byte for byte."""
    data = bytearray(encode_graph6(draw(graph6_graphs())).encode("ascii"))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("set", "insert", "delete")))
        pos = draw(st.one_of(st.sampled_from((0, 1, len(data) - 1, len(data))),
                             st.integers(0, len(data))))
        if op == "delete":
            del data[pos:pos + 1]
        elif op == "insert":
            data.insert(pos, draw(_BYTE))
        else:
            data[pos:pos + 1] = bytes([draw(_BYTE)])
    data += draw(st.sampled_from((b"", b"\n", b"\r\n")))
    return data.decode("latin-1")


def _parse_outcome(parse, text, line):
    try:
        return parse(text, line=line)
    except Graph6ParseError as exc:
        return str(exc), exc.offset, exc.line


@settings(max_examples=300, deadline=None)
@given(mutated_graph6(), st.sampled_from((None, 1, 7)))
def test_graph6_decoder_matches_the_reference(text, line):
    # the same graph, or the same message, offset and line
    assert (_parse_outcome(parse_graph6, text, line)
            == _parse_outcome(reference_parse_graph6, text, line))


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
    assert len(reference_generate_connected_regular(10, 3)) == 19
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


def test_canonical_search_refuses_past_its_node_cap(monkeypatch):
    # K_5's search visits floor(e * 5!) = 326 nodes, the root and 325 children
    monkeypatch.setattr(graphs_module, "_CANON_NODE_CAP", 325)
    assert automorphism_count(complete(5)) == 120
    monkeypatch.setattr(graphs_module, "_CANON_NODE_CAP", 324)
    with pytest.raises(CapacityError, match="canonical search past 324 nodes"):
        canonical_key(complete(5))


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


def test_max_matching_shares_the_dp_domain():
    # nu is the degree of M(G, x): the empty and one-vertex graphs have only
    # the empty matching, and K_17 is the largest complete graph inside the
    # frontier DP's width cap
    assert max_matching(Graph(0, [])) == max_matching(Graph(1, [])) == 0
    assert max_matching(complete(17)) == 8
    with pytest.raises(CapacityError):
        max_matching(complete(18))


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
        assert len(cov.components()) == 1


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


def test_generation_output_canonical_and_regular(cubic_by_n, quartic_by_n, fivereg_by_n):
    rng = random.Random(5)
    for d, corpus in ((3, cubic_by_n), (4, quartic_by_n), (5, fivereg_by_n)):
        for graphs in corpus.values():
            keys = [canonical_key(g) for g in graphs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for g, key in zip(graphs, keys):
                # keys searched afresh, not the key the generator set
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert encode_graph6(g) == key == canonical_key(Graph(g.n, g.edges))
                assert canonical_key(g.relabel(perm)) == key
                assert g.regular_degree() == d
                assert len(g.components()) == 1


def _identity_columns(g):
    """Level-j key of the identity labeling: g's adjacency of position j to
    positions 0..j-1, position 0 most significant."""
    return [sum((g.adj[i] >> j & 1) << (j - 1 - i) for i in range(j)) for j in range(g.n)]


@settings(max_examples=80, deadline=None)
@given(small_graphs(8))
def test_prefix_test_recognizes_canonical_labelings(g):
    h = canonical_form(g)
    assert _prefix_is_canonical(h.n, h.adj, _identity_columns(h))
    assert _prefix_is_canonical(g.n, g.adj, _identity_columns(g)) == (g == h)
    for k in range(h.n):  # hereditary: every leading induced subgraph
        assert _prefix_is_canonical(k, h.adj, _identity_columns(h))


@st.composite
def discovery_states(draw):
    """(d, v, adj, deg) as generate_connected_regular's search holds them on
    entering complete_vertex(v, intro): vertices 0..v-1 were completed in
    order, each joined to old vertices below intro and to the next block of
    fresh ones, with every choice drawn.  n <= 8 and d <= 5."""
    n = draw(st.integers(2, 8))
    d = draw(st.sampled_from([d for d in range(1, min(5, n - 1) + 1) if n * d % 2 == 0]))
    adj, deg = [0] * n, [0] * n
    v, intro, stop = 0, 1, draw(st.integers(0, n))
    while v < stop and not (v > 0 and deg[v] == 0):  # stop at a closed component
        need = d - deg[v]
        old = [w for w in range(v + 1, intro) if deg[w] < d]
        fresh = [j for j in range(min(need, n - intro) + 1) if need - j <= len(old)]
        if not fresh:
            break  # v cannot be given its edges: no child state
        j = draw(st.sampled_from(fresh))
        for w in draw(st.permutations(old))[:need - j] + list(range(intro, intro + j)):
            adj[v] |= 1 << w
            adj[w] |= 1 << v
            deg[w] += 1
        deg[v] = d
        v, intro = v + 1, intro + j
    return d, v, adj, deg


@settings(max_examples=400, deadline=None)
@given(discovery_states())
def test_completion_check_refuses_only_dead_branches(state):
    # the generator skips a refused branch together with its canonicity
    # test, so a refusal of a completable state would lose graphs
    d, v, adj, deg = state
    if not _can_complete(v, d, adj, deg):
        assert not brute_completable(d, adj, deg)


def test_generation_prunes_before_the_prefix_test(monkeypatch):
    """Cubic n = 12 runs 1,040 prefix tests, one per distinct fixed prefix
    (3,427 without the memo, 4,876 without the completion check either): a
    change that drops the pruning or the memo, or weakens either, fails here."""
    calls = []
    prefix_test = graphs_module._prefix_is_canonical

    def counting(k, adj, cols):
        calls.append((k, tuple(cols[:k])))
        return prefix_test(k, adj, cols)

    monkeypatch.setattr(graphs_module, "_prefix_is_canonical", counting)
    assert len(generate_connected_regular(12, 3)) == 85
    assert len(calls) == 1040
    assert len(set(calls)) == len(calls)  # no prefix reaches the test twice


@settings(max_examples=200, deadline=None)
@given(small_graphs(9), st.booleans(), st.data())
def test_prefix_test_reads_only_the_prefix(g, canonical, data):
    # the generator's memo keys the prefix test by cols[0..k-1] alone, so
    # adding or removing edges at positions k and above must not change it
    if canonical:
        g = canonical_form(g)
    k = data.draw(st.integers(0, g.n))
    touching = [(i, j) for j in range(k, g.n) for i in range(j)]
    flips = data.draw(st.lists(st.sampled_from(touching), unique=True)) if touching else []
    h = Graph(g.n, set(g.edges) ^ set(flips))
    answer = _prefix_is_canonical(k, g.adj, _identity_columns(g))
    assert _prefix_is_canonical(k, h.adj, _identity_columns(h)) == answer
    prefix = g.induced(range(k))
    assert answer == (prefix == canonical_form(prefix))
    if canonical:
        assert answer


def _listing(graphs):
    return [(canonical_key(g), g.edges) for g in graphs]


# every (d, n) with d >= 2 at which the reference generator takes under about
# 1 s (6-regular n = 9 takes about 2 s and is checked by its digest below)
_REFERENCE_JOBS = [(2, n) for n in range(3, 25)] + [
    (3, 4), (3, 6), (3, 8), (3, 10), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9),
    (5, 6), (5, 8), (6, 7), (6, 8), (7, 8)]


def test_generation_matches_reference(cubic_by_n, quartic_by_n, fivereg_by_n):
    made = {(3, n): gs for n, gs in cubic_by_n.items()}
    made.update({(4, n): gs for n, gs in quartic_by_n.items()})
    made.update({(5, n): gs for n, gs in fivereg_by_n.items()})
    for d, n in _REFERENCE_JOBS:
        graphs = made.get((d, n)) or generate_connected_regular(n, d)
        assert _listing(graphs) == _listing(reference_generate_connected_regular(n, d)), (d, n)


# d: (cap, count, sha256 of the newline-joined canonical keys).  The counts
# are OEIS A002851, A006820, A006821, A006822 and A014377; the digests were
# recorded from the reference generator, and for 6-regular and 7-regular
# n = 10 from the orderly generator before it dropped uncompletable branches.
_AT_THE_CAPS = {
    3: (14, 509, "982bda7e5c1b3e451f1141f44800e11decff1548615f957e4a68a469d9e9b2ce"),
    4: (11, 265, "562b2209efa72cc690b7ea5ae0c4ce10ec1ba15187e36043fb3f5a6e7064fc2a"),
    5: (10, 60, "11628c01ef85ed002153c63265f8f51d51cf180493ec06e15c48ca648bc09dab"),
    6: (10, 21, "c58e9d758177a4ec03c5bbcf7d3ba71df8e27471f47d74b440e55064d4c7a86f"),
    7: (10, 5, "682636b9f69d5287da15eaccd989a361b70b2c34f8361343caff7a7110a3e874"),
}
# the caps for d = 6 and 7 were n = 9 and n = 8, with these digests
_AT_THE_OLD_CAPS = {
    6: (9, 4, "d3f4735221737c9ddf8784535c6257c0576e7ea178bc63083f37c06427096a1f"),
    7: (8, 1, "34fff80f29e6e5db50f4bf2f96090017e56e96e92f2c76f3ef2c52c4c11bab33"),
}


def _check_digest(d, n, count, digest):
    keys = [canonical_key(g) for g in generate_connected_regular(n, d)]
    assert len(keys) == count
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == digest


@pytest.mark.parametrize("d", sorted(_AT_THE_CAPS))
def test_generation_at_the_cap(d):
    n, count, digest = _AT_THE_CAPS[d]
    assert n == _GENERATION_CAPS[d]
    _check_digest(d, n, count, digest)


@pytest.mark.parametrize("d", sorted(_AT_THE_OLD_CAPS))
def test_generation_at_the_old_cap(d):
    _check_digest(d, *_AT_THE_OLD_CAPS[d])


def test_generation_empty_families():
    with pytest.raises(NoGraphsError):
        generate_connected_regular(7, 3)      # odd n*d
    with pytest.raises(NoGraphsError):
        generate_connected_regular(4, 4)      # d >= n
    assert generate_connected_regular(2, 1) == [complete(2)]
    assert generate_connected_regular(1, 0)[0].n == 1


def test_generation_cap_enforced():
    cap = _GENERATION_CAPS[3]
    with pytest.raises(CapacityError):
        generate_connected_regular(cap + 2, 3)


def test_generation_refuses_a_negative_degree():
    # a NoGraphsError here would be swallowed by the CLI's corpus loop,
    # leaving an empty corpus that exits 0
    for n, d in ((4, -2), (5, -3), (0, -1)):
        with pytest.raises(DomainError, match="need d >= 0"):
            generate_connected_regular(n, d)


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
