"""Independent brute-force oracles.

Everything here recomputes expected values by a different route than the
library under test: explicit enumeration, injective-map counting, integer
matrix powers, and degree-multiset counting.  Slow but trustworthy at desk
scale.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

import mpmath
from mpmath import mpf

from regmatch.graphs import Graph, _bits, _components, _induced_masks
from regmatch.polynomials import _horner, _poly_mul


# ---------------------------------------------------------------------------
# Matchings

def brute_matching_counts(g: Graph) -> tuple[int, ...]:
    """m_k by explicit enumeration of all matchings."""
    edges = g.edges
    counts = [0] * (g.n // 2 + 1)

    def extend(start: int, used: int, size: int) -> None:
        counts[size] += 1
        for i in range(start, len(edges)):
            u, v = edges[i]
            bit = 1 << u | 1 << v
            if not used & bit:
                extend(i + 1, used | bit, size + 1)

    extend(0, 0, 0)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def reference_matching_counts(g: Graph) -> tuple[int, ...]:
    """m_k by the vertex deletion recursion

        M(G) = M(G - u) + x * sum_{v ~ u} M(G - u - v)

    at a maximum-degree pivot, multiplied over connected components.  This
    is the recursion that matchpoly ran before its frontier DP, without the
    canonical-form memo: subgraphs are memoized within one call on their
    labeled adjacency masks, which keeps necklace covers of 60 vertices
    fast."""
    memo: dict[tuple[int, ...], list[int]] = {}

    def product(masks: tuple[int, ...]) -> list[int]:
        result = [1]
        for comp in _components(masks):
            result = _poly_mul(result, connected(_induced_masks(masks, comp)))
        return result

    def connected(masks: tuple[int, ...]) -> list[int]:
        n = len(masks)
        if n <= 2:
            return [1, 1] if n == 2 else [1]
        hit = memo.get(masks)
        if hit is not None:
            return hit
        pivot = max(range(n), key=lambda v: masks[v].bit_count())
        rest = [v for v in range(n) if v != pivot]
        coeffs = product(_induced_masks(masks, rest)) + [0]
        for w in _bits(masks[pivot]):
            sub = product(_induced_masks(masks, [v for v in rest if v != w]))
            coeffs += [0] * (len(sub) + 1 - len(coeffs))
            for i, c in enumerate(sub):
                coeffs[i + 1] += c
        while coeffs[-1] == 0:
            coeffs.pop()
        memo[masks] = coeffs
        return coeffs

    return tuple(product(g.adj))


def brute_max_matching(g: Graph) -> int:
    edges = g.edges
    best = 0

    def extend(start: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for i in range(start, len(edges)):
            u, v = edges[i]
            bit = 1 << u | 1 << v
            if not used & bit:
                extend(i + 1, used | bit, size + 1)

    extend(0, 0, 0)
    return best


def complete_matching_count(n: int, r: int) -> int:
    """m_r(K_n) = n! / (2^r r! (n-2r)!)."""
    if 2 * r > n:
        return 0
    return factorial(n) // (2 ** r * factorial(r) * factorial(n - 2 * r))


# ---------------------------------------------------------------------------
# Subgraph counting via injective maps

def _aut_edge_count(n: int, edges: frozenset) -> int:
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(frozenset((perm[u], perm[v])) in edges for u, v in
               (tuple(e) for e in edges)):
            count += 1
    return count


def brute_count_subgraph(g: Graph, h_n: int, h_edges: list[tuple[int, int]]) -> int:
    """Copies of H in G as subgraphs: injective edge-preserving maps / |Aut H|."""
    h_set = frozenset(frozenset(e) for e in h_edges)
    h_adj = [0] * h_n
    for u, v in h_edges:
        h_adj[u] |= 1 << v
        h_adj[v] |= 1 << u
    maps = 0

    def place(k: int, image: list[int], used: int) -> None:
        nonlocal maps
        if k == h_n:
            maps += 1
            return
        for w in range(g.n):
            if used >> w & 1:
                continue
            ok = True
            for j in range(k):
                if h_adj[k] >> j & 1 and not g.adj[w] >> image[j] & 1:
                    ok = False
                    break
            if ok:
                image.append(w)
                place(k + 1, image, used | 1 << w)
                image.pop()

    place(0, [], 0)
    aut = _aut_edge_count(h_n, h_set)
    assert maps % aut == 0
    return maps // aut


TRIANGLE = (3, [(0, 1), (1, 2), (0, 2)])
FOUR_CYCLE = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
FIVE_CYCLE = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
DIAMOND = (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# ---------------------------------------------------------------------------
# Walks

def count_simple_paths_from(g: Graph, root: int) -> int:
    """Simple paths starting at root, including the trivial one."""
    total = 0

    def extend(v: int, used: int) -> None:
        nonlocal total
        total += 1
        rest = g.adj[v] & ~used
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            extend(w, used | 1 << w)

    extend(root, 1 << root)
    return total


def closed_walks_by_power(adj_lists: list[list[int]], root: int, length: int) -> int:
    """(A^length)[root][root] by repeated vector multiplication."""
    vec = [0] * len(adj_lists)
    vec[root] = 1
    for _ in range(length):
        nxt = [0] * len(adj_lists)
        for v, ws in enumerate(adj_lists):
            if vec[v]:
                for w in ws:
                    nxt[w] += vec[v]
        vec = nxt
    return vec[root]


def truncated_tree_adj(d: int, depth: int) -> list[list[int]]:
    """Adjacency lists of the d-regular tree truncated at the given depth
    (root has d children, every other internal vertex d-1)."""
    adj = [[]]
    frontier = [0]
    for level in range(depth):
        nxt = []
        for v in frontier:
            kids = d if level == 0 else d - 1
            for _ in range(kids):
                w = len(adj)
                adj.append([v])
                adj[v].append(w)
                nxt.append(w)
        frontier = nxt
    return adj


# ---------------------------------------------------------------------------
# Labeled regular-graph counts

@lru_cache(maxsize=None)
def _labeled_seq_count(residuals: tuple[int, ...]) -> int:
    """Labeled graphs realizing the residual-degree multiset, counted by
    eliminating the first vertex and distributing its edges."""
    if not residuals:
        return 1
    r, rest = residuals[0], list(residuals[1:])
    if r == 0:
        return _labeled_seq_count(tuple(rest))
    if r > len(rest):
        return 0
    # group the remaining residuals by value
    values = sorted(set(rest))
    groups = [(v, rest.count(v)) for v in values]
    total = 0
    for pick in _distributions(groups, r):
        ways = 1
        nxt = []
        for (value, size), chosen in zip(groups, pick):
            if chosen and value == 0:
                ways = 0
                break
            ways *= comb(size, chosen)
            nxt.extend([value - 1] * chosen)
            nxt.extend([value] * (size - chosen))
        if ways:
            total += ways * _labeled_seq_count(tuple(sorted(nxt)))
    return total


def _distributions(groups, r):
    if not groups:
        if r == 0:
            yield ()
        return
    _, size = groups[0]
    for take in range(min(size, r) + 1):
        for tail in _distributions(groups[1:], r - take):
            yield (take,) + tail


def labeled_regular_count(n: int, d: int) -> int:
    """Number of labeled d-regular simple graphs on n vertices."""
    if n * d % 2:
        return 0
    return _labeled_seq_count(tuple([d] * n))


def labeled_connected_regular_count(n: int, d: int) -> int:
    """Connected labeled count via the standard component deconvolution:
    g_n = sum_k C(n-1, k-1) c_k g_{n-k}."""
    g = {m: labeled_regular_count(m, d) for m in range(n + 1)}
    c = {}
    for m in range(1, n + 1):
        total = g[m]
        for k in range(1, m):
            if k in c and c[k]:
                total -= comb(m - 1, k - 1) * c[k] * g[m - k]
        c[m] = total
    return c[n]


def labeled_regular_graphs(n: int, d: int):
    """Literal enumeration of labeled d-regular graphs as edge tuples.

    Vertices are completed in index order; only feasible for small n."""
    out = []
    adj = [0] * n
    deg = [0] * n

    def complete_vertex(v: int) -> None:
        if v == n:
            out.append(tuple(sorted(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if adj[i] >> j & 1)))
            return
        need = d - deg[v]
        candidates = [w for w in range(v + 1, n) if deg[w] < d]
        if need == 0:
            complete_vertex(v + 1)
            return
        for chosen in itertools.combinations(candidates, need):
            for w in chosen:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
                deg[v] += 1
                deg[w] += 1
            complete_vertex(v + 1)
            for w in chosen:
                adj[v] &= ~(1 << w)
                adj[w] &= ~(1 << v)
                deg[v] -= 1
                deg[w] -= 1

    complete_vertex(0)
    return out


def is_connected_edge_list(n: int, edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        rest = adj[v] & ~seen
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            seen |= 1 << w
            stack.append(w)
    return seen == (1 << n) - 1


# ---------------------------------------------------------------------------
# All graphs up to isomorphism (small n), by vertex extension

def all_graphs_upto(nmax: int) -> dict[int, list[Graph]]:
    """Every graph on 1..nmax vertices up to isomorphism."""
    from regmatch.graphs import canonical_key

    levels = {1: [Graph(1, [])]}
    for n in range(2, nmax + 1):
        seen = {}
        for g in levels[n - 1]:
            for mask in range(1 << (n - 1)):
                edges = list(g.edges)
                for w in range(n - 1):
                    if mask >> w & 1:
                        edges.append((w, n - 1))
                cand = Graph(n, edges)
                seen.setdefault(canonical_key(cand), cand)
        levels[n] = [seen[k] for k in sorted(seen)]
    return levels


# ---------------------------------------------------------------------------
# Canonical search, as a per-node rescan of every vertex's key

def reference_canonical_order_masks(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (canonical order, automorphism count) for adjacency masks.

    The list-based search that predates the cell layout in
    graphs._canonical_order_masks: every node rebuilds all n keys and scans
    them for the maximum.  Same tree, same order, same automorphism count.
    """
    if n == 0:
        return (), 1
    best_levels = [-1] * n
    state = {"order": None, "aut": 0}

    def dfs(placed: list[int], keys: list[int]) -> None:
        k = len(placed)
        if k == n:
            if state["order"] is None:
                state["order"] = tuple(placed)
            state["aut"] += 1
            return
        cur = max(keys[u] for u in range(n) if keys[u] >= 0)
        rec = best_levels[k]
        if cur < rec:
            return
        if cur > rec:
            best_levels[k] = cur
            for i in range(k + 1, n):
                best_levels[i] = -1
            state["order"] = None
            state["aut"] = 0
        for u in range(n):
            if keys[u] == cur:
                placed.append(u)
                nkeys = [(kv << 1 | (adj[w] >> u & 1)) if kv >= 0 else -1
                         for w, kv in enumerate(keys)]
                nkeys[u] = -1
                dfs(placed, nkeys)
                placed.pop()

    dfs([], [0] * n)
    return state["order"], state["aut"]


# ---------------------------------------------------------------------------
# Remez extrema, by a sign scan of e' on a grid

def reference_error_extrema(coeffs, A) -> list:
    """Extremum candidates of e(x) = ln(1+x) - P(x) on [0, A]: both
    endpoints plus the sign changes of e'(x) = 1/(1+x) - P'(x) seen on a
    grid of 1,024 cells, each bisected to 1e-30 of a cell.

    The grid scan that minimax._error_extrema replaced; it misses any two
    sign changes that fall in one cell.  Call under the working mp precision.
    """
    samples = 1024
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]

    def deriv(x):
        return 1 / (1 + x) - _horner(dcoeffs, x)

    points = [mpf(0)]
    step = A / samples
    prev_x, prev_s = mpf(0), deriv(mpf(0))
    for i in range(1, samples + 1):
        x = A * i / samples
        s = deriv(x)
        if s == 0:
            points.append(x)
        elif prev_s != 0 and mpmath.sign(s) != mpmath.sign(prev_s):
            lo, hi = prev_x, x
            flo = prev_s
            for _ in range(200):
                mid = (lo + hi) / 2
                fm = deriv(mid)
                if fm == 0:
                    break
                if mpmath.sign(fm) == mpmath.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
                if hi - lo < step * mpf(10) ** (-30):
                    break
            points.append((lo + hi) / 2)
        prev_x, prev_s = x, s
    points.append(A)
    return points
