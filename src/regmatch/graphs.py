"""Desk-scale graphs: representation, graph6 codec, canonical forms,
regular-corpus generation, subgraph statistics, covers, and the maximum
matching size, which is read off the matching polynomial (matchpoly).

Vertices are 0..n-1; adjacency is kept as per-vertex bitmasks so that the
hot inner loops (canonical search, generation, subgraph counts) are integer
arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError, Graph6ParseError, NoGraphsError, RegmatchError


class Graph:
    """Immutable simple graph."""

    # _canon and _counts are filled on first use by canonical_key and by
    # matchpoly (the matching coefficients), so repeated queries are free
    __slots__ = ("n", "adj", "_canon", "_counts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 0..{n-1}")
            if adj[u] >> v & 1:
                raise ValueError(f"parallel edge ({min(u, v)},{max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._init(adj)

    def _init(self, adj: Sequence[int]) -> "Graph":
        """Fill the slots, unchecked, from symmetric and loop-free masks."""
        for name, value in zip(Graph.__slots__, (len(adj), tuple(adj), None, None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def regular_degree(self) -> int | None:
        """Uniform degree if the graph is regular, else None."""
        degs = set(self.degrees())
        if len(degs) == 1:
            return degs.pop()
        if self.n == 0:
            return 0
        return None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The pairs (u, v) with u < v, in ascending order."""
        return tuple((u, v) for u, m in enumerate(self.adj) for v in _bits(m) if v > u)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def components(self) -> list[list[int]]:
        return _components(self.adj)

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph relabeled to 0..len(vertices)-1 (in given order)."""
        return Graph.__new__(Graph)._init(_induced_masks(self.adj, vertices))

    def relabel(self, order: Sequence[int]) -> "Graph":
        """Graph with new vertex i = old vertex order[i]."""
        return self.induced(order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _components(masks: Sequence[int]) -> list[list[int]]:
    """Vertex lists of the connected components of adjacency masks."""
    seen = 0
    comps = []
    for s in range(len(masks)):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= masks[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(_bits(comp))
    return comps


def _induced_masks(masks: Sequence[int], keep: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the subgraph induced on keep, vertex keep[i] -> i."""
    pos = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        m = 0
        for w in _bits(masks[v]):
            j = pos.get(w)
            if j is not None:
                m |= 1 << j
        out.append(m)
    return tuple(out)


# ---------------------------------------------------------------------------
# graph6 codec (short header form, n <= 62)

_G6_MAX_N = 62


def parse_graph6(text: str, line: int | None = None) -> Graph:
    """Decode one graph6 line of text.

    Only the single-byte header (63+n, n <= 62) is supported; the multi-byte
    long forms raise a parse error.  Errors name the offending byte offset.
    """
    try:
        data = text.encode("ascii").rstrip(b"\r\n")
    except UnicodeEncodeError as exc:
        raise Graph6ParseError("non-ASCII character", exc.start, line) from None
    if not data:
        raise Graph6ParseError("empty input", 0, line)
    head = data[0]
    if head == 126:
        raise Graph6ParseError("long-form header (n > 62) unsupported", 0, line)
    if not (63 <= head <= 63 + _G6_MAX_N):
        raise Graph6ParseError(f"invalid header byte {head}", 0, line)
    n = head - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[1:]
    if len(body) < nbytes:
        raise Graph6ParseError(
            f"truncated bit vector ({nbytes} data bytes expected, {len(body)} found)",
            len(data), line)
    if len(body) > nbytes:
        raise Graph6ParseError("trailing data after bit vector", 1 + nbytes, line)
    for offset, byte in enumerate(body, start=1):
        if not 63 <= byte <= 126:
            raise Graph6ParseError(f"invalid data byte {byte}", offset, line)
    edges = []
    bit = 0
    for j in range(1, n):
        for i in range(j):
            if (body[bit // 6] - 63) >> (5 - bit % 6) & 1:
                edges.append((i, j))
            bit += 1
    if nbytes and (body[-1] - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6ParseError("nonzero padding bits", nbytes, line)
    return Graph(n, edges)


def encode_graph6(g: Graph) -> str:
    if g.n > _G6_MAX_N:
        raise CapacityError(f"graph6 short form limited to n <= {_G6_MAX_N}")
    chunks = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chunks.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chunks)


# ---------------------------------------------------------------------------
# Canonical form
#
# Canonical order = vertex order maximizing the column-major upper-triangle
# adjacency bit vector (graph6 bit order).  Level k of the search fixes
# position k; its contribution is the k-bit adjacency pattern to positions
# 0..k-1, so a greedy level-by-level maximum with tie branching is exact.
# The number of optimal leaves equals the automorphism group order.
# A node keeps the unplaced vertices as cells, (key, mask) pairs with one
# cell per key (the adjacency pattern to the placed vertices) in strictly
# decreasing key order; the top cell is the tie set.  Placing u splits each
# cell into neighbors of u (key << 1 | 1) and the rest (key << 1), in order.

_CANON_NODE_CAP = 1 << 24  # search nodes: K_10 takes 9,864,101, K_11 about 1.1e8


def _place(cells: list[tuple[int, int]], u: int,
           adj: Sequence[int]) -> list[tuple[int, int]]:
    """The cells of the child node that places u."""
    on = adj[u]
    off = ~(on | 1 << u)
    nxt = []
    for key, m in cells:
        hi = m & on
        if hi:
            nxt.append((key << 1 | 1, hi))
        lo = m & off
        if lo:
            nxt.append((key << 1, lo))
    return nxt


def _canonical_order_masks(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (canonical order, automorphism count) for adjacency masks."""
    if n == 0:
        return (), 1
    best_levels = [-1] * n
    placed = []
    order, aut, nodes = None, 0, 0

    def dfs(cells: list[tuple[int, int]]) -> None:
        nonlocal order, aut, nodes
        k = len(placed)
        if k == n:
            if order is None:
                order = tuple(placed)
            aut += 1
            return
        cur, top = cells[0]
        rec = best_levels[k]
        if cur < rec:
            return
        if cur > rec:
            best_levels[k] = cur
            for i in range(k + 1, n):
                best_levels[i] = -1
            order = None
            aut = 0
        nodes += top.bit_count()  # every node but the root is counted as a child
        if nodes > _CANON_NODE_CAP:
            raise CapacityError(f"canonical search past {_CANON_NODE_CAP} nodes")
        while top:  # the children are _bits(top), in increasing order
            low = top & -top
            top ^= low
            u = low.bit_length() - 1
            placed.append(u)
            dfs(_place(cells, u, adj))
            placed.pop()

    dfs([(0, (1 << n) - 1)])
    return order, aut


def canonical_order(g: Graph) -> tuple[int, ...]:
    return _canonical_order_masks(g.n, g.adj)[0]


def canonical_key(g: Graph) -> str:
    """graph6 string of the canonically relabeled graph (isomorphism invariant)."""
    cached = g._canon
    if cached is None:
        cached = canonical_form(g)._canon
        object.__setattr__(g, "_canon", cached)
    return cached


def canonical_form(g: Graph) -> Graph:
    """Canonically relabeled copy of g, with its canonical key already set
    (the canonical key of a canonical form is its own graph6 string)."""
    h = g.relabel(canonical_order(g))
    object.__setattr__(h, "_canon", encode_graph6(h))
    return h


def automorphism_count(g: Graph) -> int:
    return _canonical_order_masks(g.n, g.adj)[1]


def isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_key(g) == canonical_key(h)


# ---------------------------------------------------------------------------
# Named constructors

def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_minus_edge(n: int) -> Graph:
    if n < 2:
        raise ValueError("need n >= 2")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if (i, j) != (0, 1)])


def diamond() -> Graph:
    """The 4-vertex, 5-edge graph (two triangles sharing an edge)."""
    return complete_minus_edge(4)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError(f"negative part size in K_{{{a},{b}}}")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def prism(m: int = 3) -> Graph:
    """Circular ladder: two m-cycles joined by a perfect matching."""
    if m < 3:
        raise ValueError("prism needs m >= 3")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return Graph(2 * m, edges)


def circulant(n: int, offsets: Iterable[int]) -> Graph:
    edges = set()
    for s in offsets:
        s %= n
        if s == 0:
            raise ValueError("offset 0 would create loops")
        for i in range(n):
            j = (i + s) % n
            edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# Subgraph statistics

@dataclass(frozen=True)
class SubgraphCounts:
    """Counts of subgraphs (not induced) with per-vertex densities."""

    n: int
    triangles: int
    four_cycles: int
    five_cycles: int
    diamonds: int

    def _rho(self, count: int) -> Fraction:
        return Fraction(count, self.n)

    @property
    def rho3(self) -> Fraction:
        return self._rho(self.triangles)

    @property
    def rho4(self) -> Fraction:
        return self._rho(self.four_cycles)

    @property
    def rho5(self) -> Fraction:
        return self._rho(self.five_cycles)

    @property
    def rho_diamond(self) -> Fraction:
        return self._rho(self.diamonds)


def _count_cycles(g: Graph, k: int) -> int:
    """Simple k-cycles, each anchored at its minimum vertex, found once per direction."""
    adj = g.adj
    total = 0

    def extend(start: int, v: int, depth: int, visited: int) -> int:
        # path of `depth` vertices ending at v, all > start except start itself
        if depth == k:
            return adj[v] >> start & 1
        found = 0
        for w in _bits(adj[v]):
            if w > start and not visited >> w & 1:
                found += extend(start, w, depth + 1, visited | 1 << w)
        return found

    for s in range(g.n):
        total += extend(s, s, 1, 1 << s)
    return total // 2


def count_subgraphs(g: Graph) -> SubgraphCounts:
    """Triangle / 4-cycle / 5-cycle / diamond subgraph counts.

    Diamonds are counted via their unique shared edge: for an edge (x,y)
    every pair of common neighbors spans one diamond subgraph.
    """
    diamonds = 0
    for x, y in g.edges:
        c = (g.adj[x] & g.adj[y]).bit_count()
        diamonds += c * (c - 1) // 2
    return SubgraphCounts(
        n=g.n,
        triangles=_count_cycles(g, 3),
        four_cycles=_count_cycles(g, 4),
        five_cycles=_count_cycles(g, 5),
        diamonds=diamonds,
    )


def neighborhood_edge_counts(g: Graph) -> list[int]:
    """e(N(v)) for each v: edges among the neighbors of v."""
    out = []
    for v in range(g.n):
        nb = g.adj[v]
        e = sum((g.adj[w] & nb).bit_count() for w in _bits(nb))
        out.append(e // 2)
    return out


# ---------------------------------------------------------------------------
# Maximum matching

def max_matching(g: Graph) -> int:
    """Size of a maximum matching, read as the degree of M(G, x).

    The coefficients come from matchpoly's frontier DP (and stay on g), so
    this shares its domain: it raises CapacityError wherever
    matching_counts does, e.g. on K_18 or any graph of frontier width
    above 16."""
    from .matchpoly import matching_counts  # matchpoly imports this module
    return len(matching_counts(g)) - 1


# ---------------------------------------------------------------------------
# Covers

def necklace_cover(base: Graph, marked_edge: tuple[int, int], k: int) -> Graph:
    """k-fold cover of base: vertex u*k + i is copy i of u.  Every base edge
    lifts to the identity between fibers except the marked one, which gets
    the cyclic shift i -> i+1 (oriented from the smaller to the larger
    endpoint)."""
    marked = tuple(sorted(marked_edge))
    a, b = marked
    if not (0 <= a and b < base.n and base.has_edge(a, b)):
        raise RegmatchError(f"marked pair {marked} is not an edge")
    if k < 2:
        raise RegmatchError("cover fold k must be >= 2")
    edges = []
    for u, v in base.edges:
        step = 1 if (u, v) == marked else 0
        edges.extend((u * k + i, v * k + (i + step) % k) for i in range(k))
    return Graph(base.n * k, edges)


def diamond_necklace(k: int) -> Graph:
    """k-fold necklace cover of K_4 (k diamonds joined cyclically)."""
    return necklace_cover(complete(4), (0, 1), k)


# ---------------------------------------------------------------------------
# Connected regular corpus generation
#
# Orderly generation (R. C. Read, "Every one a winner", 1978; M. Meringer,
# "Fast generation of regular graphs", 1999) over discovery-ordered
# labelings: vertex 0's neighborhood is {1..d}; vertices are completed in
# index order and fresh vertices are always taken as the next consecutive
# block of indices.  The canonical labeling of a connected graph is such a
# labeling (each level of the canonical search prefers a neighbor of the
# earliest placed vertex that still has unplaced neighbors), so the search
# reaches every class.  The canonical form is hereditary: the first
# k(k-1)/2 bits of a column-major vector are the vector of the subgraph
# induced on positions 0..k-1, so every leading induced subgraph of a
# canonical labeling is itself canonical.  Once positions 0..k-1 are fixed
# the search therefore keeps a branch only if their identity labeling is
# canonical, and each class comes out exactly once, canonically labeled.
# Before that test, which costs far more, the search drops a branch that
# cannot be completed (Meringer's degree check, _can_complete).  Many
# branches reach the same fixed prefix, so one call keeps each prefix
# test's answer in a dict keyed by cols[0..k-1].  The key is exact: the test
# reads only the subgraph induced on positions 0..k-1 (_place masks every
# cell to bits < k), those columns encode exactly that subgraph, their
# number is k, and they are final once the test runs.  The degree check
# reads vertices past the prefix, so it runs before the lookup.  Each cap
# keeps generating one size under about 10 s.

_GENERATION_CAPS = {2: 24, 3: 14, 4: 11, 5: 10, 6: 10, 7: 10}


def _prefix_is_canonical(k: int, adj: Sequence[int], cols: Sequence[int]) -> bool:
    """True if no labeling of the subgraph induced on positions 0..k-1 has a
    larger column-major vector than the identity, whose level-j key is
    cols[j].  The cell search prunes a branch as soon as its key falls below
    the identity's and stops as soon as one rises above it."""

    def dfs(cells: list[tuple[int, int]], level: int) -> bool:
        if level == k:
            return True
        cur, top = cells[0]
        if cur != cols[level]:
            return cur < cols[level]
        while top:
            low = top & -top
            top ^= low
            if not dfs(_place(cells, low.bit_length() - 1, adj), level + 1):
                return False
        return True

    return dfs([(0, (1 << k) - 1)], 0)


def _can_complete(v: int, d: int, adj: Sequence[int], deg: Sequence[int]) -> bool:
    """False if some vertex w of v..n-1 has fewer possible partners than the
    d - deg[w] edges it lacks.  Vertices 0..v-1 have degree d, so a missing
    edge joins two non-adjacent vertices of v..n-1 that are both below
    degree d.  A necessary condition for a completion, not a sufficient one."""
    open_ = 0
    for w in range(v, len(adj)):
        if deg[w] < d:
            open_ |= 1 << w
    for w in _bits(open_):
        if (open_ & ~adj[w]).bit_count() - 1 < d - deg[w]:  # less w itself
            return False
    return True


def generate_connected_regular(n: int, d: int) -> list[Graph]:
    """All connected d-regular graphs on n vertices, up to isomorphism,
    canonically labeled and sorted by canonical key."""
    if d < 0:
        raise DomainError("need d >= 0")
    if n < 1:
        raise NoGraphsError("need n >= 1")
    if n * d % 2:
        raise NoGraphsError(f"no {d}-regular graph on {n} vertices (n*d odd)")
    if d >= n:
        raise NoGraphsError(f"no simple {d}-regular graph on {n} vertices (d >= n)")
    if d == 0:
        return [Graph(1, [])] if n == 1 else []
    if d == 1:
        return [complete(2)] if n == 2 else []
    cap = _GENERATION_CAPS.get(d)
    if cap is None:
        raise CapacityError(f"degree {d} above generation cap (d <= 7)")
    if n > cap:
        raise CapacityError(f"n={n} above generation cap {cap} for d={d}")

    adj = [0] * n
    deg = [0] * n
    cols = [0] * n  # cols[w]: w's adjacency to positions 0..w-1, row 0 highest
    found: list[Graph] = []
    canonical: dict[tuple[int, ...], bool] = {}  # prefix test per leading subgraph

    def complete_vertex(v: int, intro: int) -> None:
        if v == n:  # the whole graph was fixed, and tested, at v = n - 1
            g = Graph.__new__(Graph)._init(adj)
            object.__setattr__(g, "_canon", encode_graph6(g))
            found.append(g)
            return
        if (deg[v] == 0 and v > 0) or not _can_complete(v, d, adj, deg):
            return  # a closed component (0..v-1 are saturated), or no completion
        # vertices 0..v-1 are complete, so positions 0..min(v+1, intro)-1 are fixed
        key = tuple(cols[:min(v + 1, intro)])
        if key not in canonical:
            canonical[key] = _prefix_is_canonical(len(key), adj, cols)
        if not canonical[key]:
            return
        need = d - deg[v]
        if need == 0:
            complete_vertex(v + 1, intro)
            return
        old = [w for w in range(v + 1, intro) if deg[w] < d]
        for j in range(min(need, n - intro), -1, -1):
            r = need - j
            if r > len(old):
                continue
            fresh = list(range(intro, intro + j))
            for chosen in combinations(old, r):
                ws = list(chosen) + fresh
                for w in ws:
                    adj[v] |= 1 << w
                    adj[w] |= 1 << v
                    cols[w] |= 1 << (w - 1 - v)
                    deg[w] += 1
                deg[v] = d
                complete_vertex(v + 1, intro + j)
                for w in ws:
                    adj[v] &= ~(1 << w)
                    adj[w] &= ~(1 << v)
                    cols[w] &= ~(1 << (w - 1 - v))
                    deg[w] -= 1
                deg[v] = d - need

    complete_vertex(0, 1)
    return sorted(found, key=canonical_key)
