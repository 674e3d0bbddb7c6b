"""Tree-like walks, path trees, and power sums of matching roots.

Writing M(G, x) = prod_i (1 + g_i x) with g_i = a_i^2 the squared matching
roots, the normalized power sums a_k = (1/n) sum_i g_i^k are the bridge
between the partition function and walk counts: n * 2 a_k equals the number
of closed tree-like walks of length 2k in G, summed over all starting
vertices, which in turn equals the number of closed walks at the roots of
the path trees T(G, u).  `tree_like_walk_total` counts those walks over
(vertex, visited set) states without building any tree; `build_path_tree`
and `closed_walks_at_root` construct the trees themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DomainError
from .graphs import Graph, _bits
from .matchpoly import matching_gen_poly
from .polynomials import Poly

_PATH_TREE_CAP = 500_000  # path-tree nodes, or walk states in one total


@dataclass(frozen=True)
class PathTree:
    """Path tree T(G, u): nodes are self-avoiding paths from u, a node's
    parent is the path with its last vertex removed."""

    last: tuple[int, ...]     # last base vertex of each path node
    parent: tuple[int, ...]   # parent[0] == -1

    @property
    def size(self) -> int:
        return len(self.parent)

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.size)]
        for node in range(1, self.size):
            out[self.parent[node]].append(node)
        return out


def build_path_tree(g: Graph, u: int, *, depth: int | None = None) -> PathTree:
    """T(G, u), or with `depth` only its paths of at most that many edges."""
    if not 0 <= u < g.n:
        raise DomainError(f"root {u} outside vertex range")
    last = [u]
    parent = [-1]
    masks = [1 << u]
    queue = [0]
    while queue:
        node = queue.pop()
        v = last[node]
        mask = masks[node]
        if depth is not None and mask.bit_count() > depth:
            continue
        for w in _bits(g.adj[v] & ~mask):
            idx = len(last)
            if idx >= _PATH_TREE_CAP:
                raise CapacityError(f"path tree exceeds {_PATH_TREE_CAP} nodes")
            last.append(w)
            parent.append(node)
            masks.append(mask | 1 << w)
            queue.append(idx)
    return PathTree(tuple(last), tuple(parent))


def closed_walks_at_root(tree: PathTree, length: int) -> int:
    """Closed walks of the given length at the root of the path tree."""
    if length % 2:
        return 0
    size = tree.size
    children = tree.children()
    parent = tree.parent
    cur = [0] * size
    cur[0] = 1
    for _ in range(length):
        nxt = [0] * size
        for node, c in enumerate(cur):
            if not c:
                continue
            if parent[node] >= 0:
                nxt[parent[node]] += c
            for ch in children[node]:
                nxt[ch] += c
        cur = nxt
    return cur[0]


def tree_like_walk_total(g: Graph, length: int) -> int:
    """Closed tree-like walks of the given even length 2k in G, summed over
    all starting vertices; equals n * s_length = n * 2 a_k.

    These are the closed walks at the roots of the path trees, counted over
    (v, S) states instead of tree nodes: the subtree below a path depends
    only on its last vertex v and its vertex set S.  With x marking a step
    down and back up, the closed walks at a state that stay below it have
    the series A(v, S) = 1 / (1 - x sum_{w in N(v) - S} A(w, S + w)), needed
    to degree k - (|S| - 1).  States are built level by level, without
    recursion, down to paths of k - 1 edges, whose series is
    1 + (number of children) x, and folded back up; the total is
    sum_u [x^k] A(u, {u}).

    Each state's series takes O(k^2) steps, so the cost grows at least
    quadratically in the length: P_5 at length 1000 took 0.34-0.63 s on
    2 vCPUs, its five path trees (build_path_tree) under 0.01 s."""
    if length < 2 or length % 2:
        raise DomainError("walk length must be even and >= 2")
    k = length // 2
    adj = g.adj
    levels = [[(u, 1 << u) for u in range(g.n)]]
    created = g.n
    for _ in range(k - 1):
        below: dict[tuple[int, int], None] = {}
        for v, mask in levels[-1]:
            for w in _bits(adj[v] & ~mask):
                below[w, mask | 1 << w] = None
            if created + len(below) > _PATH_TREE_CAP:
                raise CapacityError(f"walk states exceed {_PATH_TREE_CAP}")
        created += len(below)
        levels.append(list(below))
    series = {(v, mask): (1, (adj[v] & ~mask).bit_count())
              for v, mask in levels.pop()}
    top = 1
    while levels:
        top += 1
        above = {}
        for v, mask in levels.pop():
            down = [0] * top
            for w in _bits(adj[v] & ~mask):
                for i, c in enumerate(series[w, mask | 1 << w]):
                    down[i] += c
            a = [1]
            for j in range(1, top + 1):
                a.append(sum(down[i] * a[j - 1 - i] for i in range(j)))
            above[v, mask] = a
        series = above
    return sum(series[u, 1 << u][k] for u in range(g.n))


@dataclass(frozen=True)
class PowerSums:
    """Normalized power sums a_1..a_K of the squared matching roots."""

    values: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.values)

    def a(self, k: int) -> Fraction:
        if not 1 <= k <= len(self.values):
            raise DomainError(f"a_{k} not computed (order {len(self.values)})")
        return self.values[k - 1]

    def doubled(self, k: int) -> Fraction:
        """2 a_k, the spectral moment s_{2k} per vertex."""
        return 2 * self.a(k)


def power_sums_newton(gen_poly: Poly, n: int, order: int) -> PowerSums:
    """a_k from the matching generating polynomial via Newton's identities.

    The g_i are the roots of the reversed polynomial, so the elementary
    symmetric functions are the matching counts m_k (padded with zeros);
    power sums over all n "roots" (missing ones are zero) divided by n.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    e = [gen_poly[k] for k in range(order + 1)]
    p: list[int] = []
    for k in range(1, order + 1):
        acc = (-1) ** (k - 1) * k * e[k]
        for i in range(1, k):
            acc += (-1) ** (i - 1) * e[i] * p[k - i - 1]
        p.append(acc)
    return PowerSums(tuple(Fraction(pk, n) for pk in p))


def graph_power_sums(g: Graph, order: int) -> PowerSums:
    return power_sums_newton(matching_gen_poly(g), g.n, order)


def infinite_tree_power_sums(d: int, order: int) -> PowerSums:
    """a_k of the infinite d-regular tree.

    2 a_k counts closed walks of length 2k at any vertex: a depth-indexed
    DP where the root has d children and every other node d - 1.
    """
    if d < 1:
        raise DomainError("need d >= 1")
    cur = [1] + [0] * order
    svals = []
    for step in range(1, 2 * order + 1):
        nxt = [0] * (order + 1)
        for j, c in enumerate(cur):
            if not c:
                continue
            if j > 0:
                nxt[j - 1] += c
            if j < order:
                nxt[j + 1] += c * (d if j == 0 else d - 1)
        cur = nxt
        if step % 2 == 0:
            svals.append(cur[0])
    return PowerSums(tuple(Fraction(s, 2) for s in svals))
