"""Matching polynomials by a frontier dynamic program.

The matching generating polynomial M(G, x) = sum_k m_k x^k counts k-edge
matchings.  The vertices are processed in a greedy minimum-frontier order;
the frontier after a step is the set of processed vertices that still have
an unprocessed neighbour.  A DP state is the set of frontier vertices left
unmatched, and it carries the coefficient list of the partial matchings
that leave exactly that set open.  Each new vertex either stays unmatched
(joining the state if it has a later neighbour) or matches one open
earlier neighbour, which multiplies by x.  With frontier width w there are
at most 2^w states, so the cost is known from the order before any DP
work; the paper's 2x2 transfer matrix along the marked edge of a necklace
is the width-2 case.  Disconnected graphs need no special case: the order
simply moves on to the next component.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .certified import DEFAULT_BITS, Enclosure, log_enclosure
from .errors import CapacityError, DomainError
from .graphs import Graph, _bits
from .polynomials import Poly, _horner, count_real_roots_with_multiplicity

# The vertex order fixes the size of the DP before any DP work: at most
# 2^width states per step, and a cost in units of one packed addition plus
# one per 2^11 bits added (_frontier_steps).  Past either cap the DP raises
# CapacityError.  On a 2-core host with Python 3.11 the slowest input found
# under the caps, 32 vertices each joined to the next 16 (width 16), takes
# about 7 s and 60 MB; K_17 (width 16) takes 0.3 s, and the 744-vertex
# k = 12 cover of a 62-vertex band graph (width 6) 3 s.  A width cap alone
# would not bound the time: the packed lists grow with the number of vertices.
_MAX_FRONTIER_WIDTH = 16
_MAX_DP_COST = 1 << 25

# The DP keeps no cache across graphs.  _memo and clear_cache() remain
# because the benchmark harness (perfbench/) resets the cache between
# passes and reports len(_memo) as matchpoly.memo_entries; it stays empty.
_memo: dict[object, tuple[int, ...]] = {}


def clear_cache() -> None:
    _memo.clear()


def _frontier_steps(adj: tuple[int, ...]) -> tuple[list[tuple[int, int]], int]:
    """Greedy minimum-frontier order as DP steps (vertex, frontier after it),
    and the field width of the packed coefficient lists.

    The candidates are the unprocessed neighbours of processed vertices (the
    lowest unprocessed vertex when there are none); the pick leaves the
    smallest frontier, then has the most processed neighbours, then the
    lowest index.  Raises CapacityError when the order's width or the DP's
    cost is above its cap."""
    n = len(adj)
    done = front = reach = 0
    steps = []
    width = 0
    # prod_v (1 + processed neighbours of v) bounds the number of matchings:
    # the DP picks one of those options at each vertex
    bound = 1
    adds = field_adds = 0
    for i in range(n):
        if not reach:
            rest = ((1 << n) - 1) & ~done
            reach = rest & -rest
        best = None
        for v in _bits(reach):
            after = done | 1 << v
            closing = 0 if adj[v] & ~after else 1
            for u in _bits(front & adj[v]):
                if not adj[u] & ~after:
                    closing += 1
            key = (1 - closing, -(adj[v] & done).bit_count(), v)
            if best is None or key < best:
                best = key
        v = best[2]
        # each state adds its list once, and once more per open neighbour of
        # v; after this step a list has at most (i + 1) // 2 + 1 fields
        step_adds = (1 << front.bit_count()) * (1 + (adj[v] & front).bit_count())
        adds += step_adds
        field_adds += step_adds * ((i + 1) // 2 + 1)
        bound *= 1 + (adj[v] & done).bit_count()
        bit = 1 << v
        done |= bit
        front |= bit
        for u in _bits(front & (adj[v] | bit)):
            if not adj[u] & ~done:
                front ^= 1 << u
        reach = (reach | adj[v]) & ~done
        width = max(width, front.bit_count())
        steps.append((v, front))
    shift = bound.bit_length()
    cost = adds + (field_adds * shift >> 11)
    if width > _MAX_FRONTIER_WIDTH or cost > _MAX_DP_COST:
        raise CapacityError(
            f"matching polynomial needs frontier width {width} and DP cost "
            f"{cost}, above the caps {_MAX_FRONTIER_WIDTH} and {_MAX_DP_COST}")
    return steps, shift


def _frontier_counts(adj: tuple[int, ...]) -> tuple[int, ...]:
    """Matching coefficients m_0, m_1, ... of the graph with these adjacency
    masks, by the frontier DP.

    Each coefficient list is packed into one integer, coefficient k at bit
    k * shift: adding lists is integer addition and multiplying by x is a
    shift.  No coefficient of any state exceeds the number of matchings of
    the whole graph, which is below 2^shift, so the fields never carry."""
    steps, shift = _frontier_steps(adj)
    states = {0: 1}
    for v, keep in steps:
        bit = 1 << v
        nbrs = adj[v]
        nxt: dict[int, int] = {}
        for s, packed in states.items():
            t = (s | bit) & keep
            nxt[t] = nxt.get(t, 0) + packed
            open_nbrs = s & nbrs
            if open_nbrs:
                packed <<= shift
                while open_nbrs:
                    low = open_nbrs & -open_nbrs
                    open_nbrs ^= low
                    t = (s ^ low) & keep
                    nxt[t] = nxt.get(t, 0) + packed
        states = nxt
    packed = states[0]
    field = (1 << shift) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & field)
        packed >>= shift
    return tuple(coeffs)


def _counts(g: Graph) -> tuple[int, ...]:
    """Matching coefficients of g, computed on first use and kept on g, so
    later evaluations of the same Graph skip the DP."""
    counts = g._counts
    if counts is None:
        counts = _frontier_counts(g.adj)
        object.__setattr__(g, "_counts", counts)
    return counts


def matching_gen_poly(g: Graph) -> Poly:
    """Matching generating polynomial: coefficient k is the number of
    k-edge matchings; degree is the maximum matching size."""
    return Poly(_counts(g))


def matching_counts(g: Graph) -> tuple[int, ...]:
    return _counts(g)


def matching_poly_mu(g: Graph) -> Poly:
    """Signed matching polynomial mu(G, x) = sum_k (-1)^k m_k x^(n-2k)."""
    m = _counts(g)
    n = g.n
    coeffs = [0] * (n + 1)
    for k, mk in enumerate(m):
        coeffs[n - 2 * k] = (-1) ** k * mk
    return Poly(coeffs)


def certify_root_bound(g: Graph, d: int) -> bool:
    """Exact check that every real root of mu(G, x) lies in
    (-2 sqrt(d-1), 2 sqrt(d-1)).

    mu(G, x) = x^(n mod 2) p(x^2) with p(y) = sum_k (-1)^k m_k y^(n//2 - k),
    so the bound holds when all n//2 roots of p, counted with multiplicity
    by Sturm sequences, lie in (-1/2, 4(d-1)).  Both endpoints are rational;
    if one of them is a root of p the check fails."""
    if d < 1:
        raise DomainError("need d >= 1")
    p = Poly(matching_poly_mu(g).coeffs[g.n % 2::2])
    lo, hi = Fraction(-1, 2), Fraction(4 * (d - 1))
    if p(lo) == 0 or p(hi) == 0:
        return False
    return count_real_roots_with_multiplicity(p, lo, hi) == g.n // 2


@lru_cache(maxsize=None)
def q_complete(n: int) -> Poly:
    """M(K_n, x) via q_n = q_{n-1} + (n-1) x q_{n-2}."""
    if n < 0:
        raise ValueError("need n >= 0")
    if n <= 1:
        return Poly([1])
    return q_complete(n - 1) + Poly([0, n - 1]) * q_complete(n - 2)


def q_complete_minus_edge(n: int) -> Poly:
    """M(K_n - e, x) = q_{n-1} + (n-2) x q_{n-2}."""
    if n < 2:
        raise ValueError("need n >= 2")
    return q_complete(n - 1) + Poly([0, n - 2]) * q_complete(n - 2)


def gen_poly_value(g: Graph, lam) -> Fraction:
    """Exact M(G, lam) at a rational point."""
    return _horner(_counts(g), Fraction(lam))


def log_per_vertex(g: Graph, lam, bits: int = DEFAULT_BITS) -> Enclosure:
    """Certified enclosure of (1/n) ln M(G, lam); requires M(G, lam) > 0."""
    if g.n == 0:
        raise DomainError("empty graph has no per-vertex free energy")
    value = gen_poly_value(g, lam)
    if value <= 0:
        raise DomainError(f"M(G, {Fraction(lam)}) = {value} is not positive")
    return log_enclosure(value, bits) / g.n
