"""Matching polynomials via memoized deletion recursions.

The matching generating polynomial M(G, x) = sum_k m_k x^k counts k-edge
matchings.  It satisfies, for any vertex u and any edge e = (u, v),

    M(G) = M(G - u) + x * sum_{v ~ u} M(G - u - v)
    M(G) = M(G - e) + x * M(G - u - v)

and is multiplicative over connected components.  The engine recurses on
the vertex rule at a maximum-degree pivot, splits components first, and
memoizes on canonical forms so isomorphic fragments are computed once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .certified import DEFAULT_BITS, Enclosure, log_enclosure
from .errors import DomainError
from .graphs import (Graph, _bits, _canonical_order_masks, _components,
                     _induced_masks, _BudgetExceeded)
from .polynomials import (Poly, _horner, _poly_mul,
                          count_real_roots_with_multiplicity)

# canonical search is abandoned beyond this many nodes; the raw labeled
# adjacency is used as a (weaker but sound) memo key instead
_CANON_NODE_BUDGET = 20000

_memo: dict[object, tuple[int, ...]] = {}


def clear_cache() -> None:
    _memo.clear()


def _gen_coeffs(masks: tuple[int, ...]) -> list[int]:
    comps = _components(masks)
    if len(comps) == 1:
        return _component_coeffs(masks)
    result = [1]
    for comp in comps:
        result = _poly_mul(result, _component_coeffs(_induced_masks(masks, comp)))
    return result


def _memo_key(masks: tuple[int, ...]):
    n = len(masks)
    try:
        order, _ = _canonical_order_masks(n, masks, budget=_CANON_NODE_BUDGET)
    except _BudgetExceeded:
        return ("labeled", masks)
    relabeled = _induced_masks(masks, order)
    return ("canon", n, relabeled)


def _component_coeffs(masks: tuple[int, ...]) -> list[int]:
    n = len(masks)
    if n == 0:
        return [1]
    if n == 1:
        return [1]
    if n == 2:
        return [1, 1] if masks[0] else [1]
    key = _memo_key(masks)
    hit = _memo.get(key)
    if hit is not None:
        return list(hit)
    pivot = max(range(n), key=lambda v: masks[v].bit_count())
    rest = [v for v in range(n) if v != pivot]
    acc = _gen_coeffs(_induced_masks(masks, rest))
    branch_sum: list[int] = []
    for w in _bits(masks[pivot]):
        sub = _gen_coeffs(_induced_masks(masks, [v for v in rest if v != w]))
        if len(sub) > len(branch_sum):
            branch_sum += [0] * (len(sub) - len(branch_sum))
        for i, c in enumerate(sub):
            branch_sum[i] += c
    coeffs = acc + [0] * (1 + len(branch_sum) - len(acc))
    for i, c in enumerate(branch_sum):
        coeffs[i + 1] += c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    _memo[key] = tuple(coeffs)
    return coeffs


def _counts(g: Graph) -> tuple[int, ...]:
    """Matching coefficients of g, computed on first use and kept on g, so
    later evaluations of the same Graph skip the canonical search and memo."""
    counts = g._counts
    if counts is None:
        counts = tuple(_gen_coeffs(g.adj))
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
