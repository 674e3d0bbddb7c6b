"""Necklace covers through the transfer matrix, the discriminant, the
P_d / Q_d polynomial family, and certified critical constants c_d.

For an edge e = (u, v) of G the 2x2 matrix

    B = [[M(G-e),      M(G-u)     ],
         [lam M(G-v),  lam M(G-uv)]]

satisfies trace(B) = M(G) (edge recursion) and trace(B^k) = M of the
k-fold necklace cover of G along e.  Its determinant lam (M(G-e) M(G-uv)
- M(G-u) M(G-v)) controls whether necklaces beat or lose to G^k.  With
T = trace(B) and D = det(B), Cayley-Hamilton (B^2 = T B - D I) gives the
traces t_k = trace(B^k) as t_0 = 2, t_1 = T, t_k = T t_{k-1} - D t_{k-2},
so no power of B is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .errors import DomainError
from .graphs import Graph
from .matchpoly import matching_gen_poly, q_complete, q_complete_minus_edge
from .polynomials import Poly, _scaled_horner

_X = Poly([0, 1])


@dataclass(frozen=True)
class TransferMatrix:
    """Exact polynomial transfer matrix of (G, e)."""

    minus_edge: Poly   # M(G - e)
    minus_u: Poly      # M(G - u)
    minus_v: Poly      # M(G - v)
    minus_both: Poly   # M(G - u - v)

    def trace_poly(self) -> Poly:
        return self.minus_edge + _X * self.minus_both

    def det_poly(self) -> Poly:
        return _X * (self.minus_edge * self.minus_both
                     - self.minus_u * self.minus_v)


def transfer_matrix(g: Graph, u: int, v: int) -> TransferMatrix:
    if not (0 <= u < g.n and 0 <= v < g.n and g.has_edge(u, v)):
        raise DomainError(f"({u},{v}) is not an edge")
    keep = [w for w in range(g.n) if w not in (u, v)]
    minus_edge = Graph(g.n, [e for e in g.edges if set(e) != {u, v}])
    return TransferMatrix(
        minus_edge=matching_gen_poly(minus_edge),
        minus_u=matching_gen_poly(g.induced([w for w in range(g.n) if w != u])),
        minus_v=matching_gen_poly(g.induced([w for w in range(g.n) if w != v])),
        minus_both=matching_gen_poly(g.induced(keep)),
    )


def necklace_partition_via_trace(tm: TransferMatrix, k: int) -> Poly:
    """trace(B^k) = matching generating polynomial of the k-fold necklace,
    by t_j = T t_{j-1} - D t_{j-2} from t_0 = 2 and t_1 = T."""
    if k < 2:
        raise DomainError("necklace fold k must be >= 2")
    t, det = tm.trace_poly(), tm.det_poly()
    prev, cur = Poly.const(2), t
    for _ in range(k - 1):
        prev, cur = cur, t * cur - det * prev
    return cur


def discriminant(g: Graph, u: int, v: int) -> Poly:
    """det(B) = lam (M(G-e) M(G-uv) - M(G-u) M(G-v)).

    Sign at lam > 0 gives the strict trichotomy: negative means the
    k-fold necklace strictly beats M(G)^k, zero means equality, positive
    means it strictly loses.
    """
    return transfer_matrix(g, u, v).det_poly()


def reduced_discriminant(g: Graph, u: int, v: int) -> Poly:
    """The lam-free factor M(G-e) M(G-uv) - M(G-u) M(G-v)."""
    tm = transfer_matrix(g, u, v)
    return (tm.minus_edge * tm.minus_both - tm.minus_u * tm.minus_v)


def pd_direct(d: int) -> Poly:
    """P_d = M(K_{d+1}-e) M(K_{d-1}) - M(K_d)^2, exactly."""
    if d < 2:
        raise DomainError("need d >= 2")
    return q_complete_minus_edge(d + 1) * q_complete(d - 1) - q_complete(d) ** 2


def qd_direct(d: int) -> Poly:
    """Q_d = q_d q_{d-2} - q_{d-1}^2."""
    if d < 2:
        raise DomainError("need d >= 2")
    return q_complete(d) * q_complete(d - 2) - q_complete(d - 1) ** 2


@lru_cache(maxsize=None)
def qd_recursive(d: int) -> Poly:
    """Q_d via the recursion
    Q_d = lam q_{d-2} (q_{d-3} - lam q_{d-4}) + (d-2)^2 lam^2 Q_{d-2},
    bottoming out at the direct values for d = 3, 4."""
    if d < 3:
        raise DomainError("recursion defined for d >= 3")
    if d in (3, 4):
        return qd_direct(d)
    head = _X * q_complete(d - 2) * (q_complete(d - 3) - _X * q_complete(d - 4))
    return head + (d - 2) ** 2 * _X * _X * qd_recursive(d - 2)


def qd_alternate(d: int) -> Poly:
    """The companion recursion
    Q_d = lam q_{d-3} (q_{d-2} - lam q_{d-3}) + (d-1)(d-3) lam^2 Q_{d-2}."""
    if d < 5:
        raise DomainError("alternate recursion defined for d >= 5")
    head = _X * q_complete(d - 3) * (q_complete(d - 2) - _X * q_complete(d - 3))
    return head + (d - 1) * (d - 3) * _X * _X * qd_recursive(d - 2)


def _double_factorial(n: int) -> int:
    return prod(range(n, 1, -2))


@dataclass(frozen=True)
class CoefficientReport:
    d: int
    top: int
    next_to_top: int
    at_d_minus_3: int
    top_expected: int
    next_expected: int
    at_d_minus_3_expected: Fraction
    ok: bool


def qd_coefficient_checks(d: int) -> CoefficientReport:
    """Exact coefficient structure of Q_d for odd d >= 5:
    top = -((d-2)!!)^2, next = +((d-2)!!)^2,
    [lam^(d-3)] = (d-3)/6 ((d-2)!!)^2."""
    if d % 2 == 0 or d < 5:
        raise DomainError("coefficient checks defined for odd d >= 5")
    q = qd_recursive(d)
    df2 = _double_factorial(d - 2) ** 2
    expected_mid = Fraction(d - 3, 6) * df2
    top = q[q.degree]
    nxt = q[q.degree - 1]
    mid = q[d - 3]
    ok = (q.degree == d - 1 and top == -df2 and nxt == df2
          and mid == expected_mid)
    return CoefficientReport(d, top, nxt, mid, -df2, df2, expected_mid, ok)


@dataclass(frozen=True)
class CriticalConstant:
    """Certified bracket for the unique positive root c_d of Q_d."""

    d: int
    lo: Fraction
    hi: Fraction
    q_lo: Fraction
    q_hi: Fraction
    exact: bool

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def critical_constant(d: int, width=Fraction(1, 10 ** 10)) -> CriticalConstant:
    """Sign-certified bisection bracket of c_d, the unique positive root
    of Q_d (odd d >= 3), or the exact root as a zero-width bracket.

    Q_d = lam R(lam) with R(0) = 1 and every coefficient of R >= 0 except
    the negative leading one, so R has exactly one positive root (Descartes)
    and, by the rational root theorem, a rational root of R is some 1/k.
    Q_d(1) = 0 makes c_d = 1 exact (d = 3); Q_d(1) > 0 puts c_d above 1,
    so c_d is irrational and no bisection point is ever a root.  Both
    premises are checked here, for every d."""
    if d % 2 == 0 or d < 3:
        raise DomainError("c_d defined for odd d >= 3")
    width = Fraction(width)
    if width <= 0:
        raise DomainError(f"width must be positive: {width}")
    q = qd_recursive(d)
    r = q.coeffs[1:]
    if (q[0] != 0 or r[0] != 1 or r[-1] >= 0 or any(c < 0 for c in r[1:-1])
            or sum(r) < 0):
        raise DomainError(f"Q_{d} is not lam R(lam) with R(0) = 1, one sign change"
                          " and R(1) >= 0")
    if sum(r) == 0:
        return CriticalConstant(d, Fraction(1), Fraction(1), Fraction(0), Fraction(0), True)

    def val(x: Fraction) -> int:
        """An integer with the sign of Q_d(x)."""
        return _scaled_horner(q.coeffs, x.numerator, x.denominator)

    lo = Fraction(1, 1024)
    hi = Fraction(d)
    while val(hi) > 0:
        hi *= 2
        if hi > 2 ** 30:
            raise DomainError(f"no sign change found for Q_{d}")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if val(mid) > 0:
            lo = mid
        else:
            hi = mid
    return CriticalConstant(d, lo, hi, q(lo), q(hi), False)
