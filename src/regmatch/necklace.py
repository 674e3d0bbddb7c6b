"""Necklace covers through the transfer matrix, the discriminant, the
P_d / Q_d polynomial family, and certified critical constants c_d.

For an edge e = (u, v) of G the 2x2 matrix

    B = [[M(G-e),      M(G-u)     ],
         [lam M(G-v),  lam M(G-uv)]]

satisfies trace(B) = M(G) (edge recursion) and trace(B^k) = M of the
k-fold necklace cover of G along e.  Its determinant lam (M(G-e) M(G-uv)
- M(G-u) M(G-v)) controls whether necklaces beat or lose to G^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .graphs import Graph
from .matchpoly import matching_gen_poly, q_complete, q_complete_minus_edge
from .polynomials import Poly, _scaled_horner

_X = Poly([0, 1])
_DIVISOR_CAP = 10 ** 12  # _divisors gives up above it (trial division to 10^6 at worst)


@dataclass(frozen=True)
class TransferMatrix:
    """Exact polynomial transfer matrix of (G, e)."""

    minus_edge: Poly   # M(G - e)
    minus_u: Poly      # M(G - u)
    minus_v: Poly      # M(G - v)
    minus_both: Poly   # M(G - u - v)

    @property
    def entries(self) -> tuple[tuple[Poly, Poly], tuple[Poly, Poly]]:
        return ((self.minus_edge, self.minus_u),
                (_X * self.minus_v, _X * self.minus_both))

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


def _mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def necklace_partition_via_trace(tm: TransferMatrix, k: int) -> Poly:
    """trace(B^k) = matching generating polynomial of the k-fold necklace."""
    if k < 2:
        raise DomainError("necklace fold k must be >= 2")
    b = tm.entries
    power = b
    for _ in range(k - 1):
        power = _mat_mul(power, b)
    return power[0][0] + power[1][1]


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
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


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


def _divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| from its prime factorisation; empty
    for 0 and above _DIVISOR_CAP."""
    n = abs(n)
    if n == 0 or n > _DIVISOR_CAP:
        return []
    out = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            pk, powers = 1, []
            while n % p == 0:
                n //= p
                pk *= p
                powers.append(pk)
            out += [d * m for d in out for m in powers]
        p += 1 if p == 2 else 2
    if n > 1:
        out += [d * n for d in out]
    return sorted(out)


def _positive_rational_root(q: Poly) -> Fraction | None:
    """Positive rational root via the rational root theorem, if any."""
    coeffs = list(q.coeffs)
    shift = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        shift += 1
    if not coeffs:
        return None
    for p in _divisors(int(coeffs[0])):
        for den in _divisors(int(coeffs[-1])):
            if _scaled_horner(coeffs, p, den) == 0:
                return Fraction(p, den)
    return None


def critical_constant(d: int, width=Fraction(1, 10 ** 10)) -> CriticalConstant:
    """Sign-certified bisection bracket of c_d, the unique positive root
    of Q_d (odd d >= 3); exact rational roots are detected and returned
    as zero-width brackets through d = 15 only.  The rational-root search
    skips coefficients above _DIVISOR_CAP = 10^12, and the leading
    coefficient of Q_d passes it from d = 17 on (Q_17's is
    -4,108,830,350,625), so from there c_d is always a bracket."""
    if d % 2 == 0 or d < 3:
        raise DomainError("c_d defined for odd d >= 3")
    width = Fraction(width)
    q = qd_recursive(d)
    root = _positive_rational_root(q)
    if root is not None:
        return CriticalConstant(d, root, root, Fraction(0), Fraction(0), True)

    def val(x: Fraction) -> int:
        """An integer with the sign of Q_d(x), zero with it."""
        return _scaled_horner(q.coeffs, x.numerator, x.denominator)

    lo = Fraction(1, 1024)
    while val(lo) <= 0:
        if val(lo) == 0:
            return CriticalConstant(d, lo, lo, Fraction(0), Fraction(0), True)
        lo /= 2
        if lo < Fraction(1, 2 ** 60):
            raise DomainError(f"no positive bracket found for Q_{d}")
    hi = Fraction(d)
    while val(hi) >= 0:
        if val(hi) == 0:
            return CriticalConstant(d, hi, hi, Fraction(0), Fraction(0), True)
        hi *= 2
        if hi > 2 ** 30:
            raise DomainError(f"no sign change found for Q_{d}")
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = val(mid)
        if v == 0:
            return CriticalConstant(d, mid, mid, Fraction(0), Fraction(0), True)
        if v > 0:
            lo = mid
        else:
            hi = mid
    return CriticalConstant(d, lo, hi, q(lo), q(hi), False)
