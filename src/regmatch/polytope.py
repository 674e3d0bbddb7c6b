"""Even-degree machinery: the uniform fractional matching witness, the
matching-size lower bound it implies, and the large-activity threshold
comparison, all in exact arithmetic (log-domain comparisons included).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath

from .errors import CapacityError, DomainError
from .graphs import Graph, complete, isomorphic, max_matching
from .matchpoly import q_complete

_EXHAUSTIVE_CAP = 16


def _has_complete_component(g: Graph, d: int) -> bool:
    kd1 = complete(d + 1)
    return any(len(comp) == d + 1 and isomorphic(g.induced(comp), kd1)
               for comp in g.components())


@dataclass(frozen=True)
class OddSetViolation:
    subset: tuple[int, ...]
    edges_inside: int
    allowed: Fraction


@dataclass(frozen=True)
class FractionalWitness:
    """Edmonds-conditions verdict for the uniform vector x_e = (d+2)/(d(d+3))."""

    d: int
    n: int
    edge_value: Fraction
    nonneg_ok: bool
    vertex_ok: bool
    odd_set_ok: bool
    mode: str                     # "exhaustive" or "case-split"
    subsets_checked: int
    case_split_ok: bool           # each odd set fits its size-case edge cap
    violations: tuple[OddSetViolation, ...]

    @property
    def ok(self) -> bool:
        return self.nonneg_ok and self.vertex_ok and self.odd_set_ok


def edmonds_check(g: Graph, d: int) -> FractionalWitness:
    """Membership of the uniform vector in the matching polytope.

    Exhaustively enumerates odd vertex sets when n <= 16; for larger
    graphs verifies the three analytic size cases (|S| <= d-1, = d+1,
    >= d+3) that bound every odd set's internal edge count.
    """
    if d % 2 or d < 2:
        raise DomainError("even d >= 2 required")
    if g.regular_degree() != d:
        raise DomainError("graph is not d-regular")
    if _has_complete_component(g, d):
        raise DomainError(f"a component is K_{d + 1}, excluded by hypothesis")
    x = Fraction(d + 2, d * (d + 3))
    vertex_ok = d * x <= 1
    if g.n <= _EXHAUSTIVE_CAP:
        odd_ok, cases_ok, checked, violations = _exhaustive_odd_sets(g, d, x)
        mode = "exhaustive"
    else:
        odd_ok = cases_ok = _case_split_valid(d)
        checked = 0
        violations = ()
        mode = "case-split"
    return FractionalWitness(d, g.n, x, True, vertex_ok, odd_ok, mode,
                             checked, cases_ok, tuple(violations))


def _exhaustive_odd_sets(g: Graph, d: int, x: Fraction):
    n = g.n
    adj = g.adj
    odd_ok = True
    cases_ok = True
    checked = 0
    violations = []
    for mask in range(1, 1 << n):
        s = mask.bit_count()
        if s < 3 or s % 2 == 0:
            continue
        checked += 1
        edges = 0
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            edges += (adj[v] & mask & ~((low << 1) - 1)).bit_count()
        allowed = Fraction(s - 1, 2)
        if x * edges > allowed:
            odd_ok = False
            violations.append(OddSetViolation(
                tuple(i for i in range(n) if mask >> i & 1), edges, allowed))
        # the proof's per-size caps on edges inside an odd set
        if s <= d - 1:
            cap = comb(s, 2)
        elif s == d + 1:
            cap = comb(d + 1, 2) - 1
        else:
            cap = d * s // 2
        if edges > cap:
            cases_ok = False
            violations.append(OddSetViolation(
                tuple(i for i in range(n) if mask >> i & 1), edges,
                Fraction(cap)))
    return odd_ok, cases_ok, checked, violations


def _case_split_valid(d: int) -> bool:
    """The three size-case inequalities implying the odd-set condition
    for any d-regular graph with no K_{d+1} component (s odd, d even,
    so s never equals d or d + 2):

      s <= d-1:  x C(s,2) <= (s-1)/2, i.e. x s <= 1, worst at s = d-1;
      s == d+1:  e(S) <= C(d+1,2) - 1 since S cannot induce all of K_{d+1};
      s >= d+3:  e(S) <= d s / 2, and x d s / 2 <= (s-1)/2 iff s >= d+3.
    """
    x = Fraction(d + 2, d * (d + 3))
    small = x * (d - 1) <= 1
    mid = x * (comb(d + 1, 2) - 1) <= Fraction(d, 2)
    s = d + 3
    large = x * Fraction(d * s, 2) <= Fraction(s - 1, 2)
    return small and mid and large


@dataclass(frozen=True)
class MatchingBoundReport:
    d: int
    n: int
    nu: int
    bound: Fraction           # (d+2) n / (2(d+3))
    holds: bool


def matching_lower_bound_check(g: Graph, d: int) -> MatchingBoundReport:
    """nu(G) >= (d+2) n / (2(d+3)), exact comparison.

    No completeness precondition: K_{d+1} itself is allowed and honestly
    fails (its maximum matching is only d/2)."""
    if d % 2 or d < 2:
        raise DomainError("even d >= 2 required")
    if g.regular_degree() != d:
        raise DomainError("graph is not d-regular")
    nu = max_matching(g)
    bound = Fraction((d + 2) * g.n, 2 * (d + 3))
    return MatchingBoundReport(d, g.n, nu, bound, nu >= bound)


@dataclass(frozen=True)
class ThresholdReport:
    """T(d) = (d+1)(d+3) ln(d+1): above it, the guaranteed-matching lower
    bound on (1/n) ln M_G beats the K_{d+1} upper bound.

    The comparator margin is gap * ln(lam) - ln(d+1) with the exact gap
    1/((d+1)(d+3)) between the two linear coefficients."""

    d: int
    units: int                     # T(d) in units of ln(d+1)
    gap: Fraction                  # exact coefficient gap
    partition_at_one: Fraction     # M_{K_{d+1}}(1)
    crude_bound: int               # (d+1)^(d+1)

    @property
    def threshold_value(self) -> mpmath.mpf:
        return self.units * mpmath.log(self.d + 1)

    def margin_in_units(self, r) -> Fraction:
        """Exact margin sign for ln(lam) = r ln(d+1): returns
        r * gap - 1, positive iff the comparison holds strictly."""
        return Fraction(r) * self.gap - 1

    def margin_at_log(self, log_lam) -> mpmath.mpf:
        return mpmath.mpf(self.gap.numerator) / self.gap.denominator \
            * log_lam - mpmath.log(self.d + 1)


def even_d_threshold(d: int) -> ThresholdReport:
    if d % 2 or d < 2:
        raise DomainError("even d >= 2 required")
    units = (d + 1) * (d + 3)
    gap = Fraction(d + 2, 2 * (d + 3)) - Fraction(d, 2 * (d + 1))
    assert gap == Fraction(1, (d + 1) * (d + 3))
    value_at_one = Fraction(q_complete(d + 1)(1))
    return ThresholdReport(d, units, gap, value_at_one, (d + 1) ** (d + 1))
