"""Series truncation with certified tails, density deficits, the minimization
certificate, and the two-sided comparison machinery.

Everything that decides an inequality does so exactly: comparisons between
per-vertex log partition functions (1/n) ln A >= (1/m) ln B are settled as
A^m >= B^n over the rationals, and only reported margins pass through
interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import libmp

from .certified import (DEFAULT_BITS, Enclosure, Verdict, _enclosure,
                        _escalate, _interval, _working_precision,
                        log_enclosure)
from .errors import DomainError
from .graphs import Graph, count_subgraphs, neighborhood_edge_counts
from .matchpoly import gen_poly_value, q_complete
from .walks import PowerSums


def truncated_log_series(a: PowerSums, lam, terms: int) -> Fraction:
    """Partial sum sum_{k<=terms} a_k (-1)^(k-1) lam^k / k, exactly."""
    lam = Fraction(lam)
    if terms > a.order:
        raise DomainError(f"series needs a_1..a_{terms}, only {a.order} computed")
    total = Fraction(0)
    power = Fraction(1)
    for k in range(1, terms + 1):
        power *= lam
        total += (-1) ** (k - 1) * a.a(k) * power / k
    return total


@dataclass(frozen=True)
class TailBound:
    """Certified bound (4(d-1)lam)^t / t on the omitted series tail."""

    d: int
    lam: Fraction
    start: int
    bound: Fraction

    def bracket(self, partial: Fraction) -> Enclosure:
        """Enclosure of the true value given the partial sum through
        term start-1; the first omitted term has index `start`."""
        if self.start % 2 == 0:
            # omitted tail is <= 0 (alternating, first omitted term negative
            # in the signed sum)
            return Enclosure(partial - self.bound, partial)
        return Enclosure(partial, partial + self.bound)


def tail_bound(d: int, lam, start: int) -> TailBound:
    """Bound on |sum_{k>=start} a_k (-1)^(k-1) lam^k / k| for d-regular
    graphs; needs x = 4(d-1)lam in [0, 1)."""
    lam = Fraction(lam)
    if d < 2 or start < 1:
        raise DomainError("need d >= 2 and start >= 1")
    x = 4 * (d - 1) * lam
    if not 0 <= x < 1:
        raise DomainError(f"4(d-1)lam = {x} outside [0, 1): tail not controlled")
    return TailBound(d, lam, start, x ** start / start)


# ---------------------------------------------------------------------------
# Density deficits

def complete_graph_densities(d: int) -> tuple[Fraction, Fraction]:
    """(rho(C_3, K_{d+1}), rho(C_4, K_{d+1})) per vertex."""
    n = d + 1
    return Fraction(comb(n, 3), n), Fraction(3 * comb(n, 4), n)


@dataclass(frozen=True)
class DeficitPair:
    """Triangle and 4-cycle densities of G measured against K_{d+1}."""

    d: int
    n: int
    delta3: Fraction
    delta4: Fraction
    t_sum: int  # sum over vertices of C(d,2) - e(N(v))

    @property
    def satisfies_lower(self) -> bool:
        """delta3 >= 1/3, guaranteed when no component is K_{d+1}."""
        return self.delta3 >= Fraction(1, 3)

    @property
    def satisfies_ratio(self) -> bool:
        """delta4 <= (3(d-2)/2) delta3, same hypothesis."""
        return self.delta4 <= Fraction(3 * (self.d - 2), 2) * self.delta3


def deficits(g: Graph, d: int) -> DeficitPair:
    if g.regular_degree() != d:
        raise DomainError("graph is not d-regular")
    counts = count_subgraphs(g)
    rho3_k, rho4_k = complete_graph_densities(d)
    delta3 = rho3_k - counts.rho3
    delta4 = rho4_k - counts.rho4
    t_sum = sum(comb(d, 2) - e for e in neighborhood_edge_counts(g))
    # e(N(v)) counts each triangle through v once, so sum_v e(N(v)) = 3 #C3
    if Fraction(t_sum, 3 * g.n) != delta3:
        raise DomainError(
            f"deficit routes disagree: t_sum/3n = {Fraction(t_sum, 3 * g.n)}"
            f" vs density route {delta3}")
    return DeficitPair(d, g.n, delta3, delta4, t_sum)


# ---------------------------------------------------------------------------
# Main-theorem certificate

def main_certificate(d: int, lam) -> Fraction:
    """(1/6)(2 lam^3 - 15 d lam^4 - (4 d lam)^6); positive whenever
    1/lam > 16 d^2, and positivity certifies the minimization inequality
    for every d-regular graph with no K_{d+1} component."""
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("certificate defined for lam > 0")
    return (2 * lam ** 3 - 15 * d * lam ** 4 - (4 * d * lam) ** 6) / 6


@dataclass(frozen=True)
class CertificateChain:
    """The margin lower bounds of the minimization proof, tightest first.

    deficit_form   uses G's actual deficits,
    after_ratio    replaces delta4 by its (3(d-2)/2) delta3 bound,
    after_lower    then replaces delta3 by 1/3,
    simplified     the closed-form (1/6)(2l^3 - 15dl^4 - (4dl)^6).
    """

    d: int
    lam: Fraction
    deficit_form: Fraction
    after_ratio: Fraction
    after_lower: Fraction
    simplified: Fraction

    @property
    def ordered(self) -> bool:
        return (self.deficit_form >= self.after_ratio >= self.after_lower
                >= self.simplified)


def certificate_chain(g: Graph, d: int, lam) -> CertificateChain:
    lam = Fraction(lam)
    if lam <= 0:
        raise DomainError("certificate defined for lam > 0")
    dp = deficits(g, d)
    tail = (4 * (d - 1) * lam) ** 6 / 6
    body = lam ** 3 - 6 * (d - 1) * lam ** 4
    deficit_form = dp.delta3 * body - dp.delta4 * lam ** 4 - tail
    ratio_body = body - Fraction(3 * (d - 2), 2) * lam ** 4
    after_ratio = dp.delta3 * ratio_body - tail
    after_lower = Fraction(1, 3) * ratio_body - tail
    return CertificateChain(d, lam, deficit_form, after_ratio, after_lower,
                            main_certificate(d, lam))


# ---------------------------------------------------------------------------
# Certified inequality verdicts

@dataclass(frozen=True)
class InequalityReport:
    verdict: Verdict
    margin: Enclosure          # (1/n) ln M_G - (1/m) ln M_H
    equality: bool
    lhs_value: Fraction        # M_G(lam)
    bits: int


def compare_log_per_vertex(a: Fraction, n: int, b: Fraction, m: int,
                           bits: int = DEFAULT_BITS) -> InequalityReport:
    """Certified verdict for (1/n) ln a >= (1/m) ln b, decided exactly as
    a^m >= b^n.  The reported margin is log_enclosure(a)/n - log_enclosure(b)/m,
    recomputed at doubled precision (up to MAX_BITS) until its sign agrees
    with the exact verdict."""
    _working_precision(bits)  # rejects bits outside 1..MAX_BITS up front
    if a <= 0 or b <= 0:
        raise DomainError("log comparison needs positive values")
    lhs, rhs = a ** m, b ** n
    equality = lhs == rhs
    verdict = Verdict.HOLDS if lhs >= rhs else Verdict.FAILS
    if equality:
        return InequalityReport(verdict, Enclosure.exact(0), True, a, bits)
    # the verdict is exact regardless; at MAX_BITS only the margin stays coarse
    margin, used = _escalate(
        lambda prec: log_enclosure(a, prec) / n - log_enclosure(b, prec) / m,
        (lambda m: m.lo > 0) if lhs > rhs else (lambda m: m.hi < 0), bits)
    return InequalityReport(verdict, margin, False, a, used)


def _partition_values(g: Graph, d: int, lam: Fraction) -> tuple[Fraction, Fraction]:
    """M_G(lam) and M_{K_{d+1}}(lam) for a d-regular G, both checked positive
    (their logs are compared)."""
    if g.regular_degree() != d:
        raise DomainError("graph is not d-regular")
    value_g = gen_poly_value(g, lam)
    if value_g <= 0:
        raise DomainError(f"M_G({lam}) = {value_g} is not positive")
    value_k = q_complete(d + 1)(lam)
    if value_k <= 0:
        raise DomainError(f"M_K_{d+1}({lam}) = {value_k} is not positive")
    return value_g, value_k


def verify_inequality(g: Graph, d: int, lam,
                      bits: int = DEFAULT_BITS) -> InequalityReport:
    """Certified check of (1/n) ln M_G(lam) >= (1/(d+1)) ln M_{K_{d+1}}(lam)."""
    value_g, value_k = _partition_values(g, d, Fraction(lam))
    return compare_log_per_vertex(value_g, g.n, value_k, d + 1, bits)


# ---------------------------------------------------------------------------
# Infinite tree closed form and the negative-lambda sandwich

def tree_closed_form(d: int, lam, bits: int = DEFAULT_BITS) -> Enclosure:
    """Certified enclosure of the per-vertex log partition function of the
    infinite d-regular tree:

        (1/2) ln S_d(lam),  S_d = (1/eta^2) ((d-1)/(d-eta))^(d-2),
        eta = (sqrt(1+4(d-1)lam) - 1) / (2(d-1)lam),

    valid for lam >= -1/(4(d-1)); the value at lam = 0 is 0."""
    prec = _working_precision(bits)
    lam = Fraction(lam)
    if d < 2:
        raise DomainError("need d >= 2")
    if lam == 0:
        return Enclosure.exact(0)
    if 1 + 4 * (d - 1) * lam < 0:
        raise DomainError(f"lam = {lam} below -1/(4(d-1)): tree value undefined")
    add, sub, mul, div = libmp.mpi_add, libmp.mpi_sub, libmp.mpi_mul, libmp.mpi_div
    lam_i, one = _interval(lam, prec), _interval(1, prec)
    lo, hi = add(one, mul(_interval(4 * (d - 1), prec), lam_i, prec), prec)
    # the exact discriminant is >= 0 (checked above), but at a lam that is not
    # dyadic, such as -1/(4(d-1)) itself, its rounded enclosure can dip below 0
    disc = (libmp.fzero if libmp.mpf_sign(lo) < 0 else lo, hi)
    eta = div(sub(libmp.mpi_sqrt(disc, prec), one, prec),
              mul(_interval(2 * (d - 1), prec), lam_i, prec), prec)
    s = div(one, mul(eta, eta, prec), prec)
    if d > 2:
        ratio = div(_interval(d - 1, prec), sub(_interval(d, prec), eta, prec), prec)
        s = mul(s, libmp.mpi_pow_int(ratio, d - 2, prec), prec)
    return _enclosure(div(libmp.mpi_log(s, prec), _interval(2, prec), prec))


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided comparison tree <= G <= K_{d+1} at one negative lam."""

    lam: Fraction
    lower_verdict: Verdict     # tree side
    upper_verdict: Verdict     # complete-graph side
    lower_margin: Enclosure    # (1/n) ln M_G - (1/2) ln S_d
    upper_margin: Enclosure    # (1/(d+1)) ln M_K - (1/n) ln M_G
    upper_equality: bool
    bits: int

    @property
    def verdict(self) -> Verdict:
        order = (Verdict.FAILS, Verdict.INCONCLUSIVE, Verdict.HOLDS)
        return min((self.lower_verdict, self.upper_verdict), key=order.index)


def negative_lambda_sandwich(g: Graph, d: int, lam,
                             bits: int = DEFAULT_BITS) -> SandwichReport:
    _working_precision(bits)  # rejects bits outside 1..MAX_BITS up front
    lam = Fraction(lam)
    if d < 2:
        raise DomainError("need d >= 2")
    if not -Fraction(1, 4 * (d - 1)) <= lam <= 0:
        raise DomainError(f"lam = {lam} outside [-1/(4(d-1)), 0]")
    value_g, value_k = _partition_values(g, d, lam)
    # upper side is exact: (1/n) ln M_G <= (1/(d+1)) ln M_K
    upper = compare_log_per_vertex(value_k, d + 1, value_g, g.n, bits)
    # lower side needs the (irrational) tree value; escalate then give up
    lower_margin, used = _escalate(
        lambda prec: log_enclosure(value_g, prec) / g.n - tree_closed_form(d, lam, prec),
        lambda m: m.lo >= 0 or m.hi < 0, bits)
    lower = (Verdict.HOLDS if lower_margin.lo >= 0 else
             Verdict.FAILS if lower_margin.hi < 0 else Verdict.INCONCLUSIVE)
    return SandwichReport(lam, lower, upper.verdict, lower_margin,
                          upper.margin, upper.equality, used)
