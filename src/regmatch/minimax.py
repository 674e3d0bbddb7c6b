"""Best uniform polynomial approximation of ln(1+x) on [0, A] by the Remez
exchange algorithm, the admissible activity intervals it yields for cubic
graphs, and the ladder that chains those intervals.

Floating computations here run at a fixed elevated precision (default 40
significant digits) and are compared against published 10-digit values at
stated tolerances; they feed no exact verdicts elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

from .certified import Enclosure, _mpf_to_fraction
from .errors import ConvergenceError, DomainError
from .graphs import Graph, count_subgraphs
from .polynomials import _horner, _poly_mul
from .series_bounds import InequalityReport, verify_inequality

DEFAULT_LADDER = ("0.2", "0.5", "0.9", "1.4", "1.8", "2.3", "2.6", "2.8", "2.87")
BASE_CAP = Fraction(1, 144)       # (0, 1/(4d)^2) for d = 3 from the general theorem
COVER_TARGET = "0.3575"
_DPS = 40
_MAX_EXCHANGES = 60


@dataclass(frozen=True)
class RemezResult:
    """Minimax polynomial for ln(1+x) on [0, A] with equioscillation data."""

    A: mpf
    degree: int
    coeffs: tuple[mpf, ...]
    epsilon: mpf
    refs: tuple[mpf, ...]
    iterations: int
    max_deviation: mpf
    dps: int             # the working precision of the fit, in digits

    def poly_at(self, x) -> mpf:
        return _horner(self.coeffs, x)

    def error_at(self, x) -> mpf:
        return mpmath.log(1 + x) - self.poly_at(x)

    @property
    def sign_pattern_ok(self) -> bool:
        """(-1)^(i+1) c_i >= 0 for i >= 3 (degree 4: c_3 > 0, c_4 < 0)."""
        ok = True
        for i in range(3, self.degree + 1):
            ok = ok and ((-1) ** (i + 1)) * self.coeffs[i] >= 0
        return ok


def _solve_reference_system(refs, degree):
    """P's coefficients and the level h with P(x_i) + (-1)^i h = ln(1 + x_i)
    at the m = degree + 2 references, by Gaussian elimination on lists.

    It runs 10 bits above the working precision with mpmath.lu_solve's
    steps: the pivot is the entry largest against the sum of its row's
    remaining entries, and a pivot or row sum at or below ||M||_1 eps makes
    the system singular.  So it returns lu_solve's numbers."""
    n = degree + 2
    rows = [[x ** j for j in range(degree + 1)] + [(-1) ** i, mpmath.log(1 + x)]
            for i, x in enumerate(refs)]
    with mp.extraprec(10):
        tol = max(mpmath.fsum(abs(row[j]) for row in rows) for j in range(n)) * mp.eps
        for j in range(n):
            sums = [mpmath.fsum(abs(v) for v in row[j:n]) for row in rows[j:]]
            if min(sums) <= tol:
                raise ConvergenceError("singular Remez reference system")
            p = max(range(j, n), key=lambda k: 1 / sums[k - j] * abs(rows[k][j]))
            rows[j], rows[p] = rows[p], rows[j]
            pivot = rows[j]
            if abs(pivot[j]) <= tol:
                raise ConvergenceError("singular Remez reference system")
            for row in rows[j + 1:]:
                f = row[j] / pivot[j]
                for k in range(j + 1, n + 1):
                    row[k] -= f * pivot[k]
        sol = [mpf(0)] * n
        for i in reversed(range(n)):
            row = rows[i]
            x = row[n]
            for k in range(i + 1, n):
                x -= row[k] * sol[k]
            sol[i] = x / row[i]
    return sol[:-1], sol[-1]


def _newton_root(coeffs, dcoeffs, a, b, rising, tiny, x=None):
    """The root in (a, b) of the polynomial `coeffs` (derivative `dcoeffs`),
    which rises through it if `rising` and falls otherwise, by Newton's
    method from x (default the midpoint) inside a shrinking sign bracket.

    A Newton step of at most `tiny` ends the search, and is taken even when
    it rounds onto the bracket's end.  Any other step that leaves the
    bracket, or a zero derivative, is replaced by bisection, which ends the
    search once the bracket is within 2 tiny."""
    if x is None or not a < x < b:
        x = (a + b) / 2
    for _ in range(mp.prec):
        fx = _horner(coeffs, x)
        if fx == 0:
            return x
        if (fx < 0) == rising:
            a = x
        else:
            b = x
        dfx = _horner(dcoeffs, x)
        if dfx:
            step = fx / dfx
            if abs(step) <= tiny:
                return min(max(x - step, a), b)
            x -= step
        if not a < x < b:
            x = (a + b) / 2
            if b - a <= 2 * tiny:
                return x
    return x


def _sign_change_roots(coeffs, lo, hi, guesses, level=0):
    """Ascending roots in (lo, hi) at which the polynomial changes sign.
    They are sought between the derivative's sign changes, found the same
    way: the polynomial is monotone there, so each piece holds at most one.
    guesses[level] holds the roots this call found, and its previous value,
    the roots of a nearby polynomial, gives each piece its start point."""
    if len(coeffs) < 2:
        return []
    dcoeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
    ends = [lo] + _sign_change_roots(dcoeffs, lo, hi, guesses, level + 1) + [hi]
    tiny = (hi - lo) * mpf(2) ** (8 - mp.prec)
    starts = guesses.get(level, ())
    roots = []
    for a, b in zip(ends, ends[1:]):
        fa = _horner(coeffs, a)
        if fa * _horner(coeffs, b) >= 0:
            continue
        start = next((x for x in starts if a < x < b), None)
        roots.append(_newton_root(coeffs, dcoeffs, a, b, fa < 0, tiny, start))
    guesses[level] = roots
    return roots


def _error_extrema(coeffs, A, guesses=None):
    """Extremum candidates of e(x) = ln(1+x) - P(x) on [0, A]: both
    endpoints plus the sign changes of e'(x) = q(x)/(1+x), where
    q(x) = 1 - (1+x)P'(x) has the degree of P.  `guesses` (see
    _sign_change_roots) warm-starts the search from an earlier call's roots
    and is updated with this call's."""
    dp = [j * coeffs[j] for j in range(1, len(coeffs))]
    q = [-r for r in _poly_mul([1, 1], dp)]
    q[0] += 1
    roots = _sign_change_roots(q, mpf(0), A, {} if guesses is None else guesses)
    return [mpf(0)] + roots + [A]


def _select_alternating(points, errs, m):
    """Collapse same-sign runs to their largest-|e| member, then pick the
    window of m consecutive alternating extrema with the largest smallest
    deviation."""
    merged = []
    for x, e in zip(points, errs):
        if merged and mpmath.sign(e) == mpmath.sign(merged[-1][1]):
            if abs(e) > abs(merged[-1][1]):
                merged[-1] = (x, e)
        else:
            merged.append((x, e))
    if len(merged) < m:
        return None
    best = None
    for start in range(len(merged) - m + 1):
        window = merged[start:start + m]
        low = min(abs(e) for _, e in window)
        if best is None or low > best[0]:
            best = (low, [x for x, _ in window])
    return best[1]


def remez_best_approx(A, degree: int = 4, dps: int = _DPS) -> RemezResult:
    """Deterministic minimax fit of ln(1+x) on [0, A].

    Convergence: the solved equioscillation level agrees with the measured
    maximum deviation to a relative tolerance of 10^(10 - dps), or to within
    10^(2 - dps) ln(1 + A), a hundred times the rounding noise left by the
    cancellation in ln(1+x) - P(x), whichever is looser.
    """
    if degree < 1:
        raise DomainError("need degree >= 1")
    with mp.workdps(dps):
        A = mpf(str(A)) if not isinstance(A, mpf) else A
        if A <= 0:
            raise DomainError("need A > 0")
        tol = mpf(10) ** (-dps + 10)
        floor = mpf(10) ** (2 - dps) * mpmath.log(1 + A)
        m = degree + 2
        refs = [A / 2 * (1 - mpmath.cos(mpmath.pi * i / (m - 1)))
                for i in range(m)]
        guesses = {}  # each exchange's roots start the next one's search
        for it in range(1, _MAX_EXCHANGES + 1):
            coeffs, level = _solve_reference_system(refs, degree)
            points = _error_extrema(coeffs, A, guesses)
            errs = [mpmath.log(1 + x) - _horner(coeffs, x) for x in points]
            maxdev = max(abs(e) for e in errs)
            selected = _select_alternating(points, errs, m)
            if selected is None:
                raise ConvergenceError("equioscillation structure lost")
            if maxdev - abs(level) <= max(tol * maxdev, floor):
                return RemezResult(A, degree, tuple(coeffs), abs(level),
                                   tuple(selected), it, maxdev, dps)
            refs = selected
        raise ConvergenceError(
            f"Remez did not converge in {_MAX_EXCHANGES} exchanges")


@dataclass(frozen=True)
class LambdaInterval:
    """Solutions of (3/2) c_3 l^3 + 27 c_4 l^4 > eps, capped at A/8."""

    A: mpf
    lam_min: mpf
    lam_max: mpf
    cap: mpf            # A/8

    @property
    def usable(self) -> tuple[mpf, mpf]:
        return (self.lam_min, min(self.cap, self.lam_max))

    @property
    def empty(self) -> bool:
        lo, hi = self.usable
        return not lo < hi


def lambda_interval(res: RemezResult) -> LambdaInterval:
    """The positive roots lam_min < lam_max of the quartic
    -eps + (3/2)c_3 l^3 + 27 c_4 l^4, by _newton_root on either side of its
    peak at -c_3/(24 c_4), where it must be positive; at the fit's
    precision."""
    if res.degree < 4:
        raise DomainError("interval derivation needs a degree-4 result")
    with mp.workdps(res.dps):
        c3, c4, eps = res.coeffs[3], res.coeffs[4], res.epsilon
        if not (c3 > 0 and c4 < 0 and eps > 0):
            raise DomainError("need c_3 > 0, c_4 < 0, eps > 0")
        quartic = [-eps, 0, 0, mpf(3) / 2 * c3, 27 * c4]
        dquartic = [0, 0, mpf(9) / 2 * c3, 108 * c4]
        peak = -c3 / (24 * c4)
        if _horner(quartic, peak) <= 0:
            raise DomainError(
                f"approximation error {mpmath.nstr(eps, 10)} too large: "
                "no positive solution interval")
        tiny = peak * mpf(2) ** (8 - mp.prec)
        lam_min = _newton_root(quartic, dquartic, peak * mpf(10) ** (-25), peak,
                               True, tiny)
        # the quartic is -6 c_3 peak^3 - eps < 0 at 2 peak
        lam_max = _newton_root(quartic, dquartic, peak, 2 * peak, False, tiny)
        return LambdaInterval(res.A, lam_min, lam_max, res.A / 8)


@dataclass(frozen=True)
class LadderRow:
    A: mpf
    result: RemezResult
    interval: LambdaInterval | None  # None: the fit's error admits no interval
    connects: bool       # lam_min < previous frontier


@dataclass(frozen=True)
class LadderReport:
    rows: tuple[LadderRow, ...]
    base_cap: Fraction
    target: mpf
    frontier: mpf        # right end of the covered union
    gaps: tuple[tuple[mpf, mpf], ...]

    @property
    def covered(self) -> bool:
        return not self.gaps and self.frontier > self.target


def ladder_verify(ladder=DEFAULT_LADDER, base_cap: Fraction = BASE_CAP,
                  degree: int = 4, target=COVER_TARGET,
                  dps: int = _DPS) -> LadderReport:
    """Chain the base interval (0, base_cap) with the ladder's usable
    intervals (lam_min, min(A/8, lam_max)) and report coverage of
    (0, target].  A rung whose fit admits no interval does not connect and
    leaves the frontier where it was."""
    if not ladder:
        raise DomainError("empty ladder")
    if base_cap < 0:
        raise DomainError(f"negative base cap: {base_cap}")
    with mp.workdps(dps):
        target = mpf(str(target))
        if target <= 0:
            raise DomainError(f"target must be positive: {target}")
        frontier = mpf(base_cap.numerator) / base_cap.denominator
        rows = []
        gaps = []
        for a in ladder:
            res = remez_best_approx(a, degree=degree, dps=dps)
            try:
                itv = lambda_interval(res)
            except DomainError:
                rows.append(LadderRow(res.A, res, None, False))
                continue
            lo, hi = itv.usable
            connects = lo < frontier
            if not connects and lo < target:
                gaps.append((frontier, lo))
            rows.append(LadderRow(res.A, res, itv, connects))
            if hi > frontier:
                frontier = hi
        return LadderReport(tuple(rows), base_cap, target, frontier,
                            tuple(gaps))


@dataclass(frozen=True)
class CubicCheckReport:
    lam: Fraction
    bound: Fraction             # proof's lower bound on the margin
    margin: Enclosure           # true certified margin
    bound_below_margin: bool
    hypotheses_met: bool        # rho_3 <= 1/2 and lam < -c_3/(16 c_4)
    bound_positive: bool
    inequality: InequalityReport

    @property
    def ok(self) -> bool:
        return self.bound_below_margin and (
            not self.hypotheses_met or self.bound_positive)


def cubic_theorem_check(g: Graph, res: RemezResult, lam) -> CubicCheckReport:
    """Evaluate the cubic theorem's margin lower bound
    c_3 (3 - 3 rho_3) l^3 + c_4 (51 - 48 rho_3 - 4 rho_4) l^4 - eps
    with the graph's actual densities and confirm it sits below the true
    certified margin; positivity is required whenever rho_3 <= 1/2 and
    l < -(1/16) c_3/c_4."""
    if g.regular_degree() != 3:
        raise DomainError("cubic theorem applies to 3-regular graphs")
    lam = Fraction(lam)
    itv = lambda_interval(res)
    with mp.workdps(res.dps):
        lam_f = mpf(lam.numerator) / lam.denominator
        if not (itv.lam_min < lam_f < itv.lam_max and lam_f <= itv.cap):
            raise DomainError(
                f"lam = {lam} outside the admissible interval "
                f"({mpmath.nstr(itv.lam_min, 10)}, "
                f"{mpmath.nstr(min(itv.cap, itv.lam_max), 10)})")
        counts = count_subgraphs(g)
        rho3, rho4 = counts.rho3, counts.rho4
        c3 = _mpf_to_fraction(res.coeffs[3]._mpf_)
        c4 = _mpf_to_fraction(res.coeffs[4]._mpf_)
        eps = _mpf_to_fraction(res.epsilon._mpf_)
        bound = (c3 * (3 - 3 * rho3) * lam ** 3
                 + c4 * (51 - 48 * rho3 - 4 * rho4) * lam ** 4 - eps)
        hyp = rho3 <= Fraction(1, 2) and lam < -c3 / (16 * c4)
    inequality = verify_inequality(g, 3, lam)
    return CubicCheckReport(lam, bound, inequality.margin,
                            bound <= inequality.margin.lo, hyp, bound > 0,
                            inequality)
