"""Best uniform polynomial approximation of ln(1+x) on [0, A] by the Remez
exchange algorithm, the admissible activity intervals it yields for cubic
graphs, and the ladder that chains those intervals.

Floating computations here run at the precision `dps` sets (default 40
significant digits; the reference system 10 bits above it) and are compared
against published 10-digit values at stated tolerances; they feed no exact
verdicts elsewhere.  They call libmp's mpf_* functions on raw tuples at that
explicit precision, rounding to nearest, so no mpmath global precision is
read or set; results are returned as mpf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from mpmath import libmp, mp, mpf
from mpmath.libmp import (dps_to_prec, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le,
                          mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pow_int,
                          mpf_sign, mpf_sub)

from .certified import Enclosure, _mpf_to_fraction
from .errors import ConvergenceError, DomainError
from .graphs import Graph, count_subgraphs
from .series_bounds import InequalityReport, verify_inequality

DEFAULT_LADDER = ("0.2", "0.5", "0.9", "1.4", "1.8", "2.3", "2.6", "2.8", "2.87")
BASE_CAP = Fraction(1, 144)       # (0, 1/(4d)^2) for d = 3 from the general theorem
COVER_TARGET = "0.3575"
_DPS = 40
_MAX_EXCHANGES = 60
_RND = libmp.round_nearest
_ONE, _TWO, _TEN = (libmp.from_int(k) for k in (1, 2, 10))
_KEY = cmp_to_key(libmp.mpf_cmp)  # orders raw values for max() and min()


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

    @property
    def sign_pattern_ok(self) -> bool:
        """(-1)^(i+1) c_i >= 0 for i >= 3 (degree 4: c_3 > 0, c_4 < 0)."""
        return all((-1) ** (i + 1) * mpf_sign(self.coeffs[i]._mpf_) >= 0
                   for i in range(3, self.degree + 1))


def _horner(coeffs, x, prec):
    """sum_k coeffs[k] x^k (raw, lowest degree first) by Horner's rule at
    prec, as polynomials._horner runs on mpf: its first step 0*x + c rounds
    the leading coefficient to prec."""
    acc = fzero
    for c in reversed(coeffs):
        acc = mpf_add(mpf_mul(acc, x, prec, _RND), c, prec, _RND)
    return acc


def _log1p(x, prec):
    """ln(1 + x) as mpmath.log(1 + x) computes it: 1 + x rounded first."""
    return mpf_log(mpf_add(x, _ONE, prec, _RND), prec, _RND)


def _read(x, dps, prec):
    """mpf(str(x)) with mpmath's context at dps digits, raw: an mpf or an
    mpmath constant such as mpmath.pi prints at dps digits, as its str does
    at that precision."""
    if isinstance(x, mpf):
        x = libmp.to_str(x._mpf_, dps)
    elif isinstance(x, mp.constant):
        x = libmp.to_str(x.func(prec, _RND), dps)
    return libmp.from_str(str(x), prec, _RND)


def _solve_reference_system(refs, degree, prec):
    """P's coefficients and the level h with P(x_i) + (-1)^i h = ln(1 + x_i)
    at the m = degree + 2 references, by Gaussian elimination on lists.

    The rows are built at prec and the elimination runs 10 bits above it,
    with mpmath.lu_solve's steps: the pivot is the entry largest against the
    sum of its row's remaining entries, and a pivot or row sum at or below
    ||M||_1 eps makes the system singular.  So it returns lu_solve's
    numbers.  Each step is correctly rounded, so the +-1 column gives the
    same bits as the Python ints lu_solve's caller passed."""
    n = degree + 2
    rows = [[mpf_pow_int(x, j, prec, _RND) for j in range(degree + 1)]
            + [libmp.from_int((-1) ** i), _log1p(x, prec)] for i, x in enumerate(refs)]
    wp = prec + 10

    def fsum_abs(values):
        return libmp.mpf_sum([mpf_abs(v, wp, _RND) for v in values], wp, _RND)

    tol = mpf_mul(max((fsum_abs(row[j] for row in rows) for j in range(n)), key=_KEY),
                  (0, 1, 1 - wp, 1), wp, _RND)  # mp.eps at wp
    for j in range(n):
        sums = [fsum_abs(row[j:n]) for row in rows[j:]]
        if mpf_le(min(sums, key=_KEY), tol):
            raise ConvergenceError("singular Remez reference system")
        p = max(range(j, n), key=lambda k: _KEY(mpf_mul(libmp.mpf_rdiv_int(
            1, sums[k - j], wp, _RND), mpf_abs(rows[k][j], wp, _RND), wp, _RND)))
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j]
        if mpf_le(mpf_abs(pivot[j], wp, _RND), tol):
            raise ConvergenceError("singular Remez reference system")
        for row in rows[j + 1:]:
            f = mpf_div(row[j], pivot[j], wp, _RND)
            for k in range(j + 1, n + 1):
                row[k] = mpf_sub(row[k], mpf_mul(f, pivot[k], wp, _RND), wp, _RND)
    sol = [fzero] * n
    for i in reversed(range(n)):
        row = rows[i]
        x = row[n]
        for k in range(i + 1, n):
            x = mpf_sub(x, mpf_mul(row[k], sol[k], wp, _RND), wp, _RND)
        sol[i] = mpf_div(x, row[i], wp, _RND)
    return sol[:-1], sol[-1]


def _newton_root(coeffs, dcoeffs, a, b, rising, tiny, prec, x=None):
    """The root in (a, b) of the polynomial `coeffs` (derivative `dcoeffs`),
    which rises through it if `rising` and falls otherwise, by Newton's
    method from x (default the midpoint) inside a shrinking sign bracket.

    A Newton step of at most `tiny` ends the search, and is taken even when
    it rounds onto the bracket's end.  Any other step that leaves the
    bracket, or a zero derivative, is replaced by bisection, which ends the
    search once the bracket is within 2 tiny."""
    if x is None or not (mpf_lt(a, x) and mpf_lt(x, b)):
        x = libmp.mpf_shift(mpf_add(a, b, prec, _RND), -1)  # (a + b) / 2, halved exactly
    for _ in range(prec):
        fx = _horner(coeffs, x, prec)
        if fx == fzero:
            return x
        if (mpf_sign(fx) < 0) == rising:
            a = x
        else:
            b = x
        dfx = _horner(dcoeffs, x, prec)
        if dfx != fzero:
            step = mpf_div(fx, dfx, prec, _RND)
            x = mpf_sub(x, step, prec, _RND)
            if mpf_le(mpf_abs(step), tiny):
                return min(max(x, a, key=_KEY), b, key=_KEY)
        if not (mpf_lt(a, x) and mpf_lt(x, b)):
            x = libmp.mpf_shift(mpf_add(a, b, prec, _RND), -1)
            if mpf_le(mpf_sub(b, a, prec, _RND), libmp.mpf_shift(tiny, 1)):
                return x
    return x


def _sign_change_roots(coeffs, lo, hi, prec, guesses, level=0):
    """Ascending roots in (lo, hi) at which the polynomial changes sign.
    They are sought between the derivative's sign changes, found the same
    way: the polynomial is monotone there, so each piece holds at most one.
    guesses[level] holds the roots this call found, and its previous value,
    the roots of a nearby polynomial, gives each piece its start point."""
    if len(coeffs) < 2:
        return []
    dcoeffs = [mpf_mul_int(coeffs[j], j, prec, _RND) for j in range(1, len(coeffs))]
    ends = [lo] + _sign_change_roots(dcoeffs, lo, hi, prec, guesses, level + 1) + [hi]
    signs = [mpf_sign(_horner(coeffs, e, prec)) for e in ends]
    tiny = mpf_mul(mpf_sub(hi, lo, prec, _RND), mpf_pow_int(_TWO, 8 - prec, prec, _RND),
                   prec, _RND)
    starts = guesses.get(level, ())
    roots = []
    for i in range(len(ends) - 1):
        if signs[i] * signs[i + 1] >= 0:
            continue
        a, b = ends[i], ends[i + 1]
        start = next((x for x in starts if mpf_lt(a, x) and mpf_lt(x, b)), None)
        roots.append(_newton_root(coeffs, dcoeffs, a, b, signs[i] < 0, tiny, prec, start))
    guesses[level] = roots
    return roots


def _error_extrema(coeffs, A, prec, guesses=None):
    """Extremum candidates of e(x) = ln(1+x) - P(x) on [0, A]: both
    endpoints plus the sign changes of e'(x) = q(x)/(1+x), where
    q(x) = 1 - (1+x)P'(x) has the degree of P.  `guesses` (see
    _sign_change_roots) warm-starts the search from an earlier call's roots
    and is updated with this call's."""
    dp = [mpf_mul_int(coeffs[j], j, prec, _RND) for j in range(1, len(coeffs))]
    q = [mpf_neg(c) for c in
         [dp[0]] + [mpf_add(dp[k], dp[k - 1], prec, _RND) for k in range(1, len(dp))] + [dp[-1]]]
    q[0] = mpf_add(q[0], _ONE, prec, _RND)
    roots = _sign_change_roots(q, fzero, A, prec, {} if guesses is None else guesses)
    return [fzero] + roots + [A]


def _select_alternating(points, errs, m):
    """Collapse same-sign runs to their largest-|e| member, then pick the
    window of m consecutive alternating extrema with the largest smallest
    deviation (the first such window on a tie)."""
    merged = []
    for x, e in zip(points, errs):
        if merged and mpf_sign(e) == mpf_sign(merged[-1][1]):
            if mpf_gt(mpf_abs(e), mpf_abs(merged[-1][1])):
                merged[-1] = (x, e)
        else:
            merged.append((x, e))
    if len(merged) < m:
        return None
    best = None
    for start in range(len(merged) - m + 1):
        window = merged[start:start + m]
        low = min((mpf_abs(e) for _, e in window), key=_KEY)
        if best is None or mpf_gt(low, best[0]):
            best = (low, [x for x, _ in window])
    return best[1]


def remez_best_approx(A, degree: int = 4, dps: int = _DPS) -> RemezResult:
    """Deterministic minimax fit of ln(1+x) on [0, A].  An mpf A is used as
    it is; any other A is read by _read at the working precision.

    Convergence: the solved equioscillation level agrees with the measured
    maximum deviation to a relative tolerance of 10^(10 - dps), or to within
    10^(2 - dps) ln(1 + A), a hundred times the rounding noise left by the
    cancellation in ln(1+x) - P(x), whichever is looser.
    """
    if degree < 1:
        raise DomainError("need degree >= 1")
    prec = dps_to_prec(dps)
    a = A._mpf_ if isinstance(A, mpf) else _read(A, dps, prec)
    if mpf_le(a, fzero):
        raise DomainError("need A > 0")
    tol = mpf_pow_int(_TEN, 10 - dps, prec, _RND)
    floor = mpf_mul(mpf_pow_int(_TEN, 2 - dps, prec, _RND), _log1p(a, prec), prec, _RND)
    m = degree + 2
    half, pi, last = mpf_div(a, _TWO, prec, _RND), libmp.mpf_pi(prec, _RND), libmp.from_int(m - 1)
    refs = []
    for i in range(m):  # A/2 (1 - cos(pi i / (m - 1)))
        cos = libmp.mpf_cos(mpf_div(mpf_mul_int(pi, i, prec, _RND), last, prec, _RND), prec, _RND)
        refs.append(mpf_mul(half, mpf_sub(_ONE, cos, prec, _RND), prec, _RND))
    guesses = {}  # each exchange's roots start the next one's search
    for it in range(1, _MAX_EXCHANGES + 1):
        coeffs, level = _solve_reference_system(refs, degree, prec)
        points = _error_extrema(coeffs, a, prec, guesses)
        errs = [mpf_sub(_log1p(x, prec), _horner(coeffs, x, prec), prec, _RND)
                for x in points]
        maxdev = max((mpf_abs(e) for e in errs), key=_KEY)
        selected = _select_alternating(points, errs, m)
        if selected is None:
            raise ConvergenceError("equioscillation structure lost")
        eps = mpf_abs(level, prec, _RND)
        if mpf_le(mpf_sub(maxdev, eps, prec, _RND),
                  max(mpf_mul(tol, maxdev, prec, _RND), floor, key=_KEY)):
            make = mp.make_mpf
            return RemezResult(make(a), degree, tuple(map(make, coeffs)), make(eps),
                               tuple(map(make, selected)), it, make(maxdev), dps)
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
    prec = dps_to_prec(res.dps)
    c3, c4, eps = res.coeffs[3]._mpf_, res.coeffs[4]._mpf_, res.epsilon._mpf_
    if not (mpf_gt(c3, fzero) and mpf_lt(c4, fzero) and mpf_gt(eps, fzero)):
        raise DomainError("need c_3 > 0, c_4 < 0, eps > 0")
    quartic = [mpf_neg(eps, prec, _RND), fzero, fzero,
               mpf_mul((0, 3, -1, 2), c3, prec, _RND), mpf_mul_int(c4, 27, prec, _RND)]
    dquartic = [fzero, fzero, mpf_mul((0, 9, -1, 4), c3, prec, _RND),
                mpf_mul_int(c4, 108, prec, _RND)]
    peak = mpf_div(mpf_neg(c3, prec, _RND), mpf_mul_int(c4, 24, prec, _RND), prec, _RND)
    if mpf_le(_horner(quartic, peak, prec), fzero):
        raise DomainError(
            f"approximation error {libmp.to_str(eps, 10)} too large: "
            "no positive solution interval")
    tiny = mpf_mul(peak, mpf_pow_int(_TWO, 8 - prec, prec, _RND), prec, _RND)
    lam_min = _newton_root(quartic, dquartic,
                           mpf_mul(peak, mpf_pow_int(_TEN, -25, prec, _RND), prec, _RND),
                           peak, True, tiny, prec)
    # the quartic is -6 c_3 peak^3 - eps < 0 at 2 peak
    lam_max = _newton_root(quartic, dquartic, peak, mpf_mul_int(peak, 2, prec, _RND),
                           False, tiny, prec)
    make = mp.make_mpf
    return LambdaInterval(res.A, make(lam_min), make(lam_max),
                          make(mpf_div(res.A._mpf_, libmp.from_int(8), prec, _RND)))


def _from_fraction(q: Fraction, prec: int):
    """mpf(q.numerator) / q.denominator at prec, raw: the numerator rounds
    first."""
    return mpf_div(libmp.from_int(q.numerator, prec, _RND), libmp.from_int(q.denominator),
                   prec, _RND)


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
    (0, target], which is read by _read at the working precision.  A rung
    whose fit admits no interval does not connect and leaves the frontier
    where it was."""
    if not ladder:
        raise DomainError("empty ladder")
    if base_cap < 0:
        raise DomainError(f"negative base cap: {base_cap}")
    prec = dps_to_prec(dps)
    target = mp.make_mpf(_read(target, dps, prec))
    if target <= 0:
        raise DomainError(f"target must be positive: {libmp.to_str(target._mpf_, dps)}")
    frontier = mp.make_mpf(_from_fraction(base_cap, prec))
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
    return LadderReport(tuple(rows), base_cap, target, frontier, tuple(gaps))


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
    lam_f = mp.make_mpf(_from_fraction(lam, dps_to_prec(res.dps)))
    if not (itv.lam_min < lam_f < itv.lam_max and lam_f <= itv.cap):
        raise DomainError(
            f"lam = {lam} outside the admissible interval "
            f"({libmp.to_str(itv.lam_min._mpf_, 10)}, "
            f"{libmp.to_str(min(itv.cap, itv.lam_max)._mpf_, 10)})")
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
