"""Remez minimax fits, admissible intervals, ladder coverage, cubic check."""

import dataclasses
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from hypothesis import example, given, settings, strategies as st
import mpmath
from mpmath import mp, mpf
import pytest

from oracles import (
    mpf_error_extrema,
    mpf_lambda_interval,
    mpf_remez_best_approx,
    mpf_solve_reference_system,
    reference_error_extrema,
    reference_lambda_interval,
    remez_error_at,
)
from regmatch import minimax
from regmatch.certified import Verdict
from regmatch.errors import ConvergenceError, DomainError
from regmatch.graphs import complete, complete_bipartite, cycle, petersen
from regmatch.minimax import (
    BASE_CAP,
    DEFAULT_LADDER,
    cubic_theorem_check,
    ladder_verify,
    _error_extrema,
    _solve_reference_system,
    lambda_interval,
    remez_best_approx,
)


def test_remez_equioscillates():
    res = remez_best_approx("0.2")
    assert res.degree == 4
    assert len(res.coeffs) == 5
    assert len(res.refs) == 6
    assert res.sign_pattern_ok
    with mp.workdps(40):
        assert mpf(0) <= res.refs[0] < res.refs[-1] <= res.A
        assert all(a < b for a, b in zip(res.refs, res.refs[1:]))
        errs = [remez_error_at(res, x) for x in res.refs]
        # equal magnitude, alternating sign at the references
        for e in errs:
            assert abs(abs(e) - res.epsilon) <= mpf(10) ** -30
        for a, b in zip(errs, errs[1:]):
            assert mpmath.sign(a) == -mpmath.sign(b)
        # converged: measured sup deviation matches the solved level
        assert res.max_deviation - res.epsilon <= mpf(10) ** -28 * res.max_deviation
        # nothing on a dense grid exceeds the level
        for i in range(501):
            x = res.A * i / 500
            assert abs(remez_error_at(res, x)) <= res.epsilon * (1 + mpf(10) ** -20)


def test_remez_degree_eight_equioscillates():
    res = remez_best_approx("0.2", degree=8)
    assert len(res.refs) == 10
    with mp.workdps(40):
        assert mpf(0) <= res.refs[0] < res.refs[-1] <= res.A
        assert all(a < b for a, b in zip(res.refs, res.refs[1:]))
        errs = [remez_error_at(res, x) for x in res.refs]
        # ln(1+x) - P(x) ~ 2e-13 keeps about 27 of the 40 digits
        for e in errs:
            assert abs(abs(e) - res.epsilon) <= mpf(10) ** -25 * res.epsilon
        for a, b in zip(errs, errs[1:]):
            assert mpmath.sign(a) == -mpmath.sign(b)
        assert res.max_deviation - res.epsilon <= mpf(10) ** -25 * res.epsilon
        for i in range(501):
            x = res.A * i / 500
            assert abs(remez_error_at(res, x)) <= res.epsilon * (1 + mpf(10) ** -20)


@lru_cache(maxsize=None)
def _fit(a, degree, dps=40):
    return remez_best_approx(a, degree=degree, dps=dps)


def _extrema(coeffs, A, guesses=None):
    """minimax._error_extrema on mpf arguments at the working mp precision."""
    raw = _error_extrema([c._mpf_ for c in coeffs], A._mpf_, mp.prec, guesses)
    return [mp.make_mpf(x) for x in raw]


def _solve(refs, degree):
    """minimax._solve_reference_system on mpf references at the working mp
    precision, as mpf."""
    coeffs, level = _solve_reference_system([x._mpf_ for x in refs], degree, mp.prec)
    return [mp.make_mpf(c) for c in coeffs], mp.make_mpf(level)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["0.05", "0.2", "0.9", "2.87"]), st.integers(4, 7),
       st.sampled_from([0, 1e-6, 1e-2, 1]),
       st.lists(st.floats(-1, 1), min_size=11, max_size=11))
def test_error_extrema_match_grid_scan(a, degree, scale, shifts):
    """On minimax polynomials with coefficient k moved by up to
    scale * eps / A^k, every sign change of e' that the grid scan finds is
    one of the exact extrema."""
    res = _fit(a, degree)
    with mp.workdps(40):
        A = res.A
        coeffs = [c + mpf(scale) * mpf(t) * res.epsilon / A ** k
                  for k, (c, t) in enumerate(zip(res.coeffs, shifts))]
        exact = _extrema(coeffs, A)
        scan = reference_error_extrema(coeffs, A)
        assert exact[0] == 0 and exact[-1] == A
        assert all(x < y for x, y in zip(exact, exact[1:]))
        assert len(exact) >= len(scan)
        for x in scan[1:-1]:
            assert min(abs(x - y) for y in exact) <= mpf(10) ** -25 * A


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["0.05", "0.2", "0.9", "2.87"]), st.integers(4, 7),
       st.sampled_from([0, 1e-6, 1e-2, 1]),
       st.lists(st.floats(-1, 1), min_size=11, max_size=11),
       st.sampled_from(["0.05", "0.2", "0.9", "2.87"]))
def test_error_extrema_warm_start_matches_cold(a, degree, scale, shifts, source):
    """Started from the extrema of a neighbouring fit (the unshifted fit on
    [0, source], whose points may lie anywhere or past A), the search finds
    the cold search's points, and the grid scan's sign changes among them."""
    res = _fit(a, degree)
    with mp.workdps(40):
        A = res.A
        coeffs = [c + mpf(scale) * mpf(t) * res.epsilon / A ** k
                  for k, (c, t) in enumerate(zip(res.coeffs, shifts))]
        neighbour = _fit(source, degree)
        guesses = {}
        _extrema(neighbour.coeffs, neighbour.A, guesses)
        warm = _extrema(coeffs, A, guesses)
        cold = _extrema(coeffs, A)
        assert len(warm) == len(cold)
        for x, y in zip(warm, cold):
            assert abs(x - y) <= mpf(10) ** -30 * A
        assert [mp.make_mpf(x) for x in guesses[0]] == warm[1:-1]
        for x in reference_error_extrema(coeffs, A)[1:-1]:
            assert min(abs(x - y) for y in warm) <= mpf(10) ** -25 * A


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([20, 40, 60]), st.sampled_from(["0.01", "0.9", "2.87", "30"]),
       st.integers(1, 10), st.lists(st.floats(-0.45, 0.45), min_size=12, max_size=12))
def test_reference_system_is_lu_solve(dps, a, degree, jitter):
    """The elimination on lists returns mpmath.lu_solve's numbers, bit for
    bit, on Chebyshev references each moved by up to 0.45 of a spacing."""
    with mp.workdps(dps):
        A = mpf(a)
        m = degree + 2
        nodes = [i + mpf(t) if 0 < i < m - 1 else i for i, t in zip(range(m), jitter)]
        refs = [A / 2 * (1 - mpmath.cos(mpmath.pi * s / (m - 1))) for s in nodes]
        matrix = mpmath.matrix([[x ** j for j in range(degree + 1)] + [(-1) ** i]
                                for i, x in enumerate(refs)])
        rhs = mpmath.matrix([mpmath.log(1 + x) for x in refs])
        try:
            sol = list(mpmath.lu_solve(matrix, rhs))
        except ZeroDivisionError:
            with pytest.raises(ConvergenceError, match="singular"):
                _solve(refs, degree)
            return
        coeffs, level = _solve(refs, degree)
        assert coeffs + [level] == sol


def _outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raised."""
    try:
        return fn(*args)
    except (ConvergenceError, DomainError) as exc:
        return type(exc), str(exc)


def _bits(value):
    """value with each mpf replaced by its raw (sign, man, exp, bc) tuple,
    dataclasses by their fields and lists by tuples."""
    if isinstance(value, mpf):
        return value._mpf_
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


_A_TEXT = st.decimals(Decimal("0.01"), Decimal(30), places=4).map(str)


@settings(max_examples=30, deadline=None)
@given(_A_TEXT, st.integers(1, 10), st.integers(15, 60))
@example("1e-30", 4, 40)   # singular reference system
@example("30", 10, 40)     # no positive lambda interval
@example("0", 4, 40)
@example("2.87", 4, 15)
@example("22.76", 2, 43)   # a leading coefficient the first Horner step rounds
# more digits than the fit's precision: A rounds when read
@example("3.30560540000000000000000000000000000000000000000000000000000000000000000001", 7, 18)
@example("3.14159265358979323846264338327950288419716939937510582097494459", 4, 40)
def test_remez_matches_the_mpf_implementation_bit_for_bit(a, degree, dps):
    """Every field of the fit and of its lambda interval, or the error
    raised, is the mpf implementation's, and no global precision moves."""
    prec = mp.prec
    res = _outcome(remez_best_approx, a, degree, dps)
    assert mp.prec == prec
    ref = _outcome(mpf_remez_best_approx, a, degree, dps)
    assert _bits(res) == _bits(ref)
    if isinstance(ref, minimax.RemezResult):
        assert _bits(_outcome(lambda_interval, res)) \
            == _bits(_outcome(mpf_lambda_interval, ref))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([15, 20, 40, 60]), st.sampled_from(["0.01", "0.9", "2.87", "30"]),
       st.integers(1, 10), st.lists(st.floats(-0.45, 0.45), min_size=12, max_size=12))
def test_reference_system_and_extrema_match_the_mpf_implementation(dps, a, degree, jitter):
    """On jittered Chebyshev references: the solved system bit for bit, then
    the extrema of the solved (not yet equioscillating) polynomial and the
    warm-start roots they leave, cold and then warm."""
    with mp.workdps(dps):
        A = mpf(a)
        m = degree + 2
        nodes = [i + mpf(t) if 0 < i < m - 1 else i for i, t in zip(range(m), jitter)]
        refs = [A / 2 * (1 - mpmath.cos(mpmath.pi * s / (m - 1))) for s in nodes]
        solved = _outcome(mpf_solve_reference_system, refs, degree)
        assert _bits(_outcome(_solve, refs, degree)) == _bits(solved)
        if not isinstance(solved[0], list):
            return
        guesses, ref_guesses = {}, {}
        for coeffs in (solved[0], [c * (1 + mpf(t) / 1000) for c, t in zip(solved[0], jitter)]):
            assert _bits(_extrema(coeffs, A, guesses)) \
                == _bits(mpf_error_extrema(coeffs, A, ref_guesses))
            assert {k: tuple(v) for k, v in guesses.items()} == _bits(ref_guesses)


def test_remez_level_value():
    res = remez_best_approx("0.2")
    with mp.workdps(40):
        assert abs(res.epsilon - mpf("7.853682022e-8")) < mpf("1e-16")


def test_remez_domain():
    with pytest.raises(DomainError):
        remez_best_approx(0)
    with pytest.raises(DomainError):
        remez_best_approx("-1")
    with pytest.raises(DomainError):
        remez_best_approx("0.2", degree=-3)
    # a singular reference system is a failure to converge, not a crash
    with pytest.raises(ConvergenceError, match="singular"):
        remez_best_approx("1e-30")
    with pytest.raises(ConvergenceError, match="singular"):
        remez_best_approx("0.2", degree=40)


def test_lambda_interval_roots():
    res = remez_best_approx("0.2")
    itv = lambda_interval(res)
    with mp.workdps(40):
        c3, c4, eps = res.coeffs[3], res.coeffs[4], res.epsilon

        def margin(lam):
            return mpf(3) / 2 * c3 * lam ** 3 + 27 * c4 * lam ** 4 - eps

        assert itv.lam_min < itv.lam_max
        assert abs(margin(itv.lam_min)) < mpf(10) ** -30
        assert abs(margin(itv.lam_max)) < mpf(10) ** -30
        mid = mpmath.sqrt(itv.lam_min * itv.lam_max)
        assert margin(mid) > 0
        # here the raw right root exceeds A/8, so the cap binds
        assert itv.cap == res.A / 8
        assert itv.usable == (itv.lam_min, itv.cap)
        assert not itv.empty
        assert abs(itv.lam_min - mpf("0.005568811878")) < mpf("1e-4")


@pytest.mark.parametrize("dps", [40, 60])
def test_lambda_interval_matches_bisection_without_stalling(monkeypatch, dps):
    """On every rung the Newton roots are the bisection's to 1e-30, from at
    most 60 evaluations of the quartic.  A converged step that rounds onto
    the bracket's end must end the search: read as leaving the bracket, it
    set off up to about 100 bisections per root (378 evaluations on A = 1.4
    at 60 digits, against about 40 per rung now)."""
    calls = []
    horner = minimax._horner

    def counted(coeffs, x, prec):
        calls.append(x)
        return horner(coeffs, x, prec)

    for a in DEFAULT_LADDER:
        res = _fit(a, 4, dps)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(minimax, "_horner", counted)
            itv = lambda_interval(res)
        assert len(calls) <= 60, a
        lam_min, lam_max = reference_lambda_interval(res, dps)
        with mp.workdps(dps):
            assert abs(itv.lam_min - lam_min) <= mpf(10) ** -30
            assert abs(itv.lam_max - lam_max) <= mpf(10) ** -30
            # the roots carry the fit's precision, not a fixed 40 digits
            assert abs(itv.lam_min / lam_min - 1) <= mpf(10) ** (5 - dps)
            assert abs(itv.lam_max / lam_max - 1) <= mpf(10) ** (5 - dps)


def test_lambda_interval_needs_degree_four():
    res = remez_best_approx("0.2", degree=3)
    with pytest.raises(DomainError):
        lambda_interval(res)


def test_ladder_covers_target():
    report = ladder_verify()
    assert report.covered
    assert report.gaps == ()
    assert len(report.rows) == len(DEFAULT_LADDER)
    assert all(row.connects for row in report.rows)
    with mp.workdps(40):
        assert report.frontier > mpf("0.3575")
        assert report.rows[0].interval.lam_min \
            < mpf(BASE_CAP.numerator) / BASE_CAP.denominator


def test_ladder_detects_gap():
    pruned = tuple(a for a in DEFAULT_LADDER if a != "0.5")
    report = ladder_verify(pruned)
    assert not report.covered
    assert len(report.gaps) == 1
    lo, hi = report.gaps[0]
    with mp.workdps(40):
        assert abs(lo - mpf("0.025")) < mpf("1e-9")
        assert abs(hi - mpf("0.0546")) < mpf("1e-3")


def test_ladder_rejects_empty():
    with pytest.raises(DomainError):
        ladder_verify(())


@pytest.mark.parametrize("value", [mpf("0.2"), 0.2, mpmath.pi], ids=["mpf", "float", "pi"])
def test_remez_inputs_are_decimal_text(value):
    # the decimal an mpf prints moves with mpmath's global precision
    with pytest.raises(DomainError, match="need decimal text"):
        remez_best_approx(value)
    with pytest.raises(DomainError, match="need decimal text"):
        ladder_verify((value,))
    with pytest.raises(DomainError, match="need decimal text"):
        ladder_verify(target=value)


def test_cubic_check_complete_graph_boundary():
    # K_4: both density corrections vanish, bound reduces to -eps
    res = remez_best_approx("0.2")
    rep = cubic_theorem_check(complete(4), res, Fraction(1, 100))
    assert rep.ok
    assert not rep.hypotheses_met
    assert rep.bound < 0
    assert rep.bound_below_margin
    assert rep.inequality.equality
    assert rep.margin.lo == rep.margin.hi == 0


def test_cubic_check_triangle_free_graphs():
    res = remez_best_approx("0.2")
    for g in (petersen(), complete_bipartite(3, 3)):
        rep = cubic_theorem_check(g, res, Fraction(1, 100))
        assert rep.ok
        assert rep.hypotheses_met
        assert rep.bound_positive
        assert rep.bound > 0
        assert rep.bound <= rep.margin.lo
        assert rep.inequality.verdict is Verdict.HOLDS


def test_cubic_check_domain():
    res = remez_best_approx("0.2")
    with pytest.raises(DomainError):
        cubic_theorem_check(petersen(), res, Fraction(1, 10))  # above A/8
    with pytest.raises(DomainError):
        cubic_theorem_check(cycle(4), res, Fraction(1, 100))  # not cubic
