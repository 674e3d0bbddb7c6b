"""Acceptance suite: one test per headline claim, at the stated tolerance.

Reference tables quoted here are 10-digit published values; the suite
recomputes everything from scratch and compares.  Where a reference table
itself falls short of a stated tolerance (the minimax fits, whose printed
digits are not the converged optimum), the literal comparison is kept as an
expected failure and the attainable statement is asserted separately.
"""

import time
from fractions import Fraction

import mpmath
from mpmath import mp, mpf
import pytest

from oracles import all_graphs_upto, remez_error_at, remez_poly_at
from regmatch.certified import Verdict
from regmatch.cli import main
from regmatch.graphs import (
    canonical_key,
    complete,
    count_subgraphs,
    cycle,
    diamond,
    diamond_necklace,
    necklace_cover,
    petersen,
    prism,
)
from regmatch.matchpoly import (
    certify_root_bound,
    gen_poly_value,
    matching_gen_poly,
    matching_poly_mu,
)
from regmatch.minimax import BASE_CAP, DEFAULT_LADDER, ladder_verify
from regmatch.necklace import (
    critical_constant,
    necklace_partition_via_trace,
    pd_direct,
    qd_alternate,
    qd_direct,
    qd_recursive,
    transfer_matrix,
)
from regmatch.polynomials import Poly, count_real_roots_with_multiplicity
from regmatch.polytope import (
    edmonds_check,
    even_d_threshold,
    matching_lower_bound_check,
)
from regmatch.series_bounds import negative_lambda_sandwich, verify_inequality
from regmatch.walks import graph_power_sums, infinite_tree_power_sums, tree_like_walk_total

# ---------------------------------------------------------------------------
# Reference values

DOUBLED_POWER_SUMS = {
    "K4": [3, 15, 81, 441, 2403, 13095, 71361, 388881, 2119203, 11548575],
    "T3": [3, 15, 87, 543, 3543, 23823, 163719, 1143999, 8099511, 57959535],
    "DN3": [3, 15, 84, 493, 2973, 18261, 113676, 714849, 4530843, 28897155],
    "DN2": [3, 15, 84, 493, 2973, 18255, 113494, 711673, 4488663, 28422175],
}

# best degree-4 fits of log(1+x) on [0, A]: c_0..c_4 to 10 digits
FIT_COEFFICIENTS = {
    "0.2": ["0.7846422000e-7", "0.9999797421", "-0.4991602677",
            "0.3209653251", "-0.1724127778"],
    "0.5": ["0.000004233531000", "0.9995443916", "-0.4920792546",
            "0.2833215022", "-0.1073748605"],
    "0.9": ["0.00004150761800", "0.9974003648", "-0.4734793761",
            "0.2322928691", "-0.06357668676"],
    "1.4": ["0.0001918409080", "0.9918765007", "-0.4434449266",
            "0.1814493104", "-0.03703844684"],
    "1.8": ["0.0004241866100", "0.9855259927", "-0.4182177037",
            "0.1506903343", "-0.02562265780"],
    "2.3": ["0.00087040785", "0.9758164899", "-0.3877699674",
            "0.1214998746", "-0.01712337080"],
    "2.6": ["0.00122184600", "0.9693068092", "-0.3705662707",
            "0.1076897348", "-0.01377390366"],
    "2.8": ["0.001490122300", "0.9647567731", "-0.3596083119",
            "0.09969352541", "-0.01201389471"],
    "2.87": ["0.00159028909", "0.9631313107", "-0.3558721070",
             "0.09709474935", "-0.01146912787"],
}

INTERVAL_ENDPOINTS = {
    "0.2": ("0.005568811878", "0.1034074863"),
    "0.5": ("0.02277925697", "0.1461209526"),
    "0.9": ("0.05462386679", "0.1999613734"),
    "1.4": ("0.1046154581", "0.2614267492"),
    "1.8": ("0.1519465525", "0.3051509460"),
    "2.3": ("0.2219072063", "0.3504592779"),
    "2.6": ("0.2731604235", "0.3689208685"),
    "2.8": ("0.3175642389", "0.3711748270"),
    "2.87": ("0.3425328478", "0.3625667941"),
}

PD_TABLE = {
    3: Poly([0, 0, -2, 2]),
    4: Poly([0, 0, -3, 0, -9]),
    5: Poly([0, 0, -4, -12, -36, 36]),
    6: Poly([0, 0, -5, -40, -150, 0, -225]),
    7: Poly([0, 0, -6, -90, -540, -900, -1350, 1350]),
    8: Poly([0, 0, -7, -168, -1575, -5880, -11025, 0, -11025]),
    9: Poly([0, 0, -8, -280, -3864, -24360, -76440, -88200, -88200, 88200]),
}

CRITICAL_CONSTANTS = {5: "1.317124345", 7: "1.593204592", 9: "1.844705431"}


@pytest.fixture(scope="module")
def ladder():
    start = time.monotonic()
    report = ladder_verify()
    return report, time.monotonic() - start


# ---------------------------------------------------------------------------
# 1. doubled power-sum tables

def test_doubled_power_sum_tables(capsys):
    start = time.monotonic()
    assert main(["ak-table", "--d", "3", "--kmax", "10"]) == 0
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    rows = {line.split()[0]: [int(v) for v in line.split()[1:]]
            for line in out.splitlines()[1:]}
    assert rows == DOUBLED_POWER_SUMS
    assert sum(len(v) for v in rows.values()) == 40
    assert elapsed < 10


# ---------------------------------------------------------------------------
# 2. density identities

def _density_identities(g, d):
    sums = graph_power_sums(g, 5)
    tree = infinite_tree_power_sums(d, 5)
    c = count_subgraphs(g)
    assert sums.a(1) == tree.a(1)
    assert sums.a(2) == tree.a(2)
    assert sums.a(3) == tree.a(3) - 3 * c.rho3
    assert sums.a(4) == tree.a(4) - 24 * (d - 1) * c.rho3 - 4 * c.rho4
    assert sums.a(5) == (tree.a(5) - 135 * (d - 1) ** 2 * c.rho3
                         - 40 * (d - 1) * c.rho4 - 5 * c.rho5
                         + 20 * c.rho_diamond)


def test_density_identities_exact(cubic_by_n, quartic_by_n):
    for graphs in cubic_by_n.values():
        for g in graphs:
            _density_identities(g, 3)
    for graphs in quartic_by_n.values():
        for g in graphs:
            _density_identities(g, 4)


# ---------------------------------------------------------------------------
# 3. free-energy sweep over the cubic corpus

def test_free_energy_sweep_cubic_12(cubic12):
    start = time.monotonic()
    lams = [Fraction(j, 400) for j in range(1, 144)]
    assert lams[-1] == Fraction("0.3575")
    graphs = [g for graphs in cubic12.values() for g in graphs]
    assert len(graphs) == 112
    fails = inconclusive = 0
    for g in graphs:
        for lam in lams:
            rep = verify_inequality(g, 3, lam)
            if rep.verdict is Verdict.FAILS:
                fails += 1
            elif rep.verdict is not Verdict.HOLDS:
                inconclusive += 1
    assert fails == 0
    assert inconclusive == 0
    assert time.monotonic() - start < 3600


# ---------------------------------------------------------------------------
# 4. minimax ladder

def test_minimax_ladder_equioscillation_and_coverage(ladder):
    report, elapsed = ladder
    assert elapsed < 60
    assert report.covered
    assert report.base_cap == Fraction(1, 144)
    assert [mpmath.nstr(row.A, 4) for row in report.rows] == list(DEFAULT_LADDER)
    with mp.workdps(40):
        assert report.frontier > mpf("0.3575")
        for row in report.rows:
            res = row.result
            key = mpmath.nstr(row.A, 4)
            # converged equioscillation on [0, A]
            for x in res.refs:
                assert abs(abs(remez_error_at(res, x)) - res.epsilon) \
                    <= mpf(10) ** -25 * res.epsilon
            grid = [res.A * i / 200 for i in range(201)]
            assert max(abs(remez_error_at(res, x)) for x in grid) \
                <= res.epsilon * (1 + mpf(10) ** -15)
            # agreement with the 10-digit reference fit
            ref = [mpf(c) for c in FIT_COEFFICIENTS[key]]
            for mine, theirs in zip(res.coeffs, ref):
                assert abs(mine - theirs) <= mpf("1e-6")
            dist = max(abs(remez_poly_at(res, x)
                           - sum(c * x ** i for i, c in enumerate(ref)))
                       for x in grid)
            assert dist <= mpf("5e-8")
            lo, hi = (mpf(v) for v in INTERVAL_ENDPOINTS[key])
            assert abs(row.interval.lam_min - lo) <= mpf("2e-5")
            assert abs(row.interval.lam_max - hi) <= mpf("2e-5")


@pytest.mark.xfail(
    reason="the 10-digit reference tables are not the converged optimum: "
           "recomputed coefficients differ by up to 7.3e-7 and endpoints "
           "by up to 1.3e-5; the attainable agreement is asserted above",
    strict=True)
def test_minimax_reference_tables_at_stated_tolerances(ladder):
    report, _ = ladder
    with mp.workdps(40):
        for row in report.rows:
            key = mpmath.nstr(row.A, 4)
            for mine, theirs in zip(row.result.coeffs,
                                    FIT_COEFFICIENTS[key]):
                assert abs(mine - mpf(theirs)) <= mpf("1e-7")
            lo, hi = (mpf(v) for v in INTERVAL_ENDPOINTS[key])
            assert abs(row.interval.lam_min - lo) <= mpf("1e-6")
            assert abs(row.interval.lam_max - hi) <= mpf("1e-6")


# ---------------------------------------------------------------------------
# 5. P_d table and Q_d recursions

def test_pd_table_and_qd_recursions():
    for d, expected in PD_TABLE.items():
        assert pd_direct(d) == expected
    for d in range(5, 16):
        direct = qd_direct(d)
        assert qd_recursive(d) == direct
        assert qd_alternate(d) == direct


# ---------------------------------------------------------------------------
# 6. critical constants

def test_critical_constants():
    start = time.monotonic()
    brackets = {d: critical_constant(d) for d in range(3, 16, 2)}
    assert brackets[3].exact and brackets[3].lo == 1
    for d, ref in CRITICAL_CONSTANTS.items():
        assert abs(brackets[d].midpoint - Fraction(ref)) < Fraction(1, 10 ** 8)
    for d, cc in brackets.items():
        assert cc.lo ** 2 >= Fraction(d - 3, 6)
    for d in range(3, 14, 2):
        assert brackets[d].hi < brackets[d + 2].lo
    assert time.monotonic() - start < 60


# ---------------------------------------------------------------------------
# 7. transfer-matrix trace identity

def test_trace_identity_and_necklace_values():
    bases = [complete(2), cycle(3), complete(4), diamond(), prism(), petersen()]
    for g in bases:
        edge = g.edges[0]
        tm = transfer_matrix(g, *edge)
        for k in (2, 3, 4):
            direct = matching_gen_poly(necklace_cover(g, edge, k))
            assert necklace_partition_via_trace(tm, k) == direct
    for k in range(2, 6):
        assert gen_poly_value(diamond_necklace(k), 1) == 10 ** k


# ---------------------------------------------------------------------------
# 8. real-rootedness and root bound

def test_real_rooted_with_certified_root_bound(cubic_by_n, quartic10,
                                               fivereg_by_n):
    corpora = [(3, cubic_by_n), (4, quartic10), (5, fivereg_by_n)]
    for d, by_n in corpora:
        for graphs in by_n.values():
            for g in graphs:
                mu = matching_poly_mu(g)
                assert mu.degree == g.n
                assert count_real_roots_with_multiplicity(mu) == g.n
                assert certify_root_bound(g, d), (
                    f"roots of {canonical_key(g)} not certified "
                    f"inside (-2 sqrt({d - 1}), 2 sqrt({d - 1}))")


# ---------------------------------------------------------------------------
# 9. tree-like walks equal spectral power sums

def test_tree_like_walks_match_power_sums():
    for graphs in all_graphs_upto(7).values():
        for g in graphs:
            sums = graph_power_sums(g, 5)
            for k in (1, 2, 3, 4, 5):
                assert tree_like_walk_total(g, 2 * k) == g.n * sums.doubled(k)


# ---------------------------------------------------------------------------
# 10. even-degree matching bounds

def test_even_degree_matching_bounds(quartic10):
    k5_key = canonical_key(complete(5))
    for graphs in quartic10.values():
        for g in graphs:
            report = matching_lower_bound_check(g, 4)
            if canonical_key(g) == k5_key:
                assert not report.holds
                continue
            assert report.holds
            witness = edmonds_check(g, 4)
            assert witness.ok
            assert witness.mode == "exhaustive"
    threshold = even_d_threshold(4)
    assert threshold.units == 35
    assert threshold.margin_in_units(35) >= 0


# ---------------------------------------------------------------------------
# 11. negative-lambda sandwich

def test_negative_lambda_sandwich_certified(cubic_by_n):
    k4_key = canonical_key(complete(4))
    for graphs in cubic_by_n.values():
        for g in graphs:
            for lam in (Fraction(-1, 8), Fraction(-1, 16), Fraction(-1, 32)):
                rep = negative_lambda_sandwich(g, 3, lam)
                assert rep.verdict is Verdict.HOLDS
                assert rep.lower_margin.lo > 0
                if canonical_key(g) == k4_key:
                    assert rep.upper_equality
                else:
                    assert rep.upper_margin.lo > 0
