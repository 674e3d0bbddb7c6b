"""Fractional matching witness, matching-size bound, threshold report."""

from fractions import Fraction
from math import comb

import mpmath
import pytest

from regmatch.errors import DomainError
from regmatch.graphs import (
    canonical_key,
    circulant,
    complete,
    cycle,
    disjoint_union,
    generate_connected_regular,
    path_graph,
    petersen,
)
from regmatch.matchpoly import gen_poly_value
from regmatch.polytope import (
    OddSetViolation,
    _case_split_valid,
    _exhaustive_odd_sets,
    edmonds_check,
    even_d_threshold,
    matching_lower_bound_check,
)

from oracles import reference_exhaustive_odd_sets, threshold_margin_at_log


def test_edmonds_exhaustive_on_small_quartic(quartic_by_n):
    k5_key = canonical_key(complete(5))
    for n in (6, 7):
        for g in quartic_by_n[n]:
            if canonical_key(g) == k5_key:
                continue
            w = edmonds_check(g, 4)
            assert w.ok
            assert w.mode == "exhaustive"
            assert w.edge_value == Fraction(3, 14)
            assert w.nonneg_ok and w.vertex_ok and w.odd_set_ok
            assert w.case_split_ok
            assert w.violations == ()
            odd_subsets = sum(comb(n, s) for s in range(3, n + 1, 2))
            assert w.subsets_checked == odd_subsets


def test_edmonds_case_split_on_large_graph():
    g = circulant(18, (1, 2))
    w = edmonds_check(g, 4)
    assert w.ok
    assert w.mode == "case-split"
    assert w.subsets_checked == 0
    assert w.case_split_ok


def test_edmonds_complete_component_by_size():
    # in a 4-regular graph a component on 5 vertices is K_5
    with pytest.raises(DomainError, match="K_5"):
        edmonds_check(disjoint_union(complete(5), circulant(8, (1, 2))), 4)
    # components on 7 and 8 vertices are allowed; 15 vertices is exhaustive
    w = edmonds_check(disjoint_union(circulant(7, (1, 2)), circulant(8, (1, 2))), 4)
    assert w.ok
    assert w.mode == "exhaustive"


def test_exhaustive_odd_sets_match_the_fraction_reference(quartic10):
    k5_key = canonical_key(complete(5))
    cases = [(g, 4) for graphs in quartic10.values() for g in graphs
             if canonical_key(g) != k5_key]
    cases += [(g, 6) for n in (8, 9) for g in generate_connected_regular(n, 6)]
    cases += [(cycle(n), 2) for n in range(4, 17)]
    cases.append((disjoint_union(circulant(7, (1, 2)), circulant(8, (1, 2))), 4))
    for g, d in cases:
        x = Fraction(d + 2, d * (d + 3))
        assert _exhaustive_odd_sets(g, d) == reference_exhaustive_odd_sets(g, d, x)


def test_exhaustive_odd_sets_report_both_violations_on_k5():
    # edmonds_check refuses K_5, so only a direct call reaches the violation
    # path: on the full set x e(S) = 30/14 exceeds (5-1)/2 = 2, and
    # e(S) = 10 exceeds the cap C(5,2) - 1 = 9
    full = (0, 1, 2, 3, 4)
    expected = (False, False, 11, [OddSetViolation(full, 10, Fraction(2)),
                                   OddSetViolation(full, 10, Fraction(9))])
    assert _exhaustive_odd_sets(complete(5), 4) == expected
    assert reference_exhaustive_odd_sets(complete(5), 4, Fraction(3, 14)) == expected


def test_case_split_holds_for_every_even_degree():
    assert all(_case_split_valid(d) for d in range(2, 401, 2))


def test_edmonds_boundary_two_regular():
    # C_5 meets the odd-set constraint with equality on the full set
    w = edmonds_check(cycle(5), 2)
    assert w.ok
    assert w.edge_value == Fraction(2, 5)


def test_edmonds_domain():
    with pytest.raises(DomainError):
        edmonds_check(complete(5), 4)  # K_5 component excluded
    with pytest.raises(DomainError):
        edmonds_check(petersen(), 3)  # odd d
    with pytest.raises(DomainError):
        edmonds_check(path_graph(4), 2)  # not regular


def test_matching_bound_fails_only_for_k5(quartic_by_n):
    k5_key = canonical_key(complete(5))
    for n, graphs in quartic_by_n.items():
        for g in graphs:
            report = matching_lower_bound_check(g, 4)
            assert report.bound == Fraction(3 * n, 7)
            if canonical_key(g) == k5_key:
                assert not report.holds
                assert report.nu == 2
            else:
                assert report.holds
                assert report.nu >= report.bound


def test_matching_bound_two_regular_equality():
    report = matching_lower_bound_check(cycle(5), 2)
    assert report.holds and report.nu == 2 and report.bound == 2


def test_matching_bound_domain():
    with pytest.raises(DomainError):
        matching_lower_bound_check(petersen(), 3)
    with pytest.raises(DomainError):
        matching_lower_bound_check(path_graph(4), 2)


def test_threshold_report_d4():
    rep = even_d_threshold(4)
    assert rep.units == 35
    assert rep.gap == Fraction(1, 35)
    assert rep.partition_at_one == gen_poly_value(complete(5), 1) == 26
    assert rep.crude_bound == 5 ** 5
    assert rep.margin_in_units(35) == 0
    assert rep.margin_in_units(36) > 0
    assert rep.margin_in_units(34) < 0
    # margin_at_log vanishes exactly at the threshold log-activity
    at_threshold = threshold_margin_at_log(rep, 35 * mpmath.log(5))
    assert abs(at_threshold) < mpmath.mpf("1e-10")


def test_threshold_report_past_the_dp_width():
    # K_19 is wider than the matching DP accepts; the threshold reads the
    # closed form, M(K_19, 1) = 4809701440 (the 19th telephone number)
    rep = even_d_threshold(18)
    assert rep.units == 19 * 21
    assert rep.partition_at_one == 4809701440


def test_threshold_report_d2():
    rep = even_d_threshold(2)
    assert rep.units == 15
    assert rep.gap == Fraction(1, 15)
    assert rep.partition_at_one == 4
    assert rep.crude_bound == 27


def test_threshold_domain():
    with pytest.raises(DomainError):
        even_d_threshold(3)
    with pytest.raises(DomainError):
        even_d_threshold(0)
