"""Truncated log series, density deficits, and certified verdicts."""

import hashlib
import json
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import ComplexResult
from oracles import cubic_whole_interval_verdict, path_graph, reference_tree_closed_form

from regmatch.certified import DEFAULT_BITS, MAX_BITS, Enclosure, Verdict, log_enclosure
from regmatch.cli import main
from regmatch import series_bounds
from regmatch.errors import DomainError, PrecisionError, RegmatchError
from regmatch.graphs import (
    canonical_key,
    complete,
    complete_bipartite,
    count_subgraphs,
    diamond_necklace,
    generate_connected_regular,
    parse_graph6,
    petersen,
    prism,
)
from regmatch.matchpoly import gen_poly_value, matching_gen_poly, q_complete
from regmatch.series_bounds import (
    SandwichReport,
    certificate_chain,
    compare_log_per_vertex,
    complete_graph_densities,
    deficits,
    main_certificate,
    negative_lambda_sandwich,
    tail_bound,
    tree_closed_form,
    truncated_log_series,
    verify_grid,
    verify_inequality,
)
from regmatch.walks import graph_power_sums, infinite_tree_power_sums


def _mp_ref(expr, dps=80):
    with mpmath.workdps(dps):
        return expr()


def _contains(enc, value_fn) -> bool:
    """Does the rational enclosure contain the mpmath reference value?"""
    with mpmath.workdps(80):
        lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
        ref = value_fn()
        return lo <= ref <= hi


# ---------------------------------------------------------------------------
# Truncated series plus tail bound

def test_tail_bracket_contains_graph_log():
    lam = Fraction(1, 20)
    for g in (complete(4), petersen(), prism(), complete_bipartite(3, 3)):
        sums = graph_power_sums(g, 8)
        value = gen_poly_value(g, lam)
        truth = log_enclosure(value, 192) / g.n
        for terms in (7, 8):  # exercise both parities of the first omitted term
            partial = truncated_log_series(sums, lam, terms)
            bracket = tail_bound(3, lam, terms + 1).bracket(partial)
            assert bracket.lo <= truth.lo and truth.hi <= bracket.hi


def test_tree_series_matches_closed_form():
    # the closed form and the walk recurrence are independent routes
    for d, lam in [(2, Fraction(1, 10)), (3, Fraction(1, 50)),
                   (4, Fraction(1, 50)), (5, Fraction(1, 100))]:
        sums = infinite_tree_power_sums(d, 12)
        partial = truncated_log_series(sums, lam, 12)
        bracket = tail_bound(d, lam, 13).bracket(partial)
        closed = tree_closed_form(d, lam)
        assert bracket.lo <= closed.lo and closed.hi <= bracket.hi


def test_truncated_series_needs_enough_terms():
    sums = infinite_tree_power_sums(3, 4)
    with pytest.raises(DomainError):
        truncated_log_series(sums, Fraction(1, 10), 5)


def test_tail_bound_domain():
    with pytest.raises(DomainError):
        tail_bound(3, Fraction(1, 8), 3)  # 4(d-1)lam = 1
    with pytest.raises(DomainError):
        tail_bound(3, Fraction(-1, 100), 3)
    with pytest.raises(DomainError):
        tail_bound(1, Fraction(1, 100), 3)
    with pytest.raises(DomainError):
        tail_bound(3, Fraction(1, 100), 0)


# ---------------------------------------------------------------------------
# Density deficits

def test_complete_graph_densities_match_counts():
    for d in (3, 4, 5):
        rho3, rho4 = complete_graph_densities(d)
        counts = count_subgraphs(complete(d + 1))
        assert rho3 == counts.rho3
        assert rho4 == counts.rho4
    assert complete_graph_densities(3) == (Fraction(1), Fraction(3, 4))


def test_deficits_known_graphs():
    dk4 = deficits(complete(4), 3)
    assert (dk4.delta3, dk4.delta4, dk4.t_sum) == (0, 0, 0)
    assert not dk4.satisfies_lower

    dpet = deficits(petersen(), 3)
    assert dpet.delta3 == 1 and dpet.delta4 == Fraction(3, 4)
    assert dpet.t_sum == 30

    # prism: one neighborhood edge per vertex, three 4-cycles
    dpr = deficits(prism(), 3)
    assert dpr.delta3 == Fraction(2, 3) and dpr.delta4 == Fraction(1, 4)
    assert dpr.t_sum == 12


def test_deficits_require_regularity():
    with pytest.raises(DomainError):
        deficits(path_graph(4), 3)
    with pytest.raises(DomainError):
        deficits(petersen(), 4)


def test_deficit_lemmas_on_corpus(cubic_by_n, quartic_by_n):
    k4_key = canonical_key(complete(4))
    k5_key = canonical_key(complete(5))
    for n, graphs in cubic_by_n.items():
        for g in graphs:
            if canonical_key(g) == k4_key:
                continue
            dp = deficits(g, 3)
            assert dp.satisfies_lower and dp.satisfies_ratio
    for n, graphs in quartic_by_n.items():
        for g in graphs:
            if canonical_key(g) == k5_key:
                continue
            dp = deficits(g, 4)
            assert dp.satisfies_lower and dp.satisfies_ratio


# ---------------------------------------------------------------------------
# Certificate chain

def test_main_certificate_sign():
    for d in (3, 4, 9):
        assert main_certificate(d, Fraction(1, 16 * d * d + 1)) > 0
        assert main_certificate(d, Fraction(1, 32 * d * d)) > 0
    assert main_certificate(3, Fraction(1, 10)) < 0
    with pytest.raises(DomainError):
        main_certificate(3, 0)


def test_certificate_chain_ordered_and_below_margin(cubic_by_n):
    k4_key = canonical_key(complete(4))
    samples = [petersen(), prism(), complete_bipartite(3, 3)]
    samples += [g for n in (6, 8) for g in cubic_by_n[n]]
    for lam in (Fraction(1, 200), Fraction(1, 400)):
        for g in samples:
            if canonical_key(g) == k4_key:
                continue
            chain = certificate_chain(g, 3, lam)
            assert chain.ordered
            assert chain.simplified == main_certificate(3, lam)
            assert chain.simplified > 0
            report = verify_inequality(g, 3, lam)
            assert report.verdict is Verdict.HOLDS
            assert chain.deficit_form <= report.margin.lo


def test_certificate_chain_breaks_for_complete():
    # the delta3 >= 1/3 step assumes no complete component
    chain = certificate_chain(complete(4), 3, Fraction(1, 200))
    assert not chain.ordered
    assert chain.deficit_form < 0


# ---------------------------------------------------------------------------
# Certified log comparisons

def test_compare_exact_equality():
    report = compare_log_per_vertex(Fraction(8), 3, Fraction(2), 1)
    assert report.verdict is Verdict.HOLDS
    assert report.equality
    assert report.margin.lo == report.margin.hi == 0


def test_compare_strict_cases():
    holds = compare_log_per_vertex(Fraction(9), 2, Fraction(2), 1)
    assert holds.verdict is Verdict.HOLDS and not holds.equality
    assert holds.margin.lo > 0
    assert _contains(holds.margin, lambda: mpmath.log(3) - mpmath.log(2))

    fails = compare_log_per_vertex(Fraction(2), 1, Fraction(3), 1)
    assert fails.verdict is Verdict.FAILS
    assert fails.margin.hi < 0


def test_compare_rejects_nonpositive():
    with pytest.raises(DomainError):
        compare_log_per_vertex(Fraction(0), 1, Fraction(2), 1)
    with pytest.raises(DomainError):
        compare_log_per_vertex(Fraction(2), 1, Fraction(-1), 1)


def test_verify_inequality_complete_graph_is_equality():
    for lam in (Fraction(1), Fraction(1, 4), Fraction(0)):
        report = verify_inequality(complete(4), 3, lam)
        assert report.verdict is Verdict.HOLDS
        assert report.equality
        assert report.margin.lo == report.margin.hi == 0


def test_verify_inequality_strict_on_noncomplete():
    report = verify_inequality(petersen(), 3, Fraction(1, 4))
    assert report.verdict is Verdict.HOLDS and not report.equality
    assert report.margin.lo > 0
    assert report.lhs_value == gen_poly_value(petersen(), Fraction(1, 4))


def test_verify_inequality_domain():
    with pytest.raises(DomainError):
        verify_inequality(petersen(), 4, Fraction(1, 4))
    with pytest.raises(DomainError):
        verify_inequality(complete(4), 3, -1)  # M_G(-1) = -2


def test_precision_below_one_bit_rejected():
    # bits = 0 would never escalate, negative bits overflow in mpmath, and a
    # start above MAX_BITS would be used as given, without a bound
    for bits in (0, -5, MAX_BITS + 1):
        with pytest.raises(DomainError):
            compare_log_per_vertex(Fraction(9), 2, Fraction(2), 1, bits=bits)
        with pytest.raises(DomainError):
            verify_inequality(petersen(), 3, Fraction(1, 100), bits=bits)
        with pytest.raises(DomainError):
            negative_lambda_sandwich(petersen(), 3, Fraction(-1, 8), bits=bits)
        with pytest.raises(DomainError):  # on the call, before any row is asked for
            verify_grid([petersen()], 3, [Fraction(1, 100)], bits=bits)


def test_verify_inequality_same_as_generic_comparison():
    # verify_inequality's report must equal a comparison of the same two values
    k4 = matching_gen_poly(complete(4))
    for g in (petersen(), prism(), complete_bipartite(3, 3)):
        for lam in (Fraction(1, 400), Fraction(1, 4), Fraction(1)):
            for bits in (16, 128):
                rep = verify_inequality(g, 3, lam, bits=bits)
                assert rep == compare_log_per_vertex(
                    gen_poly_value(g, lam), g.n, k4(lam), 4, bits=bits)


_GRID = [Fraction(j, 400) for j in range(1, 144)]  # verify's default grid


def _cell_by_cell(graphs, d, lams, bits=DEFAULT_BITS):
    return [tuple(verify_inequality(g, d, lam, bits) for lam in lams) for g in graphs]


@pytest.mark.parametrize("bits", [DEFAULT_BITS, 8, 1])
def test_verify_grid_equals_verify_inequality_on_the_cubic_corpus(cubic_by_n, bits):
    # from 8 and 1 bits the margins escalate, graph by graph, and the K_4
    # side's logs are shared at every precision some graph reaches
    graphs = [g for n in sorted(cubic_by_n) for g in cubic_by_n[n]]
    assert list(verify_grid(graphs, 3, _GRID, bits)) == _cell_by_cell(graphs, 3, _GRID, bits)


def test_verify_grid_equals_verify_inequality_where_the_margins_escalate():
    # M(DN_k, 1) = 10^k = M(K_4, 1)^k: near lambda = 1 the margins vanish
    necklaces = [diamond_necklace(k) for k in range(2, 6)]
    lams = [1 - Fraction(1, 10 ** e) for e in range(10, 330, 40)]
    rows = list(verify_grid(necklaces, 3, lams))
    assert rows == _cell_by_cell(necklaces, 3, lams)
    assert max(rep.bits for row in rows for rep in row) == MAX_BITS


def test_verify_grid_equals_verify_inequality_for_degrees_four_and_five():
    for d in (4, 5):
        graphs = [g for n in range(d + 1, 9) if n * d % 2 == 0
                  for g in generate_connected_regular(n, d)]
        assert list(verify_grid(graphs, d, _GRID)) == _cell_by_cell(graphs, d, _GRID)


def _outcome(run):
    try:
        return run()
    except RegmatchError as exc:
        return type(exc), str(exc)


def test_verify_grid_raises_what_the_cell_by_cell_loop_raises():
    # graph-major order; in each cell the regular degree, then M_G > 0, then
    # M_K > 0 (M(K_4, -1) = -2 and M(K_4, -1/4) = -5/16, while M_G(-1/4) =
    # 5/256 for G}GOW[ and -9/256 for GsXPGs); no activity, no check
    positive, negative = parse_graph6("G}GOW["), parse_graph6("GsXPGs")
    cases = [([path_graph(4), complete(4)], [Fraction(1, 4)]),
             ([complete(4), path_graph(4)], [Fraction(-1)]),
             ([prism(), complete(4)], [Fraction(1, 4), Fraction(-1)]),
             ([prism(), path_graph(4)], [Fraction(-1)]),
             ([petersen(), positive, negative], [Fraction(1, 4), Fraction(-1, 4)]),
             ([negative, positive], [Fraction(-1, 4)])]
    messages = set()
    for graphs, lams in cases:
        raised = _outcome(lambda: _cell_by_cell(graphs, 3, lams))
        assert _outcome(lambda: list(verify_grid(graphs, 3, lams))) == raised
        messages.add(raised[1].split("(")[0])
    assert messages == {"graph is not d-regular", "M_G", "M_K_4"}
    assert list(verify_grid([path_graph(4)], 3, [])) == _cell_by_cell([path_graph(4)], 3, [])


def test_log_enclosure_calls_per_verdict(monkeypatch, cubic_by_n):
    calls = []

    def counted(q, bits=DEFAULT_BITS):
        calls.append(bits)
        return log_enclosure(q, bits)

    monkeypatch.setattr(series_bounds, "log_enclosure", counted)
    # G non-complete graphs at L activities: one log per cell and one per
    # activity for the K_4 side (2GL with a K_4 log per cell); K_4 itself
    # is an equality and takes none
    noncomplete = [g for n in (6, 8) for g in cubic_by_n[n]]
    lams = _GRID[::13]
    rows = verify_grid(cubic_by_n[4] + noncomplete, 3, lams)
    # the grid does its work on the call: every log is taken before a row is read
    assert isinstance(rows, list)
    assert len(calls) == len(noncomplete) * len(lams) + len(lams)
    assert all(rep.bits == DEFAULT_BITS for row in rows for rep in row)
    calls.clear()
    assert not verify_inequality(petersen(), 3, Fraction(1, 4)).equality
    assert len(calls) == 2
    # the sandwich's two sides share the log of M_G (3 calls before)
    calls.clear()
    assert negative_lambda_sandwich(petersen(), 3, Fraction(-1, 8)).bits == DEFAULT_BITS
    assert len(calls) == 2
    # the lower side takes the tree enclosure first, so no log at a precision
    # where that is unusable: at lam = -10^-80, 128 bits (K_4's upper side is
    # an equality and takes no log)
    calls.clear()
    rep = negative_lambda_sandwich(complete(4), 3, Fraction(-1, 10 ** 80))
    assert rep.upper_equality and rep.bits == MAX_BITS
    assert calls == [256, 512, 1024]


def test_verify_grid_agrees_with_the_whole_interval_oracle(cubic_by_n, capsys):
    # the oracle decides (0, 0.3575] at once, the grid at its 143 points
    oracle = {canonical_key(g): cubic_whole_interval_verdict(g)
              for graphs in cubic_by_n.values() for g in graphs}
    assert sorted(cubic_by_n) == [4, 6, 8, 10]  # every cubic n <= 10
    assert oracle.pop(canonical_key(complete(4))) == "equality"
    assert set(oracle.values()) == {"holds"}
    assert main(["verify", "--d", "3", "--nmax", "10", "--format", "json"]) == 0
    items = json.loads(capsys.readouterr().out)["items"]
    assert len(items) == 143 * (len(oracle) + 1)
    for item in items:
        assert item["verdict"] == "HOLDS"
        assert item["equality"] == (item["canonical_key"] not in oracle)


# ---------------------------------------------------------------------------
# Tree closed form and the negative-lambda sandwich

def test_tree_closed_form_reference_points():
    # d=3, lam=-1/8: eta = 2, S = 1/2
    enc = tree_closed_form(3, Fraction(-1, 8))
    assert _contains(enc, lambda: mpmath.log(mpmath.mpf(1) / 2) / 2)
    # d=2, lam=3/4: eta = 2/3, S = 9/4
    enc2 = tree_closed_form(2, Fraction(3, 4))
    assert _contains(enc2, lambda: mpmath.log(mpmath.mpf(3) / 2))
    assert tree_closed_form(3, 0).lo == tree_closed_form(3, 0).hi == 0
    assert enc.hi - enc.lo < Fraction(1, 2 ** 100)


def test_tree_closed_form_domain():
    with pytest.raises(DomainError):
        tree_closed_form(3, Fraction(-1, 7))
    with pytest.raises(DomainError):
        tree_closed_form(1, Fraction(1, 4))
    # libmp never returns at a precision <= 0; the lam = 0 shortcut checks too
    for bits in (0, -20, MAX_BITS + 1):
        for lam in (Fraction(-1, 16), Fraction(0)):
            with pytest.raises(DomainError):
                tree_closed_form(3, lam, bits)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 8), st.fractions(0, 1, max_denominator=10 ** 30),
       st.sampled_from((1, 8, 64, 128, 256, 1024)))
def test_tree_closed_form_matches_the_iv_context_bit_for_bit(d, t, bits):
    # lam anywhere in [-1/(4(d-1)), 0.36]
    low = -Fraction(1, 4 * (d - 1))
    lam = low + (Fraction(36, 100) - low) * t
    try:
        expected = reference_tree_closed_form(d, lam, bits)
    except ComplexResult:
        # the rounded 1 + 4(d-1)lam reaches below 0; the library clips it
        tree_closed_form(d, lam, bits)
        return
    assert tree_closed_form(d, lam, bits) == expected


def test_tree_closed_form_at_the_end_of_its_domain():
    # at lam = -1/(4(d-1)): eta = 2, S_d = (1/4)((d-1)/(d-2))^(d-2), 1/4 at d = 2;
    # lam is not dyadic, so the rounded discriminant straddles 0 for some d
    for d in range(2, 8):
        lam = -Fraction(1, 4 * (d - 1))
        s_d = Fraction(1, 4) * (Fraction(d - 1, d - 2) ** (d - 2) if d > 2 else 1)
        for bits in (1, DEFAULT_BITS, MAX_BITS):
            enc, truth = tree_closed_form(d, lam, bits), log_enclosure(s_d, bits) / 2
            assert enc.lo <= truth.hi and truth.lo <= enc.hi
        rep = negative_lambda_sandwich(complete_bipartite(d, d), d, lam)
        assert rep.verdict is Verdict.HOLDS
    # just above the end, at 1 bit, the discriminant's enclosure straddles 0 too
    lam = Fraction(-1, 12) + Fraction(1, 10 ** 6)
    coarse, fine = tree_closed_form(4, lam, 1), tree_closed_form(4, lam, MAX_BITS)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_sandwich_holds_on_small_cubic(cubic_by_n):
    k4_key = canonical_key(complete(4))
    lams = [Fraction(-1, 8), Fraction(-1, 16), Fraction(-1, 32)]
    for n in (4, 6, 8):
        for g in cubic_by_n[n]:
            for lam in lams:
                rep = negative_lambda_sandwich(g, 3, lam)
                assert rep.verdict is Verdict.HOLDS
                assert rep.lower_margin.lo > 0
                if canonical_key(g) == k4_key:
                    assert rep.upper_equality
                    assert rep.upper_margin.lo == rep.upper_margin.hi == 0
                else:
                    assert not rep.upper_equality
                    assert rep.upper_margin.lo > 0


def test_sandwich_zero_lambda_and_domain(cubic_by_n):
    # at lam = 0 every value is 1: both margins are exactly 0, with no
    # escalation at any starting precision
    zero = Enclosure.exact(0)
    for g in [petersen()] + [g for n in sorted(cubic_by_n) for g in cubic_by_n[n]]:
        for bits in (1, DEFAULT_BITS, MAX_BITS):
            assert negative_lambda_sandwich(g, 3, 0, bits) == SandwichReport(
                Fraction(0), Verdict.HOLDS, Verdict.HOLDS, zero, zero, True, bits)
    with pytest.raises(DomainError):
        negative_lambda_sandwich(petersen(), 3, Fraction(-1, 7))
    with pytest.raises(DomainError):
        negative_lambda_sandwich(petersen(), 3, Fraction(1, 8))
    # the domain [-1/(4(d-1)), 0] is empty for d = 0 and undefined for d = 1
    for d in (0, 1):
        with pytest.raises(DomainError, match="need d >= 2"):
            negative_lambda_sandwich(complete(d + 1), d, Fraction(-1, 10))


# sha256 of the lower side (verdict, margin, final bits) of the Petersen
# graph's sandwich at lam = -10^-60, -10^-80 and -10^-150, started at the
# first precision whose tree enclosure is usable (256, 256 and 512 bits)
_TINY_LAMBDA_LOWER_DIGEST = "7ccb37e2d112efae8d93cb7c3b0a927e468eab9e12010c45ec210d6efca8103e"


def test_sandwich_escalates_past_an_unusable_tree_enclosure():
    # at tiny |lam| the subtraction in eta cancels every bit of a low
    # precision; the sandwich escalates past it instead of crashing
    g, digest = petersen(), hashlib.sha256()
    for e, first in ((60, 256), (80, 256), (150, 512)):
        lam = Fraction(-1, 10 ** e)
        with pytest.raises(PrecisionError):
            tree_closed_form(3, lam, first // 2)
        tree_closed_form(3, lam, first)
        rep = negative_lambda_sandwich(g, 3, lam)
        assert rep.lower_verdict is Verdict.INCONCLUSIVE and rep.bits == MAX_BITS
        digest.update(f"{e} {rep.lower_verdict} {rep.lower_margin.lo}"
                      f" {rep.lower_margin.hi} {rep.bits}\n".encode())
        upper = compare_log_per_vertex(q_complete(4)(lam), 4, gen_poly_value(g, lam), 10,
                                       DEFAULT_BITS)
        assert (rep.upper_verdict, rep.upper_margin, rep.upper_equality) == (
            upper.verdict, upper.margin, upper.equality)
    assert digest.hexdigest() == _TINY_LAMBDA_LOWER_DIGEST
    with pytest.raises(PrecisionError, match=f"up to the {MAX_BITS}-bit cap"):
        negative_lambda_sandwich(g, 3, Fraction(-1, 10 ** 400))


# sha256 of every SandwichReport field over the connected quartic and
# 5-regular graphs with n <= 8, sorted by canonical key, at the domain's
# lower end and at two points inside it, from 1, 8 and 128 starting bits; a
# change to any verdict, margin bound or final precision shows here
_SANDWICH_DIGEST = "33118b3648b1a731d9bcf349e2d96623b57a013ca2873e9607114304a2932b16"


def test_sandwich_reports_for_degrees_four_and_five():
    digest = hashlib.sha256()
    count = 0
    for d in (4, 5):
        graphs = sorted((g for n in range(d + 1, 9) if n * d % 2 == 0
                         for g in generate_connected_regular(n, d)), key=canonical_key)
        for g in graphs:
            for lam in (-Fraction(1, 4 * (d - 1)), -Fraction(1, 8 * (d - 1)),
                        Fraction(-1, 100)):
                for bits in (1, 8, 128):
                    rep = negative_lambda_sandwich(g, d, lam, bits)
                    line = repr(tuple((f.name, getattr(rep, f.name)) for f in fields(rep)))
                    digest.update(f"{canonical_key(g)} {line}\n".encode())
                    count += 1
    assert count == 14 * 3 * 3
    assert digest.hexdigest() == _SANDWICH_DIGEST


def test_matching_poly_value_consistency():
    # gen_poly_value against a direct Horner evaluation of the coefficients
    g = prism()
    poly = matching_gen_poly(g)
    lam = Fraction(-1, 16)
    direct = sum(c * lam ** k for k, c in enumerate(poly.coeffs))
    assert gen_poly_value(g, lam) == direct
