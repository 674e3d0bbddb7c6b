"""End-to-end command-line behavior: outputs, exit codes, reports."""

import argparse
import hashlib
import io
import json
import re

import pytest

from regmatch.cli import build_parser, main
from regmatch.graphs import complete, encode_graph6
from regmatch.matchpoly import _MAX_FRONTIER_WIDTH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _scrub_wall_clock(text: str) -> str:
    return re.sub(r'"wall_clock_seconds": [0-9.]+', '"wall_clock_seconds": X',
                  text)


# ---------------------------------------------------------------------------
# poly

def test_poly_file(tmp_path, capsys):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\n?\n")
    code, out, err = run(capsys, "poly", str(path))
    assert code == 0
    assert out.splitlines() == ["1 6 3", "1"]


def test_poly_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    code, out, err = run(capsys, "poly")
    assert code == 0
    assert out.strip() == "1 6 3"


def test_poly_malformed_names_line(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~\nC\n")
    code, out, err = run(capsys, "poly", str(path))
    assert code == 2
    assert "bad.g6" in err
    assert "line 2" in err


# ---------------------------------------------------------------------------
# ak-table

def test_ak_table_default_rows(capsys):
    code, out, err = run(capsys, "ak-table", "--d", "3", "--kmax", "10")
    assert code == 0
    lines = out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert rows["K4"] == ("3 15 81 441 2403 13095 71361 388881 2119203 "
                          "11548575").split()
    assert rows["T3"] == ("3 15 87 543 3543 23823 163719 1143999 8099511 "
                          "57959535").split()
    assert rows["DN3"][:4] == ["3", "15", "84", "493"]
    assert rows["DN2"][:4] == ["3", "15", "84", "493"]
    assert rows["DN3"][5] == "18261" and rows["DN2"][5] == "18255"


def test_ak_table_first_column_is_degree(capsys):
    code, out, err = run(capsys, "ak-table", "--d", "3", "--kmax", "1")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split()[1:] == ["3"]


def test_ak_table_degree_four_rows_agree_to_k2(capsys):
    # a_1 and a_2 are degree-determined, so K_5 matches the tree
    code, out, err = run(capsys, "ak-table", "--d", "4", "--kmax", "2")
    assert code == 0
    rows = [line.split()[1:] for line in out.splitlines()[1:]]
    assert len(rows) == 2
    assert rows[0] == rows[1] == ["4", "28"]


def test_ak_table_top_degree(capsys):
    # K_25 is past the matching DP's width cap; the row uses the closed form
    code, out, err = run(capsys, "ak-table", "--d", "24", "--kmax", "2")
    assert code == 0
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}
    assert rows["K25"] == rows["T24"] == ["24", str(24 * 47)]


# ---------------------------------------------------------------------------
# verify

def test_verify_complete_graph_equality(capsys):
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "4",
                         "--lambda", "1")
    assert code == 0
    assert "(equality)" in out
    assert "graphs=1 points=1 HOLDS=1 FAILS=0 INCONCLUSIVE=0" in out


def test_verify_necklace_rows_are_equalities(capsys):
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "4",
                         "--lambda", "1", "--include-necklaces", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if "min margin" in line]
    assert len(lines) == 3
    assert all("(equality)" in line for line in lines)


def test_verify_necklaces_need_cubic(capsys):
    code, out, err = run(capsys, "verify", "--d", "4", "--nmax", "5",
                         "--lambda", "1", "--include-necklaces", "2")
    assert code == 2
    assert "necklace rows require --d 3" in err


def test_verify_json_report(capsys):
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "6",
                         "--lambda", "1/4", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "verify"
    assert rep["parameters"]["lambdas"] == ["1/4"]
    assert rep["toolkit_version"] == "0.1.0"
    keys = [item["canonical_key"] for item in rep["items"]]
    assert keys == sorted(keys)
    assert rep["item_count"] == len(keys) == 3
    expected = hashlib.sha256("\n".join(sorted(set(keys))).encode()).hexdigest()
    assert rep["corpus_checksums"]["corpus"] == expected
    margin = rep["items"][0]["margin"]
    assert set(margin) == {"lo", "hi", "decimal", "radius"}


def test_verify_reports_are_deterministic(capsys):
    argv = ("verify", "--d", "3", "--nmax", "6", "--lambda", "1/4",
            "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert _scrub_wall_clock(first) == _scrub_wall_clock(second)


def test_out_file_keeps_table_on_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "4",
                         "--lambda", "1", "--out", str(out_path))
    assert code == 0
    assert "min margin" in out
    rep = json.loads(out_path.read_text())
    assert rep["command"] == "verify"


def test_csv_format(capsys):
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "6",
                         "--lambda", "1/4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("canonical_key,")
    assert "margin.lo" in lines[0]
    assert len(lines) == 4


def test_bad_rational_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lambda", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--grid-step", "0"],
    ["--grid-step=-1/400"],
    ["--precision-bits", "0"],
    ["--precision-bits", "-5"],
    ["--precision-bits", "abc"],
    ["--precision-bits", "4000000"],
])
def test_verify_rejects_nonpositive_step_and_precision(capsys, argv):
    # these once divided by zero, never finished escalating, overflowed, or
    # (above MAX_BITS) started at an unbounded precision
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "3", "--nmax", "6", "--lambda", "1/100", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: argument --" in err


@pytest.mark.parametrize("argv", [
    ["necklace", "--edge", "5,0"],
    ["necklace", "--edge=-1,0"],
    ["remez", "--a", "abc"],
    ["remez", "--a", "1/0"],
    ["ladder", "--target", "abc"],
    ["cd", "--width", "0"],
    ["poly", "/nonexistent/graphs.g6"],
    ["ladder", "--config", "/nonexistent/ladder.txt"],
    ["remez", "--a", "1e99999"],
    ["remez", "--a", "0.2", "--dps", "20000"],
    ["ladder", "--dps", "14"],
    ["ak-table", "--kmax", "100000"],
    ["cd", "--dmax", "100001"],
    ["necklace", "--kmax", "100000"],
    ["verify", "--include-necklaces", "100"],
    ["remez", "--a", "1e-30"],
    ["remez", "--a", "0.2", "--degree", "40"],
    ["remez", "--a", "0.2", "--degree", "-3"],
    ["ak-table", "--d", "500"],
    ["verify", "--d", "3", "--nmax", "100000"],
    ["polytope", "--d", "4", "--nmax", "12"],
    ["poly"],
])
def test_bad_input_exits_two_without_traceback(monkeypatch, capsys, argv):
    # these once raised IndexError, ValueError, FileNotFoundError or (for
    # --a 1e99999, --a 1e-30 and --degree 40) ZeroDivisionError, exiting 1
    # as if FAILS or 3 as a crash, or ran unbounded (a zero width, an integer
    # option with no upper limit, or --nmax past the generation cap, which
    # was refused only after generating every size below it)
    # `poly` reads K_{cap+2} from stdin, whose frontier width is past the
    # matching-polynomial DP's cap
    monkeypatch.setattr("sys.stdin", io.StringIO(
        encode_graph6(complete(_MAX_FRONTIER_WIDTH + 2)) + "\n"))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err


# integer options whose work is bounded some other way: the generation cap
# limits --nmax, and --d beyond the caps generates nothing
_UNBOUNDED_INT_OK = {("verify", "--d"), ("verify", "--nmax"),
                     ("polytope", "--d"), ("polytope", "--nmax")}


def test_no_unbounded_integer_option():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    plain = {(name, opt)
             for name, sub in subparsers.choices.items()
             for action in sub._actions if action.type is int
             for opt in action.option_strings if opt.startswith("--")}
    assert plain <= _UNBOUNDED_INT_OK, sorted(plain - _UNBOUNDED_INT_OK)


def test_crash_exits_three_with_one_line(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise ZeroDivisionError("matrix is numerically singular\n  at row 3")

    monkeypatch.setattr("regmatch.cli.remez_best_approx", singular)
    code, out, err = run(capsys, "remez", "--a", "0.2")
    assert code == 3
    assert err == "error: internal: ZeroDivisionError: matrix is numerically singular at row 3\n"


# ---------------------------------------------------------------------------
# ladder / remez / cd

def test_ladder_covers(capsys):
    code, out, err = run(capsys, "ladder")
    assert code == 0
    assert "COVERED (0, 0.3575]" in out


def test_ladder_gap_from_config(tmp_path, capsys):
    config = tmp_path / "ladder.txt"
    config.write_text("0.2  # first rung\n0.9\n1.4\n")
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 1
    assert "GAP" in out
    assert "NOT COVERED" in out


def test_ladder_rung_without_interval_fails(tmp_path, capsys):
    # at degree 5 the fits from A = 2.6 up have no lambda interval; those
    # rungs report FAILS with null bounds instead of aborting the ladder
    path = tmp_path / "ladder.json"
    code, out, err = run(capsys, "ladder", "--degree", "5", "--out", str(path))
    assert code == 1
    assert "NOT COVERED" in out
    items = json.loads(path.read_text())["items"]
    failed = [it["A"] for it in items if it["verdict"] == "FAILS"]
    assert failed == ["2.6", "2.8", "2.87"]
    for it in items:
        assert (it["lam_min"] is None) == (it["lam_max"] is None) == (it["A"] in failed)


def test_ladder_config_rejects_non_decimal(tmp_path, capsys):
    config = tmp_path / "ladder.txt"
    config.write_text("0.2\nabc  # not a decimal\n")
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 2
    assert "not a finite decimal: 'abc'" in err


def test_remez_output(capsys):
    code, out, err = run(capsys, "remez", "--a", "0.2")
    assert code == 0
    assert "c_4" in out
    assert "epsilon = 7.853682022e-8" in out
    assert "lam_min" in out and "lam_max" in out


# sha256 of the sorted-key JSON report without wall_clock_seconds, as
# perfbench digests it; any change to a printed digit or an iteration
# count shows here
_GOLDEN_REPORTS = {
    ("ladder",): "9a89c10fe40fcb5dfc4d586e9b32d78797dfee1993440d20995a992e237ce32e",
    ("remez", "--a", "0.2"): "09ada950851bd4620bbee253fed5356777da1dbae2e23a6e82ab42270bf4a201",
    ("remez", "--a", "0.9"): "d03cff47ea859416ebd1842076ec84dad438ed6b18ce1c1da155b3f4aeee1724",
    ("remez", "--a", "0.2", "--degree", "5"):
        "38822af91424f019a0248d3df6f2eb326f7f7aa7b820f3750b7f15e17304fce0",
    ("necklace", "--builtin", "petersen", "--kmax", "12"):
        "9a8c4b95467fe1a3305568944ad9a21b59b070f1647ff71ab2ba7aec6dd44d1f",
    ("necklace", "--builtin", "prism"):
        "134a8a66e3e2abee079ae7f1ffa9913667d7b4326ec6f6c75df8bf69a8eb32cf",
    ("necklace", "--builtin", "diamond", "--edge", "0,2"):
        "a7c1f3b60e16f25f593ec1251e65441ece828af73a7ba510b06852e25be84982",
    ("ak-table", "--d", "3", "--kmax", "10"):
        "a5f8d978b3aee1ac07eb227752d35459c76f936613809916a3e705f38619d695",
    ("verify", "--d", "3", "--nmax", "8"):
        "20c226feddcdaaf9569121cf6089a89941c3dcbf5fe43cca880e2a66c311bbfb",
    ("polytope", "--d", "4", "--nmax", "8"):
        "4ed4ba17e824657aad32609cfeaf287208fdac86de3ce7ee97730ba105d1bc29",
}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_REPORTS), ids=" ".join)
def test_report_matches_golden_digest(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0
    report = json.loads(out)
    report.pop("wall_clock_seconds")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_REPORTS[argv]


def test_cd_table(capsys):
    code, out, err = run(capsys, "cd", "--dmax", "9")
    assert code == 0
    assert "1 (exact)" in out
    for value in ("1.317124345", "1.593204592", "1.844705431"):
        assert value in out


# ---------------------------------------------------------------------------
# necklace / polytope

def test_necklace_default_base(capsys):
    code, out, err = run(capsys, "necklace")
    assert code == 0
    assert "trace(B) coefficients: 1 6 3" in out
    assert "det(B) coefficients:   0 0 0 -2 2" in out
    assert out.count("==") == 3  # k = 2, 3, 4


def test_necklace_triangle_discriminant(capsys):
    code, out, err = run(capsys, "necklace", "--builtin", "c3")
    assert code == 0
    assert "det(B) coefficients:   0 0 0 -1" in out


def test_necklace_graph6_base(capsys):
    code, out, err = run(capsys, "necklace", "--graph6", "C~", "--kmax", "2")
    assert code == 0
    assert "trace(B) coefficients: 1 6 3" in out


def test_necklace_rejects_non_edge(capsys):
    code, out, err = run(capsys, "necklace", "--builtin", "petersen",
                         "--edge", "0,2")
    assert code == 2
    assert "not an edge" in err


def test_polytope_all_hold(capsys):
    code, out, err = run(capsys, "polytope", "--d", "4", "--nmax", "7")
    assert code == 0
    assert "T(4) = 35 ln(5)" in out
    assert "FAILS" not in out


def test_polytope_complete_graph_fails(capsys):
    code, out, err = run(capsys, "polytope", "--d", "4", "--nmax", "5",
                         "--include-complete")
    assert code == 1
    assert "FAILS" in out


def test_polytope_threshold_past_the_dp_width(capsys):
    code, out, err = run(capsys, "polytope", "--d", "18", "--nmax", "10")
    assert code == 0
    assert "T(18) = 399 ln(19)" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "regmatch 0.1.0" in capsys.readouterr().out
