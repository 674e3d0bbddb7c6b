"""End-to-end command-line behavior: outputs, exit codes, reports."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st
import mpmath
import pytest

from regmatch.cli import _RUNGS, _check_cd_work, _decimal, _real, build_parser, main
from regmatch.graphs import complete, encode_graph6, generate_connected_regular
from regmatch.matchpoly import _MAX_FRONTIER_WIDTH
from regmatch.minimax import DEFAULT_LADDER


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


def test_poly_refuses_a_canonical_search_past_the_node_cap(monkeypatch, capsys):
    # K_4's search takes 64 counted nodes, K_6's 1,956; nothing is printed
    monkeypatch.setattr("regmatch.graphs._CANON_NODE_CAP", 100)
    text = f"{encode_graph6(complete(4))}\n{encode_graph6(complete(6))}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "poly") == (2, "", "error: canonical search past 100 nodes\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text.split()[0]))
    assert run(capsys, "poly") == (0, "1 6 3\n", "")


def test_poly_malformed_names_line(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("C~\nC\n")
    code, out, err = run(capsys, "poly", str(path))
    assert code == 2
    assert "bad.g6" in err
    assert "line 2" in err
    # blank lines are skipped but still counted
    path.write_text("C~\n\nA_\nC\n")
    code, out, err = run(capsys, "poly", str(path))
    assert code == 2
    assert err == (f"error: {path}: truncated bit vector "
                   "(1 data bytes expected, 0 found) (line 4, byte 1)\n")


def test_poly_undecodable_file_names_line_and_byte(tmp_path, monkeypatch, capsys):
    # a non-ASCII byte once escaped as an internal error (exit 3) from a
    # file, while the same bytes on stdin gave a parse error
    path = tmp_path / "utf8.g6"
    path.write_bytes(b"C~\n\xc3\xa9\n")
    code, out, err = run(capsys, "poly", str(path))
    assert code == 2
    assert err == f"error: {path}: non-ASCII character (line 2, byte 0)\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(path.read_bytes()), encoding="utf-8", errors="surrogateescape"))
    code, out, err = run(capsys, "poly")
    assert code == 2
    assert err == "error: stdin: non-ASCII character (line 2, byte 0)\n"


def test_poly_stdin_bytes_ignore_the_locale_encoding():
    # stdin was once decoded by the locale; under a strict error handler a
    # non-UTF-8 byte escaped as an internal error (exit 3)
    src = str(Path(__import__("regmatch").__file__).parents[1])
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "regmatch.cli", "poly"],
                          input=b"C~\n\xff\n", capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: stdin: non-ASCII character (line 2, byte 0)\n"


def test_ladder_undecodable_config_names_file(tmp_path, capsys):
    path = tmp_path / "ladder.cfg"
    path.write_bytes(b"0.2\n\xff\n")
    code, out, err = run(capsys, "ladder", "--config", str(path))
    assert code == 2
    assert err == f"error: {path}: not UTF-8 text\n"


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


@pytest.mark.parametrize("d", [0, 1])
def test_small_degree_corpus_stops_at_the_complete_graph(monkeypatch, capsys, d):
    # K_{d+1} is the only connected d-regular graph for d < 2, so the work
    # must not grow with --nmax
    calls = []

    def counted(n, deg):
        calls.append(n)
        assert len(calls) <= d + 1, "generation past K_{d+1}"
        return generate_connected_regular(n, deg)

    monkeypatch.setattr("regmatch.cli.generate_connected_regular", counted)
    code, out, err = run(capsys, "verify", "--d", str(d), "--nmax", "1000000",
                         "--lambda", "1/4")
    assert code == 0
    assert "graphs=1 points=1 HOLDS=1" in out


def test_verify_refuses_a_nonpositive_partition_function(capsys):
    # the first failing cell's message, with exit 2 and nothing on stdout
    for fmt in ("table", "json"):
        assert run(capsys, "verify", "--d", "3", "--nmax", "6", "--lambda", "-1",
                   "--format", fmt) == (2, "", "error: M_G(-1) = -2 is not positive\n")


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


def _csv_cells(item: dict, prefix: str = "") -> dict:
    """A JSON report item as the CSV cells it should give: nested keys
    joined by dots, lists by spaces, null as an empty cell."""
    cells = {}
    for key, value in item.items():
        if isinstance(value, dict):
            cells.update(_csv_cells(value, f"{prefix}{key}."))
        elif isinstance(value, list):
            cells[prefix + key] = " ".join(str(v) for v in value)
        else:
            cells[prefix + key] = "" if value is None else str(value)
    return cells


@pytest.mark.parametrize("argv", [
    ["poly"],
    ["ladder", "--degree", "5"],
    ["verify", "--lambda", "1/4"],
    ["polytope", "--d", "4", "--nmax", "6", "--include-complete"],
], ids=" ".join)
def test_csv_rows_are_the_flattened_json_items(monkeypatch, capsys, argv):
    # the header was the first item's keys, so `polytope --include-complete`,
    # whose K_5 item has no odd_sets_checked, crashed with exit 3; it is now
    # the union of the items' keys in first-seen order
    def report(fmt):
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nE{Sw\n"))  # for `poly`
        return run(capsys, *argv, "--format", fmt)

    code, out, _ = report("json")
    items = [_csv_cells(item) for item in json.loads(out)["items"]]
    header = list(dict.fromkeys(key for item in items for key in item))
    csv_code, text, err = report("csv")
    assert (csv_code, err) == (code, "")
    rows = csv.DictReader(io.StringIO(text))
    assert rows.fieldnames == header
    assert list(rows) == [{key: item.get(key, "") for key in header} for item in items]


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


@pytest.mark.parametrize("value, message", [
    ("0", "must be in 1..1024: '0'"),
    ("abc", "invalid int value: 'abc'"),
])
def test_precision_bits_names_its_range(capsys, value, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--precision-bits", value])
    assert exc.value.code == 2
    assert f"error: argument --precision-bits: {message}\n" in capsys.readouterr().err


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
    ["verify", "--lambda", "1e-30000"],
    ["cd", "--width", "1e-30000"],
    ["ladder", "--base-cap", "1e-30000"],
    ["cd", "--width", "1e-3000"],
    ["verify", "--d", "3", "--nmax", "4", "--grid-step", "1/1000000", "--grid-max", "1"],
    ["verify", "--d", "3", "--nmax", "4", "--grid-step", "1/100", "--grid-max", "1000000"],
    ["verify", "--d", "3", "--nmax", "4", "--grid-step", "1e-30000"],
    ["verify", "--lambda", "1e-999999999"],
    ["cd", "--dmax", "15", "--width", "1e-1233"],
    ["cd", "--dmax", "61", "--width", "1e-300"],
    ["cd", "--dmax", "201", "--width", "1e-300"],
    ["cd", "--dmax", "201", "--width", "1e-100"],
    ["ladder", "--target", "-1"],
    ["ladder", "--target", "0"],
    ["ladder", "--base-cap", "-1"],
    ["verify", "--d", "9", "--nmax", "20"],
    ["necklace", "--graph6", ""],
    ["necklace", "--edge", "1"],
    ["necklace", "--edge", "a,b"],
    ["necklace", "--edge", "1,2,3"],
    ["verify", "--grid-max", "1/1000"],
    ["verify", "--d", "-2", "--nmax", "4"],
    ["polytope", "--d", "600", "--nmax", "10"],
])
def test_bad_input_exits_two_without_traceback(monkeypatch, capsys, argv):
    # these once raised IndexError, ValueError, FileNotFoundError or (for
    # --a 1e99999, --a 1e-30 and --degree 40) ZeroDivisionError, exiting 1
    # as if FAILS or 3 as a crash, or ran unbounded (a zero width, an integer
    # option with no upper limit, or --nmax past the generation cap, which
    # was refused only after generating every size below it); a rational of
    # 30000 digits crashed when the report turned it into a string, and a
    # 3000-digit width, a million grid points or a decimal exponent of nine
    # digits ran unbounded; `cd` with both --dmax and --width large ran for
    # minutes although each alone was bounded; `ladder` with a target <= 0
    # read COVERED, and with a negative base cap read as a FAILS verdict
    # `poly` reads K_{cap+2} from stdin, whose frontier width is past the
    # matching-polynomial DP's cap; --edge takes exactly two integers, and a
    # --grid-max below the step leaves no lambda; every even polytope --d
    # from 494 up crashed with RecursionError in T(d)
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


def _lambda_args(count: int) -> list[str]:
    return [arg for k in range(1, count + 1) for arg in ("--lambda", f"1/{k}")]


@pytest.mark.parametrize("argv, message", [
    (["polytope", "--d", "3", "--nmax", "14"], "even d >= 2 required"),
    (["verify", "--d", "4", "--nmax", "11", "--include-necklaces", "3"],
     "necklace rows require --d 3"),
    (["necklace", "--graph6", "I~~~~~~~w", "--edge", "0,0"], "(0,0) is not an edge"),
    (["verify", "--d", "3", "--nmax", "4", *_lambda_args(501)],
     "lambda list of 501 points, above 500"),
], ids=["polytope", "verify", "necklace", "lambda-list"])
def test_bad_input_is_refused_before_any_work(monkeypatch, capsys, argv, message):
    # these generated the corpus, or ran the canonical search on K_10, for
    # seconds before they were refused; 1,000 distinct --lambda values ran
    # for 14 s where the same points as a grid were refused
    def no_work(*args):
        raise AssertionError("work done before the input was checked")

    monkeypatch.setattr("regmatch.cli.generate_connected_regular", no_work)
    monkeypatch.setattr("regmatch.cli.canonical_key", no_work)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_lambda_list_of_500_distinct_values_is_accepted(capsys):
    # the cap counts distinct values: a repeated one is dropped first
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "4", *_lambda_args(500),
                         "--lambda", "1/500")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "graphs=1 points=500 HOLDS=500 FAILS=0 INCONCLUSIVE=0"


def test_negative_degree_names_its_domain(capsys):
    # once refused as "degree -2 above generation cap (d <= 7)"
    assert run(capsys, "verify", "--d", "-2", "--nmax", "4") == (2, "", "error: need d >= 0\n")


# integer options whose work is bounded some other way: the generation cap
# limits --nmax for d >= 2, d = 0 and 1 stop at K_{d+1} whatever --nmax is,
# and verify's --d beyond the caps generates nothing
_UNBOUNDED_INT_OK = {("verify", "--d"), ("verify", "--nmax"), ("polytope", "--nmax")}


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


def test_ladder_config_bad_value_names_file_and_line(tmp_path, capsys):
    config = tmp_path / "ladder.txt"
    config.write_text("0.2\n\n# comment\n1e5000\n")
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err == f"error: {config}: line 4: magnitude above 1000: '1e5000'\n"
    config.write_text("0.2\nabc  # not a decimal\n")
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 2
    assert err == f"error: {config}: line 2: not a finite decimal: 'abc'\n"


def test_ladder_config_refuses_more_rungs_than_the_cap_before_any_fit(tmp_path, monkeypatch,
                                                                     capsys):
    def no_fit(*args, **kwargs):
        raise AssertionError("a rung was fitted")

    monkeypatch.setattr("regmatch.minimax.remez_best_approx", no_fit)
    config = tmp_path / "ladder.txt"
    # refused on reading rung _RUNGS + 1, before the bad line after it
    config.write_text("# rungs\n" + "0.2\n" * (_RUNGS + 1) + "abc\n")
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err == f"error: {config}: more than {_RUNGS} rungs\n"


def test_ladder_config_at_the_rung_cap_runs(tmp_path, capsys):
    config = tmp_path / "ladder.txt"
    rungs = list(DEFAULT_LADDER) + ["2.87"] * (_RUNGS - len(DEFAULT_LADDER))
    config.write_text("\n".join(rungs) + "\n")
    assert len(rungs) == _RUNGS
    code, out, err = run(capsys, "ladder", "--config", str(config))
    assert code == 0
    assert "COVERED (0, 0.3575]" in out


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
    ("cd", "--dmax", "41"): "7f646107baf1949ceaa698a0f53c5ce5bd06981c27f040c34b9685885027c582",
    ("cd", "--dmax", "15", "--width", "1e-40"):
        "515b54c80e156d9c2b1e701a537e71ffbadc1f38a5ce4ebb890dbd7cb5827f89",
    ("cd", "--dmax", "201"): "945e1565f8cb8ccdd0d60de6b83cd48441219c5c1df9a61b6588af8c5bbdee1d",
    ("necklace", "--builtin", "k4", "--kmax", "12"):
        "719cec5e0958718e51ff3c10bf82ee5f636c04fec48550d78e9f0b847d0188ca",
    ("verify", "--d", "3", "--nmax", "12", "--lambda", "1/4"):
        "9ab6e42d262508719dde5ab3ac3a8210d15658dff6f82d236526e3e1f156bfa2",
    ("remez", "--a", "2.87", "--dps", "60"):
        "ad53982c82f4b1b7972feff9152676934d2e2d245b591ab593c2d4c38be1476b",
    ("ladder", "--degree", "10"):
        "dd22b5dc7f86a52392f9b9a6069afcf6532652c0a2b954354a6bcf5da038eff0",
    ("ladder", "--dps", "20"): "49ce13459d1fab4053b1c1a7461fc488dd3e5eca400aaf9fec0fec219b3d5df8",
    # every margin escalates from 1 bit, so the radius decimals are wide
    ("verify", "--d", "3", "--nmax", "10", "--precision-bits", "1", "--include-necklaces", "6"):
        "51909a2c3f8bc37a66007028e5d49bdd26622efef046b8b3097b796b05fc4dde",
}
# golden reports whose command exits 1: at degree 10 the rungs from A = 1.8
# up admit no lambda interval
_GOLDEN_EXIT_CODES = {("ladder", "--degree", "10"): 1}


@pytest.mark.parametrize("argv", sorted(_GOLDEN_REPORTS), ids=" ".join)
def test_report_matches_golden_digest(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == _GOLDEN_EXIT_CODES.get(argv, 0)
    report = json.loads(out)
    report.pop("wall_clock_seconds")
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _GOLDEN_REPORTS[argv]


def test_csv_report_matches_golden_digest(capsys):
    # the CSV flattens the same items as the JSON report, margins included
    code, out, err = run(capsys, "verify", "--d", "3", "--nmax", "6", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "62e72d4eefc2a0b7218035d9d48bba1c4e823664b323b55017853c479801cc32"


def test_remez_without_a_lambda_interval_fails(capsys):
    # the fit converges, but its error admits no lambda interval: reported
    # as a ladder reports such a rung, with null bounds, and exit 1
    code, out, err = run(capsys, "remez", "--a", "30", "--degree", "10")
    assert (code, err) == (1, "")
    assert "  epsilon = 0.005692138751\n  lam_min = -\n  lam_max = -\n" in out
    code, out, err = run(capsys, "remez", "--a", "30", "--degree", "10", "--format", "json")
    assert (code, err) == (1, "")
    item, = json.loads(out)["items"]
    assert item["lam_min"] is item["lam_max"] is None
    assert item["epsilon"] == "0.0056921387505732573"


_GLOBAL_PRECISION_ARGVS = (("cd", "--dmax", "15"), ("verify", "--d", "3", "--nmax", "6"),
                           ("ladder",), ("remez", "--a", "0.2"),
                           ("polytope", "--d", "4", "--nmax", "7"))


@pytest.mark.parametrize("setting", [("prec", 33), ("dps", 50)], ids=lambda s: f"{s[0]}={s[1]}")
def test_reports_ignore_mpmath_global_precision(capsys, setting):
    """A library caller's mpmath precision changes no printed digit, and
    every command leaves it as it found it."""
    mp = mpmath.mp

    def outputs():
        found = []
        for argv in _GLOBAL_PRECISION_ARGVS:
            found.append(run(capsys, *argv))
            code, out, err = run(capsys, *argv, "--format", "json")
            found.append((code, _scrub_wall_clock(out), err))
        return found

    default = outputs()
    name, value = setting
    saved = mp.prec
    try:
        setattr(mp, name, value)
        changed = mp.prec
        assert outputs() == default
        # 1000 + 1e-10 rounds to 1000 at 33 bits
        with pytest.raises(argparse.ArgumentTypeError, match="magnitude above 1000"):
            _real("1000.0000000001")
        assert mp.prec == changed
    finally:
        mp.prec = saved


# random bits below the top one: integers() keeps near its bounds, where the
# two roundings seldom differ
_WIDE = st.tuples(st.integers(60, 200), st.randoms(use_true_random=False)).map(
    lambda t: t[1].getrandbits(t[0]) | 1 << (t[0] - 1))


@settings(max_examples=200, deadline=None)
@given(_WIDE, _WIDE, st.sampled_from([1, -1]), st.sampled_from([3, 6, 10, 12, 17]))
def test_decimal_is_the_53_bit_mpf_decimal(p, q, sign, digits):
    """_decimal prints mpf(p) / q at 53 bits for q = p/q in lowest terms:
    the numerator rounds to 53 bits before the division, which rounds
    again.  Both terms past 53 bits, where that differs from one rounding
    in about a quarter of the cases."""
    q = Fraction(sign * p, q)
    with mpmath.workprec(53):
        expected = mpmath.nstr(mpmath.mpf(q.numerator) / q.denominator, digits)
    assert _decimal(q, digits) == expected


def test_cd_work_bound_keeps_each_option_alone():
    for dmax, width in ((201, "1e-10"), (201, "1e-30"), (9, "1e-1233"), (13, "1e-1233")):
        _check_cd_work(dmax, Fraction(width))
    for dmax, width in ((15, "1e-1233"), (201, "1e-100")):
        with pytest.raises(argparse.ArgumentTypeError):
            _check_cd_work(dmax, Fraction(width))


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
    # T(4) at the reports' 53 bits
    assert out.splitlines()[0] == "T(4) = 35 ln(5) = 56.330327, coefficient gap 1/35"
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
