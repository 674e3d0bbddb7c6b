"""Tests of the benchmark itself, on its small inputs (a few seconds each).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_end_to_end_metric_is_emitted_and_outputs_match(workload, seed):
    # the same committed expectations hold for both seeds: outputs are identical
    summary = run.run_workload(workload, seed, 0, trace=False, small=True)
    result = summary["result"]
    assert summary["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_accounts_for_the_items(workload):
    summary = run.run_workload(workload, 3, 0, trace=True, small=True)
    result = summary["result"]
    assert summary["problems"] == [] and result["correct"]
    assert summary["missing"] == []
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units("per_layer")
    assert metrics["trace.item_coverage"]["value"] >= tracing.COVERAGE_MIN
    assert metrics["trace.harness_s"]["value"] <= (
        tracing.HARNESS_MAX * metrics["trace.wall_s"]["value"])
    assert metrics["trace.spans"]["value"] > 0
    # the wrappers are gone once the run is over
    sb = sys.modules["regmatch.series_bounds"]
    assert sb.gen_poly_value is sys.modules["regmatch.matchpoly"].gen_poly_value
    assert not hasattr(sb.gen_poly_value, "__wrapped__")


def test_accounting_fails_when_a_wrapper_is_left_out(monkeypatch):
    # without its wrapper, verify_inequality's own time escapes every span
    class Partial(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self._patches = [p for p in self._patches
                             if p[2].__name__ != "verify_inequality"]

    monkeypatch.setattr(run, "Tracer", Partial)
    summary = run.run_workload("sweep", 3, 0, trace=True, small=True)
    assert not summary["result"]["correct"]
    assert any(p.startswith("trace accounting: spans cover") for p in summary["problems"])


def test_traced_sweep_counts_escalations_and_log_calls():
    metrics = run.run_workload("sweep", 4, 0, trace=True, small=True)["result"]["metrics"]
    small = EXPECTED["small"]["sweep"]
    assert metrics["series_bounds.verdicts"]["value"] == small["holds"]
    assert metrics["series_bounds.escalated"]["value"] == small["escalated"]
    assert metrics["certified.log_calls_per_verdict"]["value"] > 2  # escalation retries


def test_timer_scales_by_the_probes_around_an_interval_and_leaves_them_out():
    timer = workloads.Timer()
    probe = 2 * workloads.PROBE_REF  # the host runs at half the reference speed
    timer._starts = [0.0, 1.0, 3.0, 4.0]
    timer._ends = [s + probe for s in timer._starts]
    assert timer.scaled(1.0 + probe, 3.0) == pytest.approx((2.0 - probe) / 2)
    measured, reference = timer.span(probe, 4.0)
    assert measured == pytest.approx(4.0 - 3 * probe)
    assert reference == pytest.approx(measured / 2)


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep", lambda e: e.update(escalated=e["escalated"] + 1)),
    ("corpus", lambda e: e["checksums"].update({"4": "0" * 64})),
    ("tables", lambda e: e["cli"].update({"cd --dmax 7": "0" * 64})),
])
def test_wrong_expectation_shows_in_failed_frac(workload, corrupt):
    expected = copy.deepcopy(EXPECTED)
    corrupt(expected["small"][workload])
    summary = run.run_workload(workload, 1, 0, trace=False, small=True, expected=expected)
    result = summary["result"]
    assert not result["correct"]
    assert result["failed"] >= 1 and summary["failed_frac"] > 0
    assert len(summary["problems"]) == result["failed"]


def test_command_line_contract(tmp_path):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "corpus", "--seed", "5",
           "--seconds", "0", "--trace", "0", "--small"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True

    # one command runs every workload, each in its own process
    every = subprocess.run(cmd[:3] + ["all"] + cmd[4:], cwd=HERE.parent,
                           capture_output=True, text=True, timeout=300)
    assert every.returncode == 0, every.stderr
    combined = json.loads(every.stdout.strip().splitlines()[-1])
    assert set(combined["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in units("end_to_end")}
    assert every.stdout.count("failed_frac") == len(WORKLOADS)

    # a directory with only the benchmark's own files must fail without a result
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(cmd[:1] + [str(tmp_path / "perfbench" / "run.py")] + cmd[2:],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert bare.returncode != 0
    assert not bare.stdout.strip()
