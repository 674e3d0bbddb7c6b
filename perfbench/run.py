"""regmatch benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a regmatch checkout; the package is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run alternates untraced and traced passes
and the metrics are the per-layer ones.  The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Timer, cold_start

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
              "peak_rss_mb": "MiB"}
RATIOS = ("series_bounds.first_try_frac", "certified.log_calls_per_verdict",
          "trace.item_coverage")
# counts read from the program's state or outputs rather than from spans
STATE_COUNTS = ("matchpoly.memo_entries", "cli.report_items")


def import_regmatch():
    """Import regmatch (and mpmath, which it imports) afresh, as a new
    process would, and return its layer modules by name."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name.split(".")[0] in ("regmatch", "mpmath"):
            del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("regmatch")
    return argparse.Namespace(**{layer: importlib.import_module(f"regmatch.{layer}")
                                 for layer in LAYERS})


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def _drifted(counts: list[dict]) -> list[str]:
    return sorted(k for k in set().union(*counts) if len({c.get(k) for c in counts}) > 1)


class Pass:
    __slots__ = ("elapsed", "scale", "wall", "latencies", "bad", "checks", "counts", "layer",
                 "trace_errors")


def run_pass(wl, rm, inputs, expected, tracer=None) -> Pass:
    """One cold pass.  Its times are in reference seconds (see workloads.Timer);
    `elapsed` is the time it took on the clock, probes included."""
    cold_start(rm)
    gc.collect()
    timer = Timer()
    timer.probe()
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        outputs = wl.run_pass(rm, inputs, timer)
    finally:
        t1 = perf_counter()
        if tracer is not None:
            tracer.uninstall()
    timer.probe()
    wall, p = timer.span(t0, t1), Pass()
    p.elapsed = perf_counter() - t0
    p.scale = wall[1] / wall[0]
    p.wall = wall[1]
    p.latencies = [timer.scaled(start, end) for start, end in timer.windows]
    p.bad, p.checks, p.counts = wl.check(rm, inputs, outputs, expected)
    p.counts["matchpoly.memo_entries"] = len(rm.matchpoly._memo)
    p.layer, p.trace_errors = None, []
    if tracer is not None:
        layer, p.trace_errors = tracer.summarize(wall[0], timer.windows)
        p.layer = {k: v * p.scale if layer_unit(k) == "s" else v for k, v in layer.items()}
    return p


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False,
                 expected: dict | None = None) -> dict:
    """Set up, measure for `seconds`, check, and return the result object."""
    wl = WORKLOADS[name]
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    expected = expected["small" if small else "full"][name]

    # each set-up is a fresh import of regmatch plus input preparation
    timer, marks = Timer(), []
    for _ in range(SETUP_REPEATS):
        timer.probe()
        t0 = perf_counter()
        rm = import_regmatch()
        inputs = wl.prepare(rm, seed, small)
        marks.append((t0, perf_counter()))
    timer.probe()
    setups = [timer.scaled(t0, t1) for t0, t1 in marks]

    tracer = Tracer() if trace else None
    # a traced run alternates untraced and traced passes, at least two of each
    min_passes = 4 if trace else (1 if small else wl.min_passes)
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, rm, inputs, expected, tracer if traced else None))
        if len(passes) >= min_passes and perf_counter() - start + passes[-1].elapsed > seconds:
            break

    problems = [f"check {c.name}: observed {c.observed!r}, expected {c.expected!r}"
                for p in passes for c in p.checks if not c.ok]
    problems += [f"item {b}" for p in passes for b in p.bad]
    problems += [f"trace accounting: {e}" for p in passes for e in p.trace_errors]
    # every pass does identical work, so every count must repeat exactly
    traced_passes = [p for p in passes if p.layer is not None]
    drift = _drifted([p.counts for p in passes]) + _drifted(
        [{k: v for k, v in p.layer.items() if layer_unit(k) == "count"} for p in traced_passes])
    problems += [f"count {k} drifted between passes" for k in drift]
    attempted = sum(len(p.latencies) + len(p.checks) for p in passes)
    failed = (sum(len(p.bad) + sum(not c.ok for c in p.checks) + len(p.trace_errors)
                  for p in passes) + len(drift))

    latencies = sorted(x for p in passes for x in p.latencies)
    walls = [p.wall for p in passes]
    summary = {
        "workload": name, "seed": seed, "trace": trace, "passes": len(passes),
        "scale": statistics.median(p.scale for p in passes),
        "failed_frac": failed / attempted, "problems": problems,
        "samples": {"wall_s": f"median of {len(walls)} passes",
                    "setup_s": f"median of {len(setups)} set-ups",
                    "item_p50_ms": f"median of {len(latencies)} items",
                    "item_tail_ms": f"p{wl.tail_percentile} of {len(latencies)} items",
                    "peak_rss_mb": "process high-water mark"},
    }
    if not trace:
        tail = statistics.quantiles(latencies, n=100, method="inclusive")[wl.tail_percentile - 1]
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "item_p50_ms": statistics.median(latencies) * 1e3,
                  "item_tail_ms": tail * 1e3,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    else:
        plain = [p.wall for p in passes if p.layer is None]
        # times and ratios are medians over the traced passes; counts are equal
        # in every pass
        layer = {k: v if layer_unit(k) == "count" else
                 statistics.median(p.layer[k] for p in traced_passes)
                 for k, v in traced_passes[0].layer.items()}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(plain)
        for k in STATE_COUNTS:
            layer[k] = traced_passes[0].counts.get(k, 0)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        summary["traced_passes"] = len(traced_passes)
        summary["missing"] = tracer.missing
    summary["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": metrics}
    return summary


def print_report(s: dict) -> None:
    mode = f"trace on, {s['traced_passes']} traced passes" if s["trace"] else "trace off"
    res = s["result"]
    print(f"regmatch benchmark: workload {s['workload']}, seed {s['seed']}, {mode}, "
          f"{s['passes']} passes; times in reference seconds, "
          f"median scale {s['scale']:.4f} (reference seconds per measured second)")
    for name, m in res["metrics"].items():
        samples = s["samples"].get(name) or (
            f"median of {s['traced_passes']} traced passes" if m["unit"] == "s" else "")
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']:<6} {samples}")
    print(f"  {'failed_frac':<32} {s['failed_frac']:>14.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} items and checks")
    if s["trace"]:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"  accounting: spans cover {m['trace.item_coverage']:.4f} of the item time;"
              f" {m['trace.harness_s'] / m['trace.wall_s']:.4f} of the traced pass is outside"
              f" every span")
        for name in s["missing"]:
            print(f"warning: {name} is referenced by a metric but not defined", file=sys.stderr)
    repeats = Counter(s["problems"])
    for line, times in list(repeats.items())[:50]:
        print(f"FAILED {line}" + (f" ({times} passes)" if times > 1 else ""), file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own process, as the per-workload command runs it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode not in (0, 1) or result is None:
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "corpus", "tables", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes until the next would end after this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs with their own expected outputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "regmatch" / "__init__.py").is_file():
        print(f"error: regmatch sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.small)
    print_report(summary)
    print(json.dumps(summary["result"]))
    return 0 if summary["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
