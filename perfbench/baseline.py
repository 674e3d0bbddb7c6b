"""Record a baseline: two independent sets of interleaved benchmark runs.

    python3 perfbench/baseline.py --out perfbench/baseline_seed.json

Each set makes RUNS untraced runs of every workload, run_seconds long as
BENCHMARK.json sets it, one seed per run (set 1 uses seeds 1..RUNS, set 2 the
next RUNS seeds), with the workload order rotated from run to run so that
slow phases of a shared host fall on every workload alike.  For each set and end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, and compares the second set's median with the first's
against the bounds in BENCHMARK.json.  It then makes one traced run per
workload and set with seed 1, and reports whether the per-layer counts repeat
exactly.  Exit code 0 means every run was correct, every spread is within its
bound, no median got worse by more than its bound, and no count drifted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "corpus", "tables")
SETS = 2
RUNS = 10
FIRST_SEED = 1


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit_code"] = proc.returncode
    result["run_s"] = perf_counter() - t0
    print(f"  {workload:<7} seed {seed:<4} trace {trace} exit {proc.returncode} "
          f"run {result['run_s']:.1f} s "
          + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = list(WORKLOADS)

    ok = True
    sets = []
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        runs = {w: [] for w in workloads}
        for r in range(RUNS):
            seed = FIRST_SEED + s * RUNS + r
            shift = r % len(workloads)
            for w in workloads[shift:] + workloads[:shift]:
                runs[w].append(bench(w, seed, seconds, 0))
        summary = {}
        for w, results in runs.items():
            ok &= all(res["correct"] and res["exit_code"] == 0 for res in results)
            summary[w] = {k: quartiles([res["metrics"][k]["value"] for res in results])
                          for k in bounds}
            summary[w]["seeds"] = [FIRST_SEED + s * RUNS + r for r in range(RUNS)]
            summary[w]["run_s"] = [res["run_s"] for res in results]
        sets.append(summary)

    report = {"machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform(terse=True)},
              "seconds": seconds, "runs_per_set": RUNS, "sets": sets, "verdicts": {}}
    print(f"\n{'workload':<8} {'metric':<14} {'bound':>6} " + " ".join(
        f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}" for i in range(len(sets)))
        + f" {'change':>8}")
    for w in workloads:
        for k, bound in bounds.items():
            stats = [st[w][k] for st in sets]
            change = stats[-1]["median"] / stats[0]["median"] - 1
            spread_ok = all(st["spread"] <= bound for st in stats)
            steady = all(st["spread"] < bound / 3 for st in stats)
            drift_ok = change <= bound
            ok &= spread_ok and drift_ok
            report["verdicts"][f"{w}.{k}"] = {"spread_ok": spread_ok, "steady": steady,
                                             "median_change": change, "change_ok": drift_ok}
            print(f"{w:<8} {k:<14} {bound:>6.2f} " + " ".join(
                f"{st['median']:>10.4g} {st['spread']:>8.3f}" for st in stats)
                + f" {change:>+8.3f}" + ("" if steady else "  not below bound/3")
                + ("" if spread_ok and drift_ok else "  OUT OF BOUND"))

    print(f"\ntraced runs (seed {FIRST_SEED})", flush=True)
    report["traced"] = {}
    for w in workloads:
        results = [bench(w, FIRST_SEED, seconds, 1) for _ in range(SETS)]
        ok &= all(res["correct"] for res in results)
        counts = [{k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"}
                  for res in results]
        drift = sorted(k for k in counts[0] if len({c[k] for c in counts}) > 1)
        ok &= not drift
        report["traced"][w] = {"metrics": [res["metrics"] for res in results],
                               "count_drift": drift}
        print(f"{w:<8} counts " + ("repeat exactly" if not drift else f"DRIFT in {drift}"))

    report["ok"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print("baseline", "ok" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
