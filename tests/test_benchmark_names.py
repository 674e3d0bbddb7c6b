"""The benchmark harness (perfbench/) reaches into the package by name and
clears its caches between passes; a deleted or renamed function, or a
module-level cache the harness cannot clear, fails here in a second instead
of in a benchmark run."""

import importlib.util
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import regmatch.cli  # the tracer walks every loaded layer module
from regmatch import matchpoly
from regmatch.series_bounds import negative_lambda_sandwich, verify_inequality


def test_every_traced_name_exists():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == []


def test_matchpoly_cache_hooks_exist():
    # the harness resets the cache between passes and reports len(_memo)
    assert isinstance(matchpoly._memo, dict)
    assert callable(matchpoly.clear_cache)


def _module_containers() -> dict:
    return {(name, attr): len(obj)
            for name, mod in sorted(sys.modules.items())
            if name == "regmatch" or name.startswith("regmatch.")
            for attr, obj in vars(mod).items()
            if not attr.startswith("__") and isinstance(obj, (dict, list, set))}


def test_no_module_level_container_grows(cubic_by_n):
    # the harness's cold start clears only matchpoly._memo and the lru_caches,
    # so a module-level cache of any other kind would make its traced passes
    # differ; none may grow across the calls the benchmark workloads make
    for info in pkgutil.iter_modules(regmatch.__path__):
        importlib.import_module(f"regmatch.{info.name}")
    before = _module_containers()
    for g in cubic_by_n[8]:
        for lam in (Fraction(1, 10), Fraction(1, 4)):
            verify_inequality(g, 3, lam)
        for lam in (Fraction(-1, 8), Fraction(-1, 20)):
            negative_lambda_sandwich(g, 3, lam)
    for argv in (["verify", "--d", "3", "--nmax", "6", "--format", "json"],
                 ["necklace", "--builtin", "k4"],
                 ["cd", "--dmax", "7"],
                 ["polytope", "--d", "4", "--nmax", "7"],
                 ["ladder"]):
        assert regmatch.cli.main(argv) == 0
    assert _module_containers() == before
