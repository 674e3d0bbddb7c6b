"""The benchmark harness (perfbench/) reaches into the package by name; a
deleted or renamed function fails here in a second instead of in a
benchmark run."""

import importlib.util
from pathlib import Path

import regmatch.cli  # noqa: F401  (the tracer walks every loaded layer module)
from regmatch import matchpoly


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
