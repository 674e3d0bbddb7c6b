"""Import boundaries between the package's layers."""

import ast
from pathlib import Path

import pytest

import regmatch

# the layers that decide in exact arithmetic: floating point lives in
# certified, series_bounds, minimax and the reports of cli
_EXACT_LAYERS = ("graphs", "matchpoly", "polynomials", "walks", "necklace", "polytope")


def _imported_modules(path: Path) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


@pytest.mark.parametrize("layer", _EXACT_LAYERS)
def test_exact_layers_import_no_mpmath(layer):
    path = Path(regmatch.__file__).parent / f"{layer}.py"
    assert not {m for m in _imported_modules(path) if m.split(".")[0] == "mpmath"}


# mpmath's global context: the Remez layer reads its inputs only as text and
# every module passes libmp an explicit precision, which holds only while no
# module reads or moves that context
_CONTEXT_PRECISION = {"prec", "dps"}
_PRECISION_BLOCKS = {"workprec", "workdps", "extraprec", "extradps"}


def _global_precision_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = node.value
            on_context = (isinstance(base, ast.Name) and base.id == "mp"
                          or isinstance(base, ast.Attribute) and base.attr == "mp")
            if node.attr in _PRECISION_BLOCKS or on_context and node.attr in _CONTEXT_PRECISION:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name in _PRECISION_BLOCKS]
    return found


def test_the_global_precision_scan_finds_each_form():
    source = ("import mpmath\nfrom mpmath import mp, workdps\nmp.prec = 80\nx = mp.dps\n"
              "y = mpmath.mp.prec\nwith mpmath.workprec(60):\n    pass\nwith mp.extradps(5):\n"
              "    pass\nres.dps, args.prec\n")
    lines = {int(use.split(":")[0].split()[1]) for use in _global_precision_uses(source)}
    assert lines == {2, 3, 4, 5, 6, 8}


@pytest.mark.parametrize("module", sorted(p.stem for p in Path(regmatch.__file__).parent.glob("*.py")))
def test_no_module_reads_or_sets_the_global_precision(module):
    path = Path(regmatch.__file__).parent / f"{module}.py"
    assert _global_precision_uses(path.read_text(encoding="utf-8")) == []


# perfbench times each public function over its call, so no module defers its
# work to a generator that runs after the call has returned
def _deferred_work(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Yield, ast.YieldFrom))
                or isinstance(node, ast.Return) and isinstance(node.value, ast.GeneratorExp)):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_deferred_work_scan_finds_each_form():
    source = ("def a():\n    yield 1\ndef b(xs):\n    yield from xs\n"
              "def c(xs):\n    return (x for x in xs)\ndef d(xs):\n    return [x for x in xs]\n"
              "def e(xs):\n    return sum(x for x in xs)\n")
    lines = {int(use.split(":")[0].split()[1]) for use in _deferred_work(source)}
    assert lines == {2, 4, 6}


@pytest.mark.parametrize("module", sorted(p.stem for p in Path(regmatch.__file__).parent.glob("*.py")))
def test_no_module_returns_a_generator(module):
    path = Path(regmatch.__file__).parent / f"{module}.py"
    assert _deferred_work(path.read_text(encoding="utf-8")) == []
