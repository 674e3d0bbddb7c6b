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
