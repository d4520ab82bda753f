"""The package's module layering, read from the source with ``ast``.

The laminar family sits under everything built on it: the profiles and
the piecewise kernel need only the error classes, the laminar module
(which owns the one lambda-root search) needs nothing above them, and
the height solver needs nothing of the spectral layer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratiwave"

ALLOWED = {
    "piecewise": {"errors"},
    "profiles": {"errors"},
    "laminar": {"errors", "piecewise", "profiles"},
    "heightsolver": {"errors", "laminar", "profiles"},
}


def package_imports(module: str) -> set:
    """The package modules that ``module`` imports, at any depth of its
    body: ``from .x import ...``, ``from . import x``, ``from
    stratiwave.x import ...`` and ``import stratiwave.x``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "stratiwave":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "stratiwave" and len(parts) > 1:
                    names.add(parts[1])
    return names


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_layered_module_imports(module):
    assert package_imports(module) <= ALLOWED[module]


def test_heightsolver_imports_each_allowed_module():
    # the scanner sees the relative imports it must judge
    assert package_imports("heightsolver") == ALLOWED["heightsolver"]
