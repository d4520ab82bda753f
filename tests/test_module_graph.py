"""The package's module layering, read from the source with ``ast``.

The laminar family sits under everything built on it: the piecewise
kernel needs only the error classes and the profiles only it and them,
the laminar module (which owns the one lambda-root search) needs nothing
above them, and the height solver needs nothing of the spectral layer.
No module takes anything from ``scipy.interpolate``: ``piecewise`` is
the one interpolation kernel.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stratiwave"

ALLOWED = {
    "piecewise": {"errors"},
    "profiles": {"errors", "piecewise"},
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


def external_imports(module: str) -> set:
    """The absolute module names that ``module`` imports from, at any
    depth of its body."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module",
                         sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy_interpolate(module):
    assert not [name for name in external_imports(module)
                if name == "scipy.interpolate"
                or name.startswith("scipy.interpolate.")]


def test_cli_import_loads_no_scipy_interpolate():
    code = ("import sys, stratiwave.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.interpolate')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ,
                              "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out.strip() == "[]"
