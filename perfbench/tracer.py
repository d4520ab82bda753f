"""Per-layer tracing by wrapping module-level functions of ``stratiwave``.

A hook names a function by the module that defines it (or, for a scipy
routine, the module that imports it) and the metric it feeds.  Installing
a hook replaces that object under every name that binds it in any
``stratiwave`` module, so calls that go through an imported alias (for
example ``spectral.solve_laminar``) are caught as well.  A hook whose name
no longer exists is skipped and reported, never an error.

Spans are kept in memory; ``summary`` aggregates them when the run ends.
Times of a metric are inclusive and counted at its outermost call only,
so recursion or one hook calling another of the same metric is not
counted twice.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("profiles", "laminar", "spectral", "bifurc", "heightsolver",
          "eulerian", "cli")

# (metric, module, name).  Several names may feed one metric: the
# continuation corrector is a bordered Newton loop too, and the linear
# solve is whichever scipy factor-and-solve routine heightsolver imports.
HOOKS = (
    ("laminar.solve_laminar", "laminar", "solve_laminar"),
    ("spectral.shoot_mode", "spectral", "shoot_mode"),
    ("spectral.find_lambda_star", "spectral", "find_lambda_star"),
    ("spectral.classify", "spectral", "classify"),
    ("spectral.find_double_sigma", "spectral", "find_double_sigma"),
    ("bifurc.coefficient_set", "bifurc", "coefficient_set"),
    ("bifurc.compute_Psi", "bifurc", "compute_Psi"),
    ("bifurc.compute_Phi", "bifurc", "compute_Phi"),
    ("bifurc.compute_Theta", "bifurc", "compute_Theta"),
    ("bifurc.predict_branches", "bifurc", "predict_branches"),
    ("bifurc.oracle_roots", "bifurc", "oracle_roots"),
    ("heightsolver.jacobian", "heightsolver", "jacobian"),
    ("heightsolver.residual", "heightsolver", "residual"),
    ("heightsolver.linear_solve", "heightsolver", "solve_banded"),
    ("heightsolver.newton", "heightsolver", "newton"),
    ("heightsolver.newton", "heightsolver", "_corrector"),
    ("heightsolver.continue_branch", "heightsolver", "continue_branch"),
    ("heightsolver.germ_field", "heightsolver", "germ_field"),
    ("heightsolver.dump_field", "heightsolver", "dump_field"),
    ("heightsolver.load_field", "heightsolver", "load_field"),
    ("eulerian.reconstruct", "eulerian", "reconstruct"),
    ("eulerian.flux_all_columns", "eulerian", "flux_all_columns"),
    ("eulerian.surface_bernoulli_residual", "eulerian",
     "surface_bernoulli_residual"),
    ("eulerian.yih_residual", "eulerian", "yih_residual"),
)


BRANCH = "heightsolver.continue_branch"


def _branch_totals(branch):
    """(accepted points, arclength covered) of a returned Branch."""
    points = branch.points
    return len(points), float(points[-1].s) if points else 0.0


class Tracer:
    """Collects spans while installed; install with ``active()``."""

    def __init__(self):
        self.modules = {name: sys.modules[f"stratiwave.{name}"]
                        for name in LAYERS}
        self.spans = []          # (metric, start, end, nested_same)
        self.branches = []       # _branch_totals of each continued branch
        self.observer_errors = []
        self.depth = 0
        self.covered = 0.0       # time inside outermost wrapped calls
        self._open = {}          # metric -> open call count
        self.skipped = []
        self._plan = self._resolve()

    def _resolve(self):
        plan = []
        for metric, module, name in HOOKS:
            original = getattr(self.modules[module], name, None)
            if not callable(original):
                self.skipped.append(f"{module}.{name}")
                continue
            bindings = [(mod, attr) for mod in self.modules.values()
                        for attr, val in vars(mod).items() if val is original]
            plan.append((metric, original, bindings))
        return plan

    def _wrap(self, metric, fn):
        def wrapper(*args, **kwargs):
            nested_same = self._open.get(metric, 0) > 0
            depth = self.depth
            self._open[metric] = self._open.get(metric, 0) + 1
            self.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.depth -= 1
                self._open[metric] -= 1
                self.spans.append((metric, start, end, nested_same))
                if depth == 0:
                    self.covered += end - start
            if metric == BRANCH:
                try:
                    self.branches.append(_branch_totals(result))
                except (AttributeError, IndexError, TypeError) as exc:
                    self.observer_errors.append(f"{metric}: {exc!r}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def active(self):
        installed = []
        try:
            for metric, original, bindings in self._plan:
                wrapper = self._wrap(metric, original)
                for mod, attr in bindings:
                    setattr(mod, attr, wrapper)
                    installed.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in installed:
                setattr(mod, attr, original)

    def summary(self):
        """Per-metric call counts and inclusive seconds over all spans."""
        calls, seconds = {}, {}
        for metric, _, _ in HOOKS:
            calls[metric] = 0
            seconds[metric] = 0.0
        for metric, start, end, nested_same in self.spans:
            calls[metric] += 1
            if not nested_same:
                seconds[metric] += end - start
        return calls, seconds
