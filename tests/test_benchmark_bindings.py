"""The benchmark under ``perfbench/`` reaches the program through names
and call signatures; these tests fail when a change in ``src/`` breaks
one of them, before a benchmark run would.  ``perfbench/`` is only read.
"""

import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from stratiwave import bifurc as bf
from stratiwave import cli  # noqa: F401  (the tracer needs every layer loaded)
from stratiwave import eulerian as eu
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp

from test_bifurc import toy_coeffs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_resolves_every_hook():
    assert _load_tracer().Tracer().skipped == []


def test_linear_solve_hook_counts_each_factorization(t0):
    # a hooked name that still resolves but that the solve no longer calls
    # would count nothing
    flow = lm.solve_laminar(t0, 2.0, pr.PGrid(-1.0, 8))
    fld = hs.laminar_field(flow, 8)
    jac = hs.jacobian(t0, fld)
    tracer = _load_tracer().Tracer()
    with tracer.active():
        jac.solve(np.ones(fld.h.size), None, 0.0)
    calls, _ = tracer.summary()
    assert calls["heightsolver.linear_solve"] == 1


def test_linear_solve_hook_counts_one_factorization_per_record(t0):
    # a second solve on a record runs on its stored factor
    flow = lm.solve_laminar(t0, 2.0, pr.PGrid(-1.0, 8))
    fld = hs.laminar_field(flow, 8)
    jac = hs.jacobian(t0, fld)
    tracer = _load_tracer().Tracer()
    with tracer.active():
        jac.solve(np.ones(fld.h.size), None, 0.0)
        jac.solve(np.arange(fld.h.size, dtype=float), None, 0.0)
    calls, _ = tracer.summary()
    assert calls["heightsolver.linear_solve"] == 1


# (function, positional arguments, keyword arguments) as the workloads
# call them; placeholders stand in for the values
WORKLOAD_CALLS = [
    (hs.newton, ("physics", "germ"),
     {"frozen": "amplitude", "amplitude_target": 0.06}),
    (sp.rayleigh_mu, ("flow", "physics", "sigma"), {"N": 512}),
    (sp.find_lambda_star, ("physics", "grid"), {}),
    (hs.germ_field, ("flow", "modes", "xi", "eps", "n"), {}),
    (sp.find_double_sigma, ("physics", "grid", "n2"), {}),
    (sp.shoot_mode, ("flow", "physics", 1), {}),
    (lm.solve_laminar, ("physics", "lam", "grid"), {}),
    (bf.oracle_roots, ("coeffs", "side"), {}),
    (eu.reconstruct, ("physics", "field"), {}),
    (eu.flux_all_columns, ("wave",), {}),
    (eu.surface_bernoulli_residual, ("wave", "physics"), {}),
    (hs.load_field, ("text",), {}),
    (hs.dump_field, ("field",), {}),
]


@pytest.mark.parametrize("fn, args, kwargs", WORKLOAD_CALLS,
                         ids=[c[0].__name__ for c in WORKLOAD_CALLS])
def test_workload_call_binds(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)
    assert fn.__name__ in (PERFBENCH / "workloads.py").read_text()


def test_coefficient_set_from_coefficients_json():
    cs = toy_coeffs(theta_cross=(0.3, -0.4))
    doc = json.loads(json.dumps(bf.coefficients_to_dict(
        cs, bf.predict_branches(cs))))
    # the construction of perfbench/workloads.py (CoeffsOp)
    rebuilt = bf.CoefficientSet(
        n1=doc["n1"], n2=doc["n2"], psi11=doc["psi11"],
        psi22=doc["psi22"], normalization=doc["normalization"],
        **doc["phi"], **doc["theta"])
    assert rebuilt.with_flags() == cs
