"""The three benchmark workloads: inputs, operations and output checks.

Every operation goes through ``stratiwave.cli.main`` exactly as the
``stratiwave`` command would run it, in process, with its standard output
and error captured.  Preparation uses the public functions of each module.
A workload is a fixed mix of operations; one round runs the mix once.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace

import numpy as np

from stratiwave import bifurc, cli, eulerian, heightsolver, laminar, spectral

import checks

REL_TOL = 1e-8              # dispersion roots and germs vs oracles
RAYLEIGH_TOL = 1e-6         # |mu(lambda_*) + 1| at N = 512
ORACLE_TOL = 1e-3           # flux and surface-Bernoulli oracles


def call_cli(argv):
    """Run one ``stratiwave`` command in process: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_config(path, sigma=1.0, rho=(1.0,), beta=(0.0,), n=64,
                 rho_table=None):
    """A config document on [p0, 0] = [-1, 0] with g = c = 1."""
    if rho_table is None:
        rho_block = {"type": "poly", "coeffs": list(rho)}
    else:
        rho_block = {"type": "table", "p": rho_table[0], "v": rho_table[1]}
    doc = {"physics": {"g": 1.0, "c": 1.0, "p0": -1.0, "sigma": sigma,
                       "rho": rho_block,
                       "beta": {"type": "poly", "coeffs": list(beta)}},
           "numerics": {"N_p": n, "N_q": n}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return path


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    extra: object = None
    problem: str | None = None      # set when an operation's outputs disagree


@dataclass
class Record:
    """One timed operation of the timed phase."""

    op: "CliOp"
    round: int
    out_dir: str
    seconds: float
    outcome: Outcome
    self_s: float | None = None     # time outside wrapped calls, if traced

    @property
    def failed(self):
        return (self.outcome.code != self.op.expect
                or self.outcome.problem is not None)


@dataclass(frozen=True)
class CliOp:
    """One ``stratiwave`` command; ``out_dir`` is appended as ``--out``."""

    name: str
    argv: tuple
    expect: int = 0
    known_fault: bool = False

    def __call__(self, out_dir):
        return Outcome(*call_cli(list(self.argv) + ["--out", out_dir]))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _tree(path):
    """{relative name: bytes} of the files an operation wrote."""
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _same_outputs(records, key):
    """Problems if operations of one name produced different outputs."""
    first, problems = {}, []
    for rec in records:
        if rec.failed:
            continue
        value = key(rec)
        ref = first.setdefault(rec.op.name, value)
        if value != ref:
            problems.append(f"{rec.op.name}: round {rec.round} output "
                            "differs from round of first success")
    return problems


def _rayleigh_problem(label, physics, grid, lam_star):
    flow = laminar.solve_laminar(physics, lam_star, grid)
    mu = spectral.rayleigh_mu(flow, physics, physics.sigma, N=512)
    if abs(mu + 1.0) > RAYLEIGH_TOL:
        return [f"{label}: Rayleigh mu(lambda_*) = {mu!r}, not -1"]
    return []


# --- continue-strat64 -------------------------------------------------------

class ContinueStrat64:
    """Pseudo-arclength continuation at a stratified simple point."""

    name = "continue-strat64"
    steps = 12
    fit_points = 7          # points of the pitchfork fit Q = Q0 + k a^2

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, work):
        return {"config": write_config(os.path.join(work, "strat64.json"),
                                       sigma=10.0, rho=(1.0, -0.1), n=64)}

    def ops(self, state):
        return [CliOp("branch", ("branch", "--config", state["config"],
                                 "--steps", str(self.steps)))]

    def warmup(self, state):
        return self.ops(state)[0]

    def check(self, states, records, work):
        state = states[-1]
        done = [rec for rec in records if not rec.failed]
        if not done:
            return []
        problems = _same_outputs(done, lambda rec: _tree(rec.out_dir))
        out = done[0].out_dir
        table = np.loadtxt(os.path.join(out, "branch_0.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        Q, amp, resid = table[:, 1], table[:, 2], table[:, 9]
        if len(table) != self.steps:
            problems.append(f"{len(table)} branch points, not {self.steps}")
        if not np.all(resid < 1e-10):
            problems.append(f"branch residual {resid.max():.3e} >= 1e-10")
        if not np.all(np.diff(amp) > 0):
            problems.append("amplitude not strictly increasing")

        code, _, err = call_cli(["classify", "--config", state["config"],
                                 "--out", os.path.join(work, "classify")])
        if code != 0:
            return problems + [f"classify exited {code}: {err.strip()}"]
        report = json.loads(_read(os.path.join(work, "classify",
                                               "classification.json")))
        Q0, misfit = checks.pitchfork_fit(amp[:self.fit_points],
                                          Q[:self.fit_points])
        if misfit > 1e-3:
            problems.append(f"Q not linear in amplitude^2 "
                            f"(misfit {misfit:.2e})")
        if abs(Q0 / report["Q_star"] - 1.0) > 1e-3:
            problems.append(f"pitchfork intercept {Q0!r} vs Q* "
                            f"{report['Q_star']!r}")

        cfg = cli.load_config(state["config"])
        problems += _rayleigh_problem(self.name, cfg.physics, cfg.grid,
                                      report["lambda_star"])

        field = heightsolver.load_field(
            _read(os.path.join(out, "branch_0_last.field")))
        wave = eulerian.reconstruct(cfg.physics, field)
        flux = float(np.max(np.abs(eulerian.flux_all_columns(wave)
                                   - cfg.physics.p0)))
        bern = eulerian.surface_bernoulli_residual(wave, cfg.physics)
        if not (flux < ORACLE_TOL and bern < ORACLE_TOL):
            problems.append(f"last field: flux error {flux:.3e}, surface "
                            f"Bernoulli residual {bern:.3e}")
        return problems


# --- analyze-sweep ----------------------------------------------------------

ZERO_MODE_SIGMA = 1.0 / math.tanh(1.0) - 1.0

# (name, config keywords, --n2, expected class, constant density?)
SWEEP = (
    ("simple", {"sigma": 1.0}, None, "Simple", True),
    ("zero-mode", {"sigma": ZERO_MODE_SIGMA}, None, "ZeroMode", True),
    ("double2", {"sigma": 1.0}, 2, "Double(2)", True),
    ("double3", {"sigma": 1.0}, 3, "Double(3)", True),
    ("double4", {"sigma": 1.0}, 4, "Double(4)", True),
    ("rho-p10", {"sigma": 10.0, "rho": (1.0, -0.1)}, None, "Simple", False),
    ("rho-p5", {"sigma": 20.0, "rho": (1.0, -0.2)}, None, "Simple", False),
    ("beta-0.2s", {"sigma": 1.0, "beta": (0.0, 0.2)}, None, "Simple", False),
    ("rho-table", {"sigma": 10.0, "rho_table": ([-1.0, -0.5, 0.0],
                                                [1.15, 1.06, 1.0])},
     None, "Simple", False),
)

# bifurc.oracle_roots misses the four mixed roots here: its 21 x 21 start
# grid spans +-3.2 on both axes while the roots sit at theta2 = +-0.040.
ORACLE_FAULT = {"double4"}


@dataclass(frozen=True)
class CoeffsOp(CliOp):
    """``stratiwave coeffs``; at a cubic double point also the root oracle
    on both sides of the reduced equation."""

    cubic: bool = False

    def __call__(self, out_dir):
        outcome = super().__call__(out_dir)
        if outcome.code == 0 and self.cubic:
            doc = json.loads(_read(os.path.join(out_dir,
                                                "coefficients.json")))
            coeffs = bifurc.CoefficientSet(
                n1=doc["n1"], n2=doc["n2"], psi11=doc["psi11"],
                psi22=doc["psi22"], normalization=doc["normalization"],
                **doc["phi"], **doc["theta"])
            outcome.extra = {side: bifurc.oracle_roots(coeffs, side)
                             for side in ("plus", "minus")}
            for side, roots in outcome.extra.items():
                pred = [tuple(g["theta"]) for g in doc["germs"]
                        if g["side"] == side]
                if not checks.roots_match(pred, roots, REL_TOL):
                    outcome.problem = (f"{len(pred)} germs but {len(roots)} "
                                       f"oracle roots on side {side}")
        return outcome


class AnalyzeSweep:
    """Bifurcation analysis at N_p = 512 over a fixed mix of points."""

    name = "analyze-sweep"
    n_p = 512

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, work):
        return {name: write_config(os.path.join(work, f"{name}.json"),
                                   n=self.n_p, **kw)
                for name, kw, _, _, _ in SWEEP}

    def ops(self, state):
        """The nine points, the two cubic double points twice.

        That splits a round into four fast stratified points, three
        middle constant-density ones and four slow oracle runs, so the
        median operation is the middle of the middle group rather than
        the edge between two groups.
        """
        ops = [CoeffsOp(name, ("coeffs", "--config", state[name])
                        + (("--n2", str(n2)) if n2 else ()),
                        known_fault=name in ORACLE_FAULT,
                        cubic=n2 is not None and n2 != 2)
               for name, _, n2, _, _ in SWEEP]
        return ops + [op for op in ops if op.cubic]

    def warmup(self, state):
        return next(op for op in self.ops(state) if op.name == "double3")

    def check(self, states, records, work):
        state = states[-1]
        done = {}               # double4 fails only its oracle comparison
        for rec in records:
            if rec.outcome.code == 0:
                done.setdefault(rec.op.name, rec)
        problems = _same_outputs(
            records, lambda rec: (_tree(rec.out_dir), rec.outcome.extra))
        for name, _, n2, label, constant in SWEEP:
            if name not in done:
                continue
            rec = done[name]
            doc = json.loads(_read(os.path.join(rec.out_dir,
                                                "coefficients.json")))
            report = doc["classification"]
            lam = report["lambda_star"]
            if report["class"] != label:
                problems.append(f"{name}: class {report['class']}, "
                                f"not {label}")
            cfg = cli.load_config(state[name])
            if n2 is not None:
                sigma_d, lam_d = spectral.find_double_sigma(
                    cfg.physics, cfg.grid, n2)
                gaps = [checks.dispersion_gap(lam_d, n, sigma_d)
                        for n in (1, n2)]
                if max(map(abs, gaps)) > REL_TOL or \
                        abs(lam / lam_d - 1.0) > REL_TOL:
                    problems.append(f"{name}: double point ({sigma_d!r}, "
                                    f"{lam_d!r}) off the relation: {gaps}")
            elif constant:
                ref = checks.constant_density_lambda_star(cfg.physics.sigma)
                if abs(lam / ref - 1.0) > REL_TOL:
                    problems.append(f"{name}: lambda_* {lam!r} vs oracle "
                                    f"{ref!r}")
                if label == "ZeroMode" and abs(lam - 1.0) > REL_TOL:
                    problems.append(f"{name}: lambda_* {lam!r}, not 1")
            else:
                problems += _rayleigh_problem(name, cfg.physics, cfg.grid,
                                              lam)
        return problems


# --- verify-fields ----------------------------------------------------------

FIELD_GRIDS = (32, 64, 128)
FIELD_AMPLITUDE = 0.06
NOISE = 1e-5                # corruption of the 64^2 dump
WILTON_GRID = 32
WILTON_STEPS = 3
ORDER_FLOOR = {"flux": 1.8, "surface-bernoulli": 1.8, "yih": 1.5}


def _verify_values(text):
    """{check name: (PASS?, value)} from ``stratiwave verify`` output."""
    values = {}
    for line in text.splitlines():
        verdict, name, value = line.split()[:3]
        values[name] = (verdict == "PASS", float(value.split("=")[1]))
    return values


class VerifyFields:
    """``stratiwave verify`` on dumps that preparation wrote."""

    name = "verify-fields"

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, work):
        state = {}
        for n in FIELD_GRIDS:
            path = write_config(os.path.join(work, f"strat{n}.json"),
                                sigma=10.0, rho=(1.0, -0.1), n=n)
            cfg = cli.load_config(path)
            physics = cfg.physics
            lam = spectral.find_lambda_star(physics, cfg.grid)
            flow = laminar.solve_laminar(physics, lam, cfg.grid)
            mode = spectral.shoot_mode(flow, physics, 1)
            germ = heightsolver.germ_field(
                flow, (mode, mode), (1.0, 0.0),
                FIELD_AMPLITUDE / mode.M[-1], n)
            sol = heightsolver.newton(physics, germ, frozen="amplitude",
                                      amplitude_target=FIELD_AMPLITUDE)
            state[f"config{n}"] = path
            state[f"field{n}"] = os.path.join(work, f"strat{n}.field")
            with open(state[f"field{n}"], "w", encoding="utf-8") as fh:
                fh.write(heightsolver.dump_field(sol))
            if n == 64:
                rng = np.random.default_rng(self.seed)
                noisy = replace(sol, h=sol.h + NOISE * rng.standard_normal(
                    sol.h.shape))
                state["corrupted"] = os.path.join(work, "corrupted64.field")
                with open(state["corrupted"], "w", encoding="utf-8") as fh:
                    fh.write(heightsolver.dump_field(noisy))

        state["wilton_config"] = write_config(
            os.path.join(work, "wilton.json"), sigma=1.0, n=WILTON_GRID)
        wilton_out = os.path.join(work, "wilton")
        code, _, err = call_cli(["branch", "--config", state["wilton_config"],
                                 "--n2", "3", "--steps", str(WILTON_STEPS),
                                 "--out", wilton_out])
        if code != 0:
            raise RuntimeError(f"branch --n2 3 exited {code}: {err.strip()}")
        state["wilton"] = [os.path.join(wilton_out, f"branch_{k}_last.field")
                           for k in range(4)]
        return state

    def ops(self, state):
        ops = [CliOp(f"verify{n}", ("verify", "--config", state[f"config{n}"],
                                    "--field", state[f"field{n}"]))
               for n in FIELD_GRIDS]
        ops.append(CliOp("corrupted64", ("verify", "--config",
                                         state["config64"], "--field",
                                         state["corrupted"]), expect=3))
        ops += [CliOp(f"wilton{k}", ("verify", "--config",
                                     state["wilton_config"], "--n2", "3",
                                     "--field", path), known_fault=True)
                for k, path in enumerate(state["wilton"])]
        return ops

    def warmup(self, state):
        return self.ops(state)[0]

    def check(self, states, records, work):
        dumps = [[_read(s[f"field{n}"]) for n in FIELD_GRIDS]
                 + [_read(s["corrupted"])] + [_read(p) for p in s["wilton"]]
                 for s in states]
        problems = []
        if any(d != dumps[0] for d in dumps):
            problems.append("preparation wrote different dumps on repeat")
        problems += _same_outputs(records, lambda rec: rec.outcome.out)
        done = {}
        for rec in records:
            if not rec.failed:
                done.setdefault(rec.op.name, rec)
        errors = {key: [] for key in ORDER_FLOOR}
        for n in FIELD_GRIDS:
            rec = done.get(f"verify{n}")
            if rec is None:
                continue
            values = _verify_values(rec.outcome.out)
            if not all(ok for ok, _ in values.values()):
                problems.append(f"verify{n}: not every check passes")
            for key in ORDER_FLOOR:
                errors[key].append(values[key][1])
        for key, floor in ORDER_FLOOR.items():
            if len(errors[key]) == len(FIELD_GRIDS):
                order = checks.convergence_orders(errors[key])
                if order < floor:
                    problems.append(f"{key} convergence order {order:.2f} "
                                    f"< {floor}")
        for k in range(4):
            rec = done.get(f"wilton{k}")
            if rec is not None and not all(
                    ok for ok, _ in _verify_values(rec.outcome.out).values()):
                problems.append(f"wilton{k}: exit 0 but a check fails")
        return problems


WORKLOADS = {cls.name: cls for cls in (ContinueStrat64, AnalyzeSweep,
                                       VerifyFields)}
