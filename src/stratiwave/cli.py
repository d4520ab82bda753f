"""Configuration ingestion, subcommand dispatch, and artifact emission.

One JSON config document drives every subcommand; unknown keys are
rejected so a typo in a tolerance name cannot silently fall back to a
default.  All floating-point output is emitted at 17 significant digits
with deterministic ordering, so identical configs give byte-identical
artifacts.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(the failing operation's error name goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bifurc, eulerian, heightsolver, laminar, spectral
from .errors import (ConfigError, DomainError, StratiwaveError,
                     VerificationError)
from .profiles import PGrid, Physics, ProfileFn

_PROFILE_KEYS = {"poly": {"type", "coeffs"}, "table": {"type", "p", "v"}}
_PHYSICS_KEYS = {"g", "c", "p0", "sigma", "rho", "beta"}
_NUMERICS_DEFAULTS = {
    "N_p": 64, "N_q": 64, "n_max": 64, "resonance_rtol": 1e-6,
    "verify_residual_tol": 1e-8, "verify_eta_tol": 1e-10,
    "verify_flux_tol": 1e-3, "verify_bernoulli_tol": 1e-3,
    "verify_yih_tol": 5e-2,
}
_NUMERICS_KEYS = set(_NUMERICS_DEFAULTS)
_CONTINUATION_KEYS = {f.name for f in
                      fields(heightsolver.ContinuationControls)}
_CONTINUATION_COUNTS = {"max_steps", "newton_max_iter"}
_TOP_KEYS = {"physics", "numerics", "continuation", "lambdas", "sigma",
             "output_dir"}


@dataclass
class RunConfig:
    physics: Physics
    numerics: dict
    continuation: heightsolver.ContinuationControls
    lambdas: list = field(default_factory=list)
    output_dir: str = "out"

    @property
    def grid(self) -> PGrid:
        return PGrid(self.physics.p0, self.numerics["N_p"])


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _number(val, where) -> float:
    """A finite JSON number; bools and numeric strings are rejected."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not math.isfinite(val)):
        raise ConfigError(f"{where} must be a finite number")
    return float(val)


def _count(val, where) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ConfigError(f"{where} must be an integer >= 1")
    return val


def _numbers(vals, where) -> list:
    if not isinstance(vals, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(vals)]


def _parse_profile(block, where, lo, hi) -> ProfileFn:
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError(f"{where} must be an object with a 'type'")
    kind = block["type"]
    if kind not in _PROFILE_KEYS:
        raise ConfigError(f"{where}.type must be 'poly' or 'table'")
    _reject_unknown(block, _PROFILE_KEYS[kind], where)
    missing = _PROFILE_KEYS[kind] - set(block)
    if missing:
        raise ConfigError(f"{where} misses {sorted(missing)}")
    if kind == "poly":
        return ProfileFn.poly(_numbers(block["coeffs"], f"{where}.coeffs"),
                              lo, hi)
    return ProfileFn.table(_numbers(block["p"], f"{where}.p"),
                           _numbers(block["v"], f"{where}.v"), lo, hi)


def _power_of_two(n):
    return n >= 16 and (n & (n - 1)) == 0


def _parse_continuation(cb) -> heightsolver.ContinuationControls:
    """Counts are ints >= 1, every other control a finite number > 0."""
    if not isinstance(cb, dict):
        raise ConfigError("continuation must be an object")
    _reject_unknown(cb, _CONTINUATION_KEYS, "continuation")
    for key, val in cb.items():
        if key in _CONTINUATION_COUNTS:
            _count(val, f"continuation.{key}")
        elif _number(val, f"continuation.{key}") <= 0:
            raise ConfigError(f"continuation.{key} must be a finite number > 0")
    controls = heightsolver.ContinuationControls(**cb)
    if controls.ds_min > controls.ds_max:
        raise ConfigError("continuation.ds_min must not exceed ds_max")
    return controls


def _parse_numerics(nb) -> dict:
    """Grid sizes are powers of two >= 16, n_max an int >= 1, every
    tolerance a finite number > 0."""
    if not isinstance(nb, dict):
        raise ConfigError("numerics must be an object")
    _reject_unknown(nb, _NUMERICS_KEYS, "numerics")
    numerics = {**_NUMERICS_DEFAULTS, **nb}
    for key in ("N_p", "N_q"):
        if not _power_of_two(_count(numerics[key], f"numerics.{key}")):
            raise ConfigError(f"numerics.{key} must be a power of two >= 16")
    _count(numerics["n_max"], "numerics.n_max")
    for key, val in numerics.items():
        if key.endswith("tol") and _number(val, f"numerics.{key}") <= 0:
            raise ConfigError(f"numerics.{key} must be positive")
    return numerics


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    if "physics" not in raw:
        raise ConfigError("config requires a 'physics' block")
    pb = raw["physics"]
    if not isinstance(pb, dict):
        raise ConfigError("physics must be an object")
    _reject_unknown(pb, _PHYSICS_KEYS, "physics")
    for key in ("g", "c", "p0", "sigma", "rho", "beta"):
        if key not in pb:
            raise ConfigError(f"physics.{key} missing")
    g, c, p0, sigma = (_number(pb[key], f"physics.{key}")
                       for key in ("g", "c", "p0", "sigma"))
    if p0 >= 0:
        raise ConfigError("physics.p0 must be negative")
    sigma_override = raw.get("sigma")
    if sigma_override is not None:
        sigma_override = _number(sigma_override, "sigma")
    try:
        rho = _parse_profile(pb["rho"], "physics.rho", p0, 0.0)
        beta = _parse_profile(pb["beta"], "physics.beta", 0.0, abs(p0))
        physics = Physics(g=g, c=c, p0=p0, sigma=sigma, rho=rho, beta=beta)
        if sigma_override is not None:
            physics = replace(physics, sigma=sigma_override)
    except DomainError as exc:
        raise ConfigError(f"invalid physics: {exc}")

    numerics = _parse_numerics(raw.get("numerics", {}))
    controls = _parse_continuation(raw.get("continuation", {}))
    return RunConfig(physics=physics, numerics=numerics,
                     continuation=controls,
                     lambdas=_numbers(raw.get("lambdas", []), "lambdas"),
                     output_dir=str(raw.get("output_dir", "out")))


def _check_flags(args):
    """The numeric flags pass the checks of the config values they stand
    in for: --lambda and --sigma finite (sigma >= 0), --steps a count,
    --n2 at least 2."""
    if args.lam is not None:
        _number(args.lam, "--lambda")
    if args.sigma is not None and _number(args.sigma, "--sigma") < 0:
        raise ConfigError("--sigma must be nonnegative")
    if args.n2 is not None and args.n2 < 2:
        raise ConfigError("--n2 must be >= 2")
    if args.steps is not None:
        _count(args.steps, "--steps")


def _resolve_physics(cfg: RunConfig, args) -> Physics:
    """--sigma overrides the config; --n2 computes the double-point sigma."""
    physics = cfg.physics
    if args.sigma is not None:
        physics = replace(physics, sigma=args.sigma)
    if args.n2 is not None:
        sigma_d, _ = spectral.find_double_sigma(physics, cfg.grid, args.n2)
        physics = replace(physics, sigma=sigma_d)
    return physics


def _write(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- subcommands ----------------------------------------------------------

def cmd_laminar(cfg: RunConfig, args):
    lambdas = [args.lam] if args.lam is not None else cfg.lambdas
    if not lambdas:
        raise ConfigError("laminar needs --lambda or a 'lambdas' list")
    grid = cfg.grid
    paths = []
    for lam in lambdas:
        flow = laminar.solve_laminar(cfg.physics, lam, grid)
        paths.append(_write(args.out, f"laminar_{lam:.6g}.csv",
                            laminar.flow_to_csv(flow)))
    print("\n".join(paths))
    return 0


def cmd_dispersion(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    grid = cfg.grid
    rows = ["n,lambda,D,scale"]
    roots = ["n,lambda_star"]
    # each window starts where the root scan does, at the lowest admissible
    # lambda, when half the root lies below the laminar floor
    lam_lo = spectral._first_admissible(laminar.lambda_floor(physics, grid))
    for n in range(1, 7):
        lam_n = spectral.find_lambda_star(physics, grid, n=n)
        roots.append(f"{n},{lam_n:.16e}")
        for lam in np.linspace(max(0.5 * lam_n, lam_lo), 1.5 * lam_n, 11):
            flow = laminar.solve_laminar(physics, lam, grid)
            mode = spectral.shoot_mode(flow, physics, n)
            D, sc = spectral.dispersion(flow, physics, mode)
            rows.append(f"{n},{lam:.16e},{D:.16e},{sc:.16e}")
    p1 = _write(args.out, "dispersion.csv", "\n".join(rows) + "\n")
    p2 = _write(args.out, "dispersion_roots.csv", "\n".join(roots) + "\n")
    print(p1)
    print(p2)
    return 0


def _classification_report(physics, grid, numerics):
    bp = spectral.classify(physics, grid, n_max=numerics["n_max"],
                           resonance_rtol=numerics["resonance_rtol"])
    label = bp.classification
    if label == "Double":
        label = f"Double({bp.n2})"
    return bp, {
        "lambda_star": bp.lambda_star,
        "Q_star": bp.flow.Q,
        "class": label,
        "resonant_n": [] if bp.classification == "Simple"
        else [bp.n2],
        "residuals": {str(k): v for k, v in sorted(bp.residuals.items())},
        "resonance_rtol": bp.resonance_rtol,
    }


def cmd_classify(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    _, report = _classification_report(physics, cfg.grid, cfg.numerics)
    path = _write(args.out, "classification.json", _json_dump(report))
    print(path)
    return 0


def _coefficients(cfg, physics):
    bp, report = _classification_report(physics, cfg.grid, cfg.numerics)
    # a simple (or zero-mode) point gets single-mode pitchfork data
    modes = bp.modes if bp.classification == "Double" else bp.modes[:1]
    coeffs = bifurc.coefficient_set(bp.flow, physics, *modes)
    return bp, coeffs, bifurc.predict_branches(coeffs), report


def cmd_coeffs(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    _, coeffs, germs, report = _coefficients(cfg, physics)
    out = bifurc.coefficients_to_dict(coeffs, germs)
    out["classification"] = report
    path = _write(args.out, "coefficients.json", _json_dump(out))
    print(path)
    return 0


def cmd_predict(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    _, coeffs, germs, _ = _coefficients(cfg, physics)
    out = bifurc.coefficients_to_dict(coeffs, germs)["germs"]
    path = _write(args.out, "germs.json", _json_dump(out))
    print(path)
    return 0


def canonical_germs(germs):
    """One germ per branch: identify theta with -theta (translated wave)."""
    kept = []
    for g in germs:
        th = g.theta
        lead = th[0] if th[0] != 0.0 else th[1]
        if lead < 0:
            continue
        kept.append(g)
    return kept


def cmd_branch(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    verbose = bool(os.environ.get("STRATIWAVE_VERBOSE"))
    bp, coeffs, germs, _ = _coefficients(cfg, physics)
    controls = cfg.continuation
    if args.steps is not None:
        controls = replace(controls, max_steps=args.steps)
    N_q = cfg.numerics["N_q"]
    paths = []
    branches = []
    for k, germ in enumerate(canonical_germs(germs)):
        # mixed branches detach from the trivial family at the resonance
        # splitting scale of the discretization; seed them above it
        eps = 1e-3 if germ.kind == "pure" else 4e-3
        fld = heightsolver.germ_field(bp.flow, bp.modes, germ.theta, eps, N_q)
        if abs(fld.amplitude()) < 1e-14:
            continue
        if verbose:
            print(f"continuing germ {k}: kind={germ.kind} side={germ.side}",
                  file=sys.stderr)
        branch = heightsolver.continue_branch(physics, fld, controls)
        branches.append(branch)
        paths.append(_write(args.out, f"branch_{k}.csv",
                            heightsolver.branch_csv(branch)))
        paths.append(_write(args.out, f"branch_{k}_last.field",
                            heightsolver.dump_field(branch.points[-1].field)))
        paths.append(_write(args.out, f"branch_{k}_first.field",
                            heightsolver.dump_field(branch.points[0].field)))
    paths.append(_write(args.out, "branches.svg",
                        heightsolver.branch_svg(branches)))
    print("\n".join(paths))
    return 0


def _load_dump(cfg: RunConfig, args):
    """The --field dump, which must live on the config's [p0, 0]."""
    if not args.field:
        raise ConfigError(f"{args.subcommand} needs --field <dump>")
    try:
        with open(args.field, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read field {args.field}: {exc}")
    hf = heightsolver.load_field(text)
    if hf.pgrid.p0 != cfg.physics.p0:
        raise ConfigError(f"dump p0 = {hf.pgrid.p0!r} differs from "
                          f"physics.p0 = {cfg.physics.p0!r}")
    return hf


def cmd_eulerian(cfg: RunConfig, args):
    hf = _load_dump(cfg, args)
    wave = eulerian.reconstruct(cfg.physics, hf)
    p1 = _write(args.out, "wave.csv", eulerian.wave_csv(wave))
    p2 = _write(args.out, "surface.csv", eulerian.surface_csv(wave))
    fluxes = eulerian.flux_all_columns(wave)
    bern = eulerian.surface_bernoulli_residual(wave, cfg.physics)
    yih = eulerian.yih_residual(wave, cfg.physics)
    report = {
        "flux_max_error": float(np.max(np.abs(fluxes - cfg.physics.p0))),
        "surface_bernoulli_residual": bern,
        "yih_residual": yih,
        "eta_mean": float(np.mean(wave.eta[:-1])),
    }
    p3 = _write(args.out, "eulerian_checks.json", _json_dump(report))
    print("\n".join([p1, p2, p3]))
    return 0


def run_verify(cfg: RunConfig, hf) -> list:
    """All residual oracles on a stored field; list of (name, value, tol, ok)."""
    num = cfg.numerics
    checks = []
    res = heightsolver.residual(cfg.physics, hf)
    checks.append(("height-residual", float(np.max(np.abs(res))),
                   num["verify_residual_tol"]))
    wave = eulerian.reconstruct(cfg.physics, hf)
    checks.append(("eta-mean", abs(float(np.mean(wave.eta[:-1]))),
                   num["verify_eta_tol"]))
    fluxes = eulerian.flux_all_columns(wave)
    checks.append(("flux", float(np.max(np.abs(fluxes - cfg.physics.p0))),
                   num["verify_flux_tol"]))
    checks.append(("surface-bernoulli",
                   eulerian.surface_bernoulli_residual(wave, cfg.physics),
                   num["verify_bernoulli_tol"]))
    checks.append(("yih", eulerian.yih_residual(wave, cfg.physics),
                   num["verify_yih_tol"]))
    checks.append(("u-below-c", float(np.max(wave.u - cfg.physics.c)),
                   0.0))
    return [(name, value, tol, value < tol or (name == "u-below-c" and value < 0))
            for name, value, tol in checks]


def cmd_verify(cfg: RunConfig, args):
    hf = _load_dump(cfg, args)
    results = run_verify(cfg, hf)
    for name, value, tol, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} value={value:.16e} "
              f"tol={tol:.16e}")
    failing = [r for r in results if not r[3]]
    if failing:
        raise VerificationError(
            f"verification failed: {failing[0][0]}", check=failing[0][0],
            value=failing[0][1])
    return 0


_SUBCOMMANDS = {
    "laminar": cmd_laminar,
    "dispersion": cmd_dispersion,
    "classify": cmd_classify,
    "coeffs": cmd_coeffs,
    "predict": cmd_predict,
    "branch": cmd_branch,
    "eulerian": cmd_eulerian,
    "verify": cmd_verify,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stratiwave",
        description="Steady stratified capillary-gravity wave toolkit")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--sigma", type=float, default=None)
    parser.add_argument("--n2", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--field", default=None)
    return parser


# built once per process: each parse_args call fills a fresh Namespace
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        _check_flags(args)
    except ConfigError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        args.out = cfg.output_dir
    try:
        return _SUBCOMMANDS[args.subcommand](cfg, args)
    except ConfigError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2
    except StratiwaveError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
