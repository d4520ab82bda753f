"""Configuration ingestion, subcommand dispatch, and artifact emission.

One JSON config document drives every subcommand; unknown keys are
rejected so a typo in a tolerance name cannot silently fall back to a
default.  All floating-point output is emitted at 17 significant digits
with deterministic ordering, so identical configs give byte-identical
artifacts.

Each subcommand takes ``--config``, ``--out`` and its own flags only
(``_SUBCOMMANDS``); ``main`` alone writes its artifacts, after it succeeds.
Every subcommand takes its physics from ``_resolve_physics``: the config's,
with sigma from --sigma or --n2, or, for ``eulerian`` and ``verify``, the
sigma that a field dump recorded.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure
(the failing operation's error name goes to stderr).
"""

from __future__ import annotations

import argparse
import contextlib
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
_TOP_KEYS = {"physics", "numerics", "continuation", "lambdas", "output_dir"}


@dataclass(frozen=True)
class Numerics:
    """The ``numerics`` block: the grid, the classification scan and the
    ``verify`` thresholds."""
    N_p: int = 64
    N_q: int = 64
    n_max: int = 64
    resonance_rtol: float = 1e-6
    verify_residual_tol: float = 1e-8
    verify_eta_tol: float = 1e-10
    verify_flux_tol: float = 1e-3
    verify_bernoulli_tol: float = 1e-3
    verify_yih_tol: float = 5e-2


@dataclass
class RunConfig:
    physics: Physics
    numerics: Numerics
    continuation: heightsolver.ContinuationControls
    lambdas: list = field(default_factory=list)
    output_dir: str = "out"

    @property
    def grid(self) -> PGrid:
        return PGrid(self.physics.p0, self.numerics.N_p)


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


def _out_dir(val, where) -> str:
    """An output directory: a non-empty string."""
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{where} must be a non-empty string")
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


def _parse_block(cls, block, where):
    """A config block as the dataclass ``cls``: a field with an int default
    takes an int >= 1, any other a finite number > 0; an absent field keeps
    its default."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    counts = {f.name: isinstance(f.default, int) for f in fields(cls)}
    _reject_unknown(block, set(counts), where)
    for key, val in block.items():
        if counts[key]:
            _count(val, f"{where}.{key}")
        elif _number(val, f"{where}.{key}") <= 0:
            raise ConfigError(f"{where}.{key} must be a finite number > 0")
    return cls(**block)


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
    try:
        rho = _parse_profile(pb["rho"], "physics.rho", p0, 0.0)
        beta = _parse_profile(pb["beta"], "physics.beta", 0.0, abs(p0))
        physics = Physics(g=g, c=c, p0=p0, sigma=sigma, rho=rho, beta=beta)
    except DomainError as exc:
        raise ConfigError(f"invalid physics: {exc}")

    numerics = _parse_block(Numerics, raw.get("numerics", {}), "numerics")
    for n, key in ((numerics.N_p, "N_p"), (numerics.N_q, "N_q")):
        if n < 16 or n & (n - 1):
            raise ConfigError(f"numerics.{key} must be a power of two >= 16")
    controls = _parse_block(heightsolver.ContinuationControls,
                            raw.get("continuation", {}), "continuation")
    if controls.ds_min > controls.ds_max:
        raise ConfigError("continuation.ds_min must not exceed ds_max")
    output_dir = _out_dir(raw.get("output_dir", "out"), "output_dir")
    return RunConfig(physics=physics, numerics=numerics,
                     continuation=controls,
                     lambdas=_numbers(raw.get("lambdas", []), "lambdas"),
                     output_dir=output_dir)


def _check_flags(args):
    """The flags pass the checks of the config values they stand in for:
    --lambda and --sigma finite (sigma >= 0), --steps a count, --n2 at
    least 2, --out a non-empty string.  ``args`` holds only the flags of
    its subcommand."""
    flags = vars(args)
    if args.out is not None:
        _out_dir(args.out, "--out")
    if flags.get("lam") is not None:
        _number(args.lam, "--lambda")
    if flags.get("sigma") is not None and _number(args.sigma, "--sigma") < 0:
        raise ConfigError("--sigma must be nonnegative")
    if flags.get("n2") is not None and args.n2 < 2:
        raise ConfigError("--n2 must be >= 2")
    if flags.get("steps") is not None:
        _count(args.steps, "--steps")


def _resolve_physics(cfg: RunConfig, args,
                     recorded: float | None = None) -> Physics:
    """The config's physics, with --sigma overriding sigma and --n2 setting
    it to the double point's.  A ``recorded`` sigma (a field dump's) is the
    run's sigma: it answers --n2, as the ``branch --n2`` that wrote the
    dump resolved it from the same config and grid, and a --sigma that
    differs from it is a ConfigError."""
    flags = vars(args)
    sigma, n2 = flags.get("sigma"), flags.get("n2")
    if recorded is not None:
        if sigma is not None and sigma != recorded:
            raise ConfigError(f"--sigma = {sigma!r} differs from the dump's "
                              f"sigma = {recorded!r}")
        sigma, n2 = recorded, None
    physics = cfg.physics
    if sigma is not None and sigma != physics.sigma:
        physics = replace(physics, sigma=sigma)
    if n2 is not None:
        sigma_d, _ = spectral.find_double_sigma(physics, cfg.grid, n2)
        physics = replace(physics, sigma=sigma_d)
    return physics


def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    try:
        os.makedirs(outdir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")
    return path


def _write_all(outdir, artifacts):
    """Write each (file name, text) under outdir and return the paths.  A
    write that fails removes the files written before it, so a command
    leaves all of its files or none."""
    paths = []
    try:
        for name, text in artifacts:
            paths.append(_write(outdir, name, text))
    except ConfigError:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return paths


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- subcommands: each returns an ordered list of (file name, text) -------

def cmd_laminar(cfg: RunConfig, args):
    lambdas = [args.lam] if args.lam is not None else cfg.lambdas
    if not lambdas:
        raise ConfigError("laminar needs --lambda or a 'lambdas' list")
    names = [f"laminar_{lam:.6g}.csv" for lam in lambdas]
    if len(set(names)) < len(names):
        raise ConfigError("lambdas must differ in their first 6 significant "
                          "digits, which name their files")
    physics, grid = _resolve_physics(cfg, args), cfg.grid
    return [(name, laminar.flow_to_csv(
        laminar.solve_laminar(physics, lam, grid)))
        for lam, name in zip(lambdas, names)]


def cmd_dispersion(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    grid = cfg.grid
    rows = ["n,lambda,D,scale"]
    roots = ["n,lambda_star"]
    # each window starts where the root scan does, at the lowest admissible
    # lambda, when half the root lies below the laminar floor
    lam_lo = laminar._first_admissible(laminar.lambda_floor(physics, grid))
    for n in range(1, 7):
        lam_n = spectral.find_lambda_star(physics, grid, n=n)
        roots.append(f"{n},{lam_n:.16e}")
        for lam in np.linspace(max(0.5 * lam_n, lam_lo), 1.5 * lam_n, 11):
            flow = laminar.solve_laminar(physics, lam, grid)
            D, sc = spectral._dispersion_at(flow, physics, n)
            rows.append(f"{n},{lam:.16e},{D:.16e},{sc:.16e}")
    return [("dispersion.csv", "\n".join(rows) + "\n"),
            ("dispersion_roots.csv", "\n".join(roots) + "\n")]


def _classification_report(physics, grid, numerics):
    bp = spectral.classify(physics, grid, n_max=numerics.n_max,
                           resonance_rtol=numerics.resonance_rtol)
    label = bp.classification
    if label == "Double":
        label = f"Double({bp.n2})"
    return bp, {
        "lambda_star": bp.lambda_star,
        "Q_star": bp.flow.Q,
        "class": label,
        "resonant_n": [] if bp.n2 is None else [bp.n2],
        "residuals": {str(k): v for k, v in sorted(bp.residuals.items())},
        "resonance_rtol": bp.resonance_rtol,
    }


def cmd_classify(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    _, report = _classification_report(physics, cfg.grid, cfg.numerics)
    return [("classification.json", _json_dump(report))]


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
    return [("coefficients.json", _json_dump(out))]


def cmd_predict(cfg: RunConfig, args):
    physics = _resolve_physics(cfg, args)
    _, coeffs, germs, _ = _coefficients(cfg, physics)
    out = bifurc.coefficients_to_dict(coeffs, germs)["germs"]
    return [("germs.json", _json_dump(out))]


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
    bp, coeffs, germs, _ = _coefficients(cfg, physics)
    controls = cfg.continuation
    if args.steps is not None:
        controls = replace(controls, max_steps=args.steps)
    N_q = cfg.numerics.N_q
    artifacts = []
    branches = []
    for k, germ in enumerate(canonical_germs(germs)):
        # mixed branches detach from the trivial family at the resonance
        # splitting scale of the discretization; seed them above it
        eps = 1e-3 if germ.kind == "pure" else 4e-3
        fld = heightsolver.germ_field(bp.flow, bp.modes, germ.theta, eps, N_q)
        if abs(fld.amplitude()) < 1e-14:
            continue
        branch = heightsolver.continue_branch(physics, fld, controls)
        branches.append(branch)
        artifacts += [
            (f"branch_{k}.csv", heightsolver.branch_csv(branch)),
            (f"branch_{k}_last.field",
             heightsolver.dump_field(branch.points[-1].field)),
            (f"branch_{k}_first.field",
             heightsolver.dump_field(branch.points[0].field))]
    return artifacts + [("branches.svg", heightsolver.branch_svg(branches))]


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


def _oracle_values(physics, wave) -> dict:
    """The Eulerian oracle values of a reconstructed wave: what
    ``eulerian`` writes to eulerian_checks.json and ``verify`` checks."""
    fluxes = eulerian.flux_all_columns(wave)
    return {
        "flux_max_error": float(np.max(np.abs(fluxes - physics.p0))),
        "surface_bernoulli_residual":
            eulerian.surface_bernoulli_residual(wave, physics),
        "yih_residual": eulerian.yih_residual(wave, physics),
        "eta_mean": float(np.mean(wave.eta[:-1])),
    }


def cmd_eulerian(cfg: RunConfig, args):
    hf = _load_dump(cfg, args)
    physics = _resolve_physics(cfg, args, hf.sigma)
    wave = eulerian.reconstruct(physics, hf)
    return [("wave.csv", eulerian.wave_csv(wave)),
            ("surface.csv", eulerian.surface_csv(wave)),
            ("eulerian_checks.json",
             _json_dump(_oracle_values(physics, wave)))]


def cmd_verify(cfg: RunConfig, args):
    """All residual oracles on a stored field, one PASS or FAIL line each."""
    hf = _load_dump(cfg, args)
    physics = _resolve_physics(cfg, args, hf.sigma)
    num = cfg.numerics
    res = heightsolver.residual(physics, hf)
    wave = eulerian.reconstruct(physics, hf)
    oracle = _oracle_values(physics, wave)
    checks = [
        ("height-residual", float(np.max(np.abs(res))),
         num.verify_residual_tol),
        ("eta-mean", abs(oracle["eta_mean"]), num.verify_eta_tol),
        ("flux", oracle["flux_max_error"], num.verify_flux_tol),
        ("surface-bernoulli", oracle["surface_bernoulli_residual"],
         num.verify_bernoulli_tol),
        ("yih", oracle["yih_residual"], num.verify_yih_tol),
        ("u-below-c", float(np.max(wave.u - physics.c)), 0.0),
    ]
    for name, value, tol in checks:
        print(f"{'PASS' if value < tol else 'FAIL'} {name} "
              f"value={value:.16e} tol={tol:.16e}")
    for name, value, tol in checks:
        if not value < tol:
            raise VerificationError(f"verification failed: {name}",
                                    check=name, value=value)
    return []


# flag -> its add_argument keywords
_FLAGS = {
    "--lambda": {"dest": "lam", "type": float},
    "--sigma": {"type": float},
    "--n2": {"type": int},
    "--steps": {"type": int},
    "--field": {},
}

# subcommand -> (command, the flags it takes besides --config and --out)
_SUBCOMMANDS = {
    "laminar": (cmd_laminar, ("--lambda",)),
    "dispersion": (cmd_dispersion, ("--sigma", "--n2")),
    "classify": (cmd_classify, ("--sigma", "--n2")),
    "coeffs": (cmd_coeffs, ("--sigma", "--n2")),
    "predict": (cmd_predict, ("--sigma", "--n2")),
    "branch": (cmd_branch, ("--sigma", "--n2", "--steps")),
    "eulerian": (cmd_eulerian, ("--sigma", "--n2", "--field")),
    "verify": (cmd_verify, ("--sigma", "--n2", "--field")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stratiwave",
        description="Steady stratified capillary-gravity wave toolkit")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True)
        sub.add_argument("--out")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
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
        if args.out is None:
            args.out = cfg.output_dir
        artifacts = _SUBCOMMANDS[args.subcommand][0](cfg, args)
        for path in _write_all(args.out, artifacts):
            print(path)
    except StratiwaveError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
