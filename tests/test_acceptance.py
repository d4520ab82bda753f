"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (at_sigma, irrotational_lambda_star, make_physics,
                      sigma_for_root)
from test_bifurc import (closed_psi, closed_theta_cross_total,
                         closed_theta_diag, toy_coeffs)
from stratiwave import bifurc as bf
from stratiwave import cli
from stratiwave import eulerian as eu
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import (EllipticityLossError, NoMinimumError,
                               UndefinedQuantityError)


def _report(num, label, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {label}")
    assert ok, f"criterion {num}: {label}"


def fourier_top(fld, nmax=8):
    top = fld.top
    q = fld.q_nodes
    w = np.full(fld.N_q + 1, fld.dq)
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.array([2 / np.pi * np.sum(w * top * np.cos(n * q))
                     for n in range(1, nmax + 1)])


def test_criterion_1_irrotational_dispersion(t0):
    grid = pr.PGrid(-1.0, 128)
    start = time.perf_counter()
    worst = 0.0
    for sigma in (0.05, 0.5, 2.0):
        for n in (1, 2, 3, 4):
            lam = sp.find_lambda_star(replace(t0, sigma=sigma), grid, n=n)
            oracle = irrotational_lambda_star(n, sigma)
            worst = max(worst, abs(lam / oracle - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(1, f"dispersion roots vs scalar oracle (worst rel {worst:.2e}, "
               f"{elapsed:.2f} s)", ok)


def test_criterion_2_lambda0_sigma_c():
    worst = 0.0
    for g, p0 in ((1.0, -1.0), (2.0, -1.0), (1.0, -2.0)):
        phys = make_physics(g=g, p0=p0)
        grid = pr.PGrid(p0, 128)
        lam0 = lm.find_lambda0(phys, grid)
        sc = lm.sigma_c(phys, grid)
        lam0_exact = (g * abs(p0)) ** (2.0 / 3.0)
        sc_exact = (1.0 / 3.0) * g ** (1.0 / 3.0) * abs(p0) ** (4.0 / 3.0)
        worst = max(worst, abs(lam0 / lam0_exact - 1.0),
                    abs(sc / sc_exact - 1.0))
    ok = worst < 1e-8
    _report(2, f"lambda_0 and sigma_c closed forms (worst rel {worst:.2e})",
            ok)


def test_criterion_3_rayleigh_cross_check(t0):
    grid = pr.PGrid(-1.0, 128)
    worst = 0.0
    for sigma in (0.5, 2.0):
        lam = sp.find_lambda_star(replace(t0, sigma=sigma), grid)
        flow = lm.solve_laminar(t0, lam, grid)
        worst = max(worst, abs(sp.rayleigh_mu(flow, t0, sigma, N=512) + 1.0))
    lams = np.linspace(0.35, 1.8, 20)
    mus = []
    for lam in lams:
        flow = lm.solve_laminar(t0, lam, grid)
        mus.append(sp.rayleigh_mu(flow, t0, 2.0, N=256))
    mus = np.array(mus)
    increasing = np.all(np.diff(mus[mus < 0]) > 0)
    ok = worst < 1e-6 and increasing
    _report(3, f"|mu(lambda_*) + 1| = {worst:.2e} at N=512; mu increasing "
               f"where negative", ok)


def test_criterion_4_coefficient_oracles(t0):
    grid = pr.PGrid(-1.0, 256)
    worst = 0.0
    for lam in (0.8, 1.0, 1.3):
        sigma = sigma_for_root(1, lam)
        phys = at_sigma(t0, sigma)
        flow = lm.solve_laminar(t0, lam, grid)
        mode = sp.shoot_mode(flow, t0, 1, normalization="sinh")
        psi = bf.compute_Psi(flow, phys, mode)
        theta = bf.compute_Theta(flow, phys, mode, mode)
        worst = max(worst, abs(psi / closed_psi(1, lam) - 1.0),
                    abs(theta / closed_theta_diag(1, lam, sigma) - 1.0))
    cross_ok = True
    zeros_ok = True
    for n2 in (2, 3):
        sigma_d, lam_d = sp.find_double_sigma(t0, grid, n2)
        phys = replace(t0, sigma=sigma_d)
        flow = lm.solve_laminar(t0, lam_d, grid)
        m1 = sp.shoot_mode(flow, t0, 1, normalization="sinh")
        m2 = sp.shoot_mode(flow, t0, n2, normalization="sinh")
        th12 = bf.compute_Theta(flow, phys, m1, m2)
        ref = closed_theta_cross_total(1, n2, lam_d, sigma_d)
        worst = max(worst, abs(th12 / ref - 1.0))
        # off-diagonal Psi, odd-parity Theta, non-resonant Phi
        zeros_ok &= bf.compute_Psi(flow, phys, m1, m2) == 0.0
        zeros_ok &= bf.theta_entry(flow, phys, m2, (m2, m2, m1)) == 0.0
        if n2 == 2:
            zeros_ok &= bf.theta_entry(flow, phys, m1, (m1, m1, m2)) == 0.0
        if n2 != 2:
            cross_ok &= bf.compute_Phi(flow, phys, m1, m2) == (0.0, 0.0, 0.0)
    ok = worst < 1e-6 and cross_ok and zeros_ok
    _report(4, f"Psi/Theta quadratures vs closed forms (worst rel "
               f"{worst:.2e}); structural zeros exact", ok)


def test_criterion_5_reduced_equation_roots(double3):
    t0, grid, bp, flow = double3

    def roots_match(cs):
        germs = bf.predict_branches(cs)
        for side in ("plus", "minus"):
            pred = sorted(tuple(g.theta) for g in germs if g.side == side)
            roots = bf.oracle_roots(cs, side)
            if len(roots) != len(pred):
                return False
            for r in roots:
                if min(np.hypot(r[0] - p[0], r[1] - p[1])
                       for p in pred) > 1e-8:
                    return False
        return True

    ok = True
    toy = toy_coeffs()
    ok &= len(bf.predict_branches(toy)) == 8
    ok &= roots_match(toy)
    m1, m2 = bp.modes
    computed = bf.coefficient_set(flow, t0, m1, m2)
    ok &= roots_match(computed)
    rng = np.random.default_rng(20260808)
    done = 0
    while done < 50:
        psi = -rng.uniform(0.2, 3.0, size=2)
        diag = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1, 1], size=2)
        cross = rng.uniform(-2.0, 2.0, size=2)
        cs = toy_coeffs(theta_cross=tuple(cross), psi=tuple(psi),
                        diag=tuple(diag))
        det = cs.theta1111 * cs.theta2222 - cs.theta1122 * cs.theta2211
        if not (cs.nd2 and cs.regular_value) or abs(det) < 1e-2:
            continue
        ok &= roots_match(cs)
        done += 1
    _report(5, "predict_branches equals the multi-start Newton oracle on "
               "toy, computed, and 50 random coefficient sets", ok)


def test_criterion_6_classification(t0, double3):
    grid = pr.PGrid(-1.0, 128)
    ok = sp.classify(t0, grid).classification == "Simple"
    sigma_zero = 1.0 / np.tanh(1.0) - 1.0
    bp0 = sp.classify(replace(t0, sigma=sigma_zero), grid)
    ok &= bp0.classification == "ZeroMode"
    ok &= abs(bp0.lambda_star - 1.0) < 1e-6
    _, _, bp3, _ = double3
    ok &= bp3.classification == "Double" and bp3.n2 == 3
    sigmas = np.linspace(0.05, 2.0, 20)
    lams = sp.lambda_star_of_sigma(t0, pr.PGrid(-1.0, 64), sigmas)
    ok &= bool(np.all(np.diff(lams) > 0))
    _report(6, "Simple / ZeroMode(lambda_0) / Double(3) classification and "
               "monotone lambda_*(sigma)", ok)


def test_criterion_7_nonlinear_solver(t0):
    start = time.perf_counter()
    grid = pr.PGrid(-1.0, 64)
    N_q = 64
    lam_star = sp.find_lambda_star(t0, grid)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    lam_field = hs.laminar_field(flow, N_q)
    ok = np.max(np.abs(hs.residual(t0, lam_field))) < 1e-10

    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, N_q)
    sol, hist = hs.newton(t0, germ, frozen="amplitude", return_history=True)
    ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)
              if hist[k] > 1e-8]
    ok &= bool(ratios) and all(r < 1e6 for r in ratios)

    branch = hs.continue_branch(t0, germ,
                                hs.ContinuationControls(max_steps=22))
    ok &= len(branch.points) >= 20
    ok &= max(pt.residual_norm for pt in branch.points) < 1e-10
    eta_worst = 0.0
    for pt in branch.points:
        wave = eu.reconstruct(t0, pt.field)
        eta_worst = max(eta_worst, abs(float(np.mean(wave.eta[:-1]))))
    ok &= eta_worst < 1e-12
    ok &= all(hs.nodal_check(pt.field) for pt in branch.points[:5])

    Q_star = flow.Q
    pts = branch.points[:10]
    amps = np.array([pt.amplitude for pt in pts])
    dq = np.array([abs(pt.Q - Q_star) for pt in pts])
    slope = np.polyfit(np.log(dq), np.log(amps), 1)[0]
    ok &= abs(slope - 0.5) <= 0.1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(7, f"laminar residual, quadratic Newton tail, 20-step branch "
               f"(eta mean {eta_worst:.1e}, amplitude exponent "
               f"{slope:.3f}, {elapsed:.1f} s)", ok)


def test_criterion_8_eulerian_verification(t0):
    a_target = 0.06
    results = {}
    u_ok = True
    for N in (32, 64, 128):
        grid = pr.PGrid(-1.0, N)
        lam_star = sp.find_lambda_star(t0, grid)
        flow = lm.solve_laminar(t0, lam_star, grid)
        mode = sp.shoot_mode(flow, t0, 1)
        eps = a_target / mode.M[-1]
        germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), eps, N)
        sol = hs.newton(t0, germ, frozen="amplitude",
                        amplitude_target=a_target)
        wave = eu.reconstruct(t0, sol)
        u_ok &= bool(np.max(wave.u) < t0.c)
        results[N] = (
            float(np.max(np.abs(eu.flux_all_columns(wave) + 1.0))),
            eu.surface_bernoulli_residual(wave, t0),
            eu.yih_residual(wave, t0))
    orders = []
    for idx in range(3):
        e = [results[N][idx] for N in (32, 64, 128)]
        orders.append(min(np.log2(e[0] / e[1]), np.log2(e[1] / e[2])))
    ok = orders[0] >= 1.8 and orders[1] >= 1.8 and orders[2] >= 1.5 and u_ok
    _report(8, f"flux/Bernoulli/stream-equation residual orders "
               f"{orders[0]:.2f}/{orders[1]:.2f}/{orders[2]:.2f}, u < c", ok)


def test_criterion_9_double_point_branches(double3):
    t0, grid, bp, flow = double3
    N_q = 64
    m1, m2 = bp.modes
    cs = bf.coefficient_set(flow, t0, m1, m2)
    ok = cs.nd1 and cs.nd2 and cs.regular_value
    germs = cli.canonical_germs(bf.predict_branches(cs))
    kinds = sorted((g.kind, g.n) for g in germs)
    ok &= kinds == [("mixed", None), ("mixed", None), ("pure", 1),
                    ("pure", 3)]
    ok &= len({tuple(np.round(g.theta, 10)) for g in germs}) == 4
    controls = hs.ContinuationControls(max_steps=11)
    ratios = []
    for g in germs:
        # mixed branches only detach from the trivial family above the
        # discretization's resonance-splitting scale; seed them there
        eps = 1e-3 if g.kind == "pure" else 4e-3
        fld = hs.germ_field(flow, (m1, m2), g.theta, eps, N_q)
        branch = hs.continue_branch(t0, fld, controls)
        ok &= len(branch.points) >= 10
        ok &= max(pt.residual_norm for pt in branch.points) < 1e-9
        kind_modes = ({1} if (g.kind, g.n) == ("pure", 1)
                      else {3} if (g.kind, g.n) == ("pure", 3)
                      else {1, 3})
        coefs = np.abs(fourier_top(branch.points[0].field))
        inside = min(coefs[n - 1] for n in kind_modes)
        outside = max(c for i, c in enumerate(coefs, start=1)
                      if i not in kind_modes)
        ratios.append(inside / outside)
        ok &= inside / outside >= 5.0
    _report(9, "four distinct germs, 10+ steps each, first-point mode "
               f"dominance ratios {['%.0f' % r for r in ratios]}", ok)


def test_criterion_10_negative_controls(t0, tmp_path):
    grid = pr.PGrid(-1.0, 64)
    flow = lm.solve_laminar(t0, 4.0, grid)
    fld = hs.laminar_field(flow, 32)
    rng = np.random.default_rng(5)
    corrupted = replace(fld, h=np.abs(
        fld.h + 1e-3 * rng.standard_normal(fld.h.shape)))
    import json
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "physics": {"g": 1.0, "c": 1.0, "p0": -1.0, "sigma": 1.0,
                    "rho": {"type": "poly", "coeffs": [1.0]},
                    "beta": {"type": "poly", "coeffs": [0.0]}},
        "numerics": {"N_p": 64, "N_q": 32}}))
    dump = tmp_path / "bad.field"
    dump.write_text(hs.dump_field(corrupted))
    code = cli.main(["verify", "--config", str(cfg_path),
                     "--field", str(dump)])
    ok = code == 3
    good = tmp_path / "good.field"
    good.write_text(hs.dump_field(fld))
    ok &= cli.main(["verify", "--config", str(cfg_path),
                    "--field", str(good)]) == 0

    g0 = make_physics(g=0.0)
    for fn, exc in ((lm.find_lambda0, NoMinimumError),
                    (lm.find_lambda_c, UndefinedQuantityError),
                    (lm.sigma_c, UndefinedQuantityError)):
        try:
            fn(g0, grid)
            ok = False
        except exc:
            pass
    bad_h = np.tile(-(grid.nodes + 1.0), (9, 1))
    bad_field = hs.HeightField(Q=1.0, N_q=8, pgrid=grid, h=bad_h)
    try:
        hs.residual(t0, bad_field)
        ok = False
    except EllipticityLossError:
        pass
    _report(10, "corrupted dump fails verify; g = 0 threshold errors; "
                "h_p <= 0 raises ellipticity loss", ok)
