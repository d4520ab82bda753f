from dataclasses import replace

import numpy as np
import pytest

from conftest import at_sigma, make_physics, sigma_for_root
from stratiwave import bifurc as bf
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.profiles import simpson_weights


def _oracle_roots_loop(coeffs, side, dedup_tol=bf.ROOT_DEDUP_TOL):
    """The start-by-start multi-start Newton of ``bifurc.oracle_roots`` as
    it stood before the batched iteration; the reference it must match."""
    mags = [np.sqrt(abs(psi / theta)) if theta != 0.0 else 0.0
            for psi, theta in ((coeffs.psi11, coeffs.theta1111),
                               (coeffs.psi22, coeffs.theta2222))]
    box = 3.0 * max(mags) or 3.0          # also the deduplication scale
    # an axis without a pure root falls back to the larger box
    starts1, starts2 = [np.linspace(-half, half, 21)
                        for half in (3.0 * m or box for m in mags)]
    roots = []
    for s1 in starts1:
        for s2 in starts2:
            th = np.array([s1, s2])
            for _ in range(60):
                r = bf._reduced_residual(coeffs, side, th)
                if np.max(np.abs(r)) < 1e-13 * max(1.0, abs(coeffs.psi11)):
                    break
                J = bf._reduced_jacobian(coeffs, side, th)
                try:
                    step = np.linalg.solve(J, -r)
                except np.linalg.LinAlgError:
                    break
                if not np.all(np.isfinite(step)):
                    break
                th = th + step
            else:
                continue
            if not np.all(np.isfinite(th)):
                continue
            if np.max(np.abs(bf._reduced_residual(coeffs, side, th))) \
                    > 1e-10 * max(1.0, abs(coeffs.psi11)):
                continue
            if np.hypot(*th) < dedup_tol * max(1.0, box):
                continue                       # trivial root
            for known in roots:
                if np.hypot(th[0] - known[0], th[1] - known[1]) \
                        < dedup_tol * max(1.0, box):
                    break
            else:
                roots.append((float(th[0]), float(th[1])))
    return sorted(roots)


# --- independent projection probe (analytic fields, no stencils) ----------

def project_operator(physics, flow, sigma, modes, coefs, test_mode, Q=None,
                     N_q=96):
    """(phi_i, G(Q, H + sum_k c_k M_k cos(n_k q)))_Y by exact node algebra.

    All derivative fields are assembled from the flow and mode samples
    (no finite differences), the q-integrals use the trapezoid rule (exact
    for the trigonometric polynomials involved), and the p-integrals use
    composite Simpson.
    """
    grid = flow.grid
    p = grid.nodes
    q = np.linspace(0.0, np.pi, N_q + 1)
    wq = np.full(N_q + 1, np.pi / N_q)
    wq[0] *= 0.5
    wq[-1] *= 0.5
    wp = simpson_weights(grid.N_p, grid.h)
    if Q is None:
        Q = flow.Q
    H, Hp = flow.H, flow.Hp
    Hpp = flow.Hpp(physics)
    h = np.tile(H, (N_q + 1, 1))
    hp = np.tile(Hp, (N_q + 1, 1))
    hpp = np.tile(Hpp, (N_q + 1, 1))
    hq = np.zeros_like(h)
    hqq = np.zeros_like(h)
    hpq = np.zeros_like(h)
    for c, mode in zip(coefs, modes):
        cn, sn = np.cos(mode.n * q), np.sin(mode.n * q)
        h += c * np.outer(cn, mode.M)
        hp += c * np.outer(cn, mode.Mp)
        hpp += c * np.outer(cn, mode.Mpp)
        hq += -c * mode.n * np.outer(sn, mode.M)
        hqq += -c * mode.n ** 2 * np.outer(cn, mode.M)
        hpq += -c * mode.n * np.outer(sn, mode.Mp)
    d = float((wq / np.pi) @ h[:, -1])
    rho_p = physics.rho_p(p)[None, :]
    beta = physics.beta_at(p)[None, :]
    g = physics.g
    G1 = ((1 + hq ** 2) * hpp + hqq * hp ** 2 - 2 * hq * hp * hpq
          - g * (h - d) * rho_p * hp ** 3 + hp ** 3 * beta)
    kap = -hqq[:, -1] / (1 + hq[:, -1] ** 2) ** 1.5
    G2 = (1 + hq[:, -1] ** 2
          + hp[:, -1] ** 2 * (2 * sigma * kap
                              + 2 * g * physics.rho0() * h[:, -1] - Q))
    a = flow.a
    phi = np.outer(np.cos(test_mode.n * q), test_mode.M)
    # full period = twice the half-period integral of even integrands
    interior = 2.0 * np.einsum("qp,q,p->", phi * G1, wq, wp * a ** 3)
    top = 2.0 * 0.5 * a[-1] ** 2 * float(
        (wq * phi[:, -1]) @ G2)
    return interior + top


def closed_psi(n, lam, p0=-1.0):
    th0 = n * abs(p0) / np.sqrt(lam)
    return np.pi * (-(n * n * abs(p0)) / (2 * np.sqrt(lam))
                    - (n / 2.0) * np.sinh(2 * th0))


def closed_theta_diag(n, lam, sigma, p0=-1.0):
    th0 = n * abs(p0) / np.sqrt(lam)
    return np.pi * (n ** 3 * lam * (th0 / 4 + np.sinh(2 * th0) / 8
                                    + np.sinh(4 * th0) / 16)
                    - (3.0 / 8.0) * sigma * n ** 4 * np.sinh(th0) ** 4)


def closed_theta_cross_total(ni, nj, lam, sigma, p0=-1.0):
    """Coefficient of th_i th_j^2 (three symmetric entries summed)."""
    P = abs(p0)
    sq = np.sqrt(lam)
    T = P / sq
    th_i, th_j = ni * T, nj * T
    si, ci = np.sinh(th_i), np.cosh(th_i)
    sj, cj = np.sinh(th_j), np.cosh(th_j)
    term1 = (ni * ni * nj * nj * lam * T / 12.0
             - ni * nj * nj * lam * np.sinh(2 * th_i) / 24.0)
    Ax = 0.125 * (np.sinh(2 * (ni + nj) * T) / (2 * (ni + nj))
                  - np.sinh(2 * (ni - nj) * T) / (2 * (ni - nj)))
    term2 = -(2.0 / 3.0) * ni * nj ** 3 * lam * Ax
    term3 = 0.5 * ni * nj * nj * lam * si * ci * cj ** 2
    term4 = -0.25 * sigma * ni * ni * nj * nj * si ** 2 * sj ** 2
    return 3.0 * np.pi * (term1 + term2 + term3 + term4)


@pytest.mark.parametrize("lam", [0.8, 1.0, 1.3])
def test_psi_matches_closed_form(t0, grid128, lam):
    sigma = sigma_for_root(1, lam)
    flow = lm.solve_laminar(t0, lam, grid128)
    mode = sp.shoot_mode(flow, t0, 1, normalization="sinh")
    psi = bf.compute_Psi(flow, at_sigma(t0, sigma), mode)
    assert abs(psi / closed_psi(1, lam) - 1.0) < 1e-6


@pytest.mark.parametrize("lam", [0.8, 1.0, 1.3])
def test_theta_diag_matches_closed_form(t0, grid128, lam):
    sigma = sigma_for_root(1, lam)
    flow = lm.solve_laminar(t0, lam, grid128)
    mode = sp.shoot_mode(flow, t0, 1, normalization="sinh")
    theta = bf.compute_Theta(flow, at_sigma(t0, sigma), mode, mode)
    assert abs(theta / closed_theta_diag(1, lam, sigma) - 1.0) < 1e-6


def test_theta_cross_at_double_points(t0, grid128):
    for n2 in (2, 3):
        sigma_d, lam_d = sp.find_double_sigma(t0, grid128, n2)
        flow = lm.solve_laminar(t0, lam_d, grid128)
        m1 = sp.shoot_mode(flow, t0, 1, normalization="sinh")
        m2 = sp.shoot_mode(flow, t0, n2, normalization="sinh")
        phys = replace(t0, sigma=sigma_d)
        th12 = bf.compute_Theta(flow, phys, m1, m2)
        th21 = bf.compute_Theta(flow, phys, m2, m1)
        assert abs(th12 / closed_theta_cross_total(1, n2, lam_d, sigma_d)
                   - 1.0) < 1e-6
        assert abs(th21 / closed_theta_cross_total(n2, 1, lam_d, sigma_d)
                   - 1.0) < 1e-6


def test_psi_offdiagonal_zero(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    assert bf.compute_Psi(flow, t0, m1, m2) == 0.0


def test_odd_parity_theta_entries_vanish(t0, grid64):
    # away from quadratic/cubic resonances the parity integrals kill these
    sigma_d, lam_d = sp.find_double_sigma(t0, grid64, 2)
    flow = lm.solve_laminar(t0, lam_d, grid64)
    m1 = sp.shoot_mode(flow, t0, 1)
    m2 = sp.shoot_mode(flow, t0, 2)
    phys = replace(t0, sigma=sigma_d)
    assert bf.theta_entry(flow, phys, m1, (m1, m1, m2)) == 0.0
    assert bf.theta_entry(flow, phys, m2, (m2, m2, m1)) == 0.0
    assert bf.theta_entry(flow, phys, m1, (m2, m2, m2)) == 0.0


def test_cubic_resonance_entries_nonzero(double3):
    # n2 = 3 n1: cos^3(q) feeds cos(3q), so these entries survive
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    assert abs(bf.theta_entry(flow, t0, m2, (m1, m1, m1))) > 1e-3
    assert abs(bf.theta_entry(flow, t0, m1, (m1, m1, m2))) > 1e-3


def test_phi_zero_off_resonance(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    assert bf.compute_Phi(flow, t0, m1, m2) == (0.0, 0.0, 0.0)


def test_phi_fd_probe_at_double2(t0, grid128):
    """Quadratic Taylor coefficients of the projected operator equal the
    quadrature values at an n2 = 2 double point."""
    sigma_d, lam_d = sp.find_double_sigma(t0, grid128, 2)
    flow = lm.solve_laminar(t0, lam_d, grid128)
    m1 = sp.shoot_mode(flow, t0, 1)
    m2 = sp.shoot_mode(flow, t0, 2)
    phi112, phi121, phi211 = bf.compute_Phi(
        flow, replace(t0, sigma=sigma_d), m1, m2)
    assert phi112 == phi121
    assert abs(phi112) > 1e-3 and abs(phi211) > 1e-3
    ts = 1e-4

    def f(i, c1, c2):
        test = (m1, m2)[i]
        return project_operator(t0, flow, sigma_d, (m1, m2), (c1, c2), test)

    # d^2 f_2 / dt1^2 = 2 x (t1^2 Taylor coefficient)
    probe211 = (f(1, ts, 0) + f(1, -ts, 0) - 2 * f(1, 0, 0)) / ts ** 2
    # d^2 f_1 / dt1 dt2 = the t1 t2 coefficient = 2 phi112
    probe112 = (f(0, ts, ts) - f(0, ts, -ts) - f(0, -ts, ts)
                + f(0, -ts, -ts)) / (4 * ts ** 2)
    assert abs(probe211 / (2 * phi211) - 1.0) < 1e-4
    assert abs(probe112 / (2 * phi112) - 1.0) < 1e-4


def test_psi_fd_probe_stratified():
    """The lambda-mixed Taylor coefficient equals the Psi quadrature for a
    genuinely stratified, rotational configuration."""
    phys = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1),
                        beta_coeffs=(0.2,))
    grid = pr.PGrid(-1.0, 128)
    lam = sp.find_lambda_star(phys, grid)
    flow = lm.solve_laminar(phys, lam, grid)
    mode = sp.shoot_mode(flow, phys, 1)
    psi = bf.compute_Psi(flow, phys, mode)
    dl, dt = 1e-4, 1e-4

    def f(lmb, t):
        fl = lm.solve_laminar(phys, lmb, grid)
        return project_operator(phys, fl, phys.sigma, (mode,), (t,), mode,
                                Q=fl.Q)

    probe = (f(lam + dl, dt) - f(lam + dl, -dt)
             - f(lam - dl, dt) + f(lam - dl, -dt)) / (4 * dl * dt)
    assert abs(probe / psi - 1.0) < 1e-4


def test_theta_fd_probe_stratified():
    phys = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1),
                        beta_coeffs=(0.2,))
    grid = pr.PGrid(-1.0, 128)
    lam = sp.find_lambda_star(phys, grid)
    flow = lm.solve_laminar(phys, lam, grid)
    mode = sp.shoot_mode(flow, phys, 1)
    theta = bf.compute_Theta(flow, phys, mode, mode)
    ts = 2e-3

    def f(t):
        return project_operator(phys, flow, phys.sigma, (mode,), (t,), mode)

    odd = lambda k: (f(k * ts) - f(-k * ts)) / 2.0
    probe = (odd(2) - 2 * odd(1)) / (6 * ts ** 3)
    assert abs(probe / theta - 1.0) < 1e-3


def test_homogeneity_in_mode_normalization(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    t = 1.7
    m1s = sp.EigenMode(n=m1.n, lam=m1.lam, M=t * m1.M, Mp=t * m1.Mp,
                       Mpp=t * m1.Mpp, normalization="scaled")
    psi = bf.compute_Psi(flow, t0, m1)
    psi_s = bf.compute_Psi(flow, t0, m1s)
    assert psi_s == pytest.approx(t ** 2 * psi, rel=1e-13)
    th = bf.compute_Theta(flow, t0, m1, m1)
    th_s = bf.compute_Theta(flow, t0, m1s, m1s)
    assert th_s == pytest.approx(t ** 4 * th, rel=1e-13)


def test_germ_direction_invariant_under_normalization(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    germs = {}
    for norm in ("shooting", "sinh"):
        cs = bf.coefficient_set(flow, t0, m1, m2, normalization=norm)
        g = [g for g in bf.predict_branches(cs)
             if g.kind == "mixed" and g.theta[0] > 0 and g.theta[1] > 0][0]
        mode1 = m1.renormalized(norm)
        mode2 = m2.renormalized(norm)
        germs[norm] = (g.theta[0] * mode1.M[-1], g.theta[1] * mode2.M[-1])
    a, b = germs["shooting"], germs["sinh"]
    # physical tangents agree up to one overall scale
    assert a[0] / b[0] == pytest.approx(a[1] / b[1], rel=1e-8)


def toy_coeffs(theta_cross=(0.0, 0.0), psi=(-1.0, -1.0), diag=(1.0, 1.0),
               phi=(0.0, 0.0), n2=3):
    return bf.CoefficientSet(
        n1=1, n2=n2, psi11=psi[0], psi22=psi[1],
        phi112=phi[0], phi121=phi[0], phi211=phi[1],
        theta1111=diag[0], theta2222=diag[1],
        theta1122=theta_cross[0], theta2211=theta_cross[1],
        normalization="toy").with_flags()


def test_nondegeneracy_flags():
    cs = toy_coeffs()
    assert cs.nd1 and cs.nd2 and cs.regular_value
    equal = toy_coeffs(theta_cross=(1.0, 1.0))
    assert not equal.nd2
    n2_2 = bf.CoefficientSet(
        n1=1, n2=2, psi11=-1, psi22=-1, phi112=0.5, phi121=0.5, phi211=0.5,
        theta1111=1, theta2222=1, theta1122=0, theta2211=0,
        normalization="toy").with_flags()
    assert not n2_2.nd1


def test_predict_branches_toy_decoupled():
    cs = toy_coeffs()
    germs = bf.predict_branches(cs)
    assert len(germs) == 8
    assert all(g.side == "plus" for g in germs)
    thetas = sorted(tuple(np.round(g.theta, 10)) for g in germs)
    expect = sorted([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0),
                     (1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
    assert thetas == expect


def test_predict_branches_mixed_suppressed():
    # cross terms chosen so A^{-1}(1, 1) has a negative component on both
    # sides: only the four pure pitchfork germs remain
    cs = toy_coeffs(theta_cross=(-3.0, 2.0))
    germs = bf.predict_branches(cs)
    assert len(germs) == 4
    assert all(g.kind == "pure" for g in germs)
    roots = bf.oracle_roots(cs, "plus")
    pred = [g.theta for g in germs if g.side == "plus"]
    assert len(roots) == len(pred)
    for r in roots:
        assert min(np.hypot(r[0] - p[0], r[1] - p[1]) for p in pred) < 1e-8


def test_oracle_matches_predictions_toy():
    cs = toy_coeffs()
    roots = bf.oracle_roots(cs, "plus")
    assert len(roots) == 8
    assert bf.oracle_roots(cs, "minus") == []


def test_oracle_matches_predictions_computed(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    cs = bf.coefficient_set(flow, t0, m1, m2)
    assert cs.nd1 and cs.nd2 and cs.regular_value
    germs = bf.predict_branches(cs)
    assert len(germs) == 8
    for side in ("plus", "minus"):
        pred = sorted(tuple(g.theta) for g in germs if g.side == side)
        roots = bf.oracle_roots(cs, side)
        assert len(roots) == len(pred)
        for r in roots:
            assert min(np.hypot(r[0] - p[0], r[1] - p[1])
                       for p in pred) < 1e-7


def _randomized_sets():
    """50 random cubic coefficient sets with nondegenerate mixed roots."""
    rng = np.random.default_rng(20260808)
    done = 0
    while done < 50:
        psi = -rng.uniform(0.2, 3.0, size=2)
        diag = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1, 1], size=2)
        cross = rng.uniform(-2.0, 2.0, size=2)
        cs = toy_coeffs(theta_cross=tuple(cross), psi=tuple(psi),
                        diag=tuple(diag))
        if not (cs.nd2 and cs.regular_value):
            continue
        det = cs.theta1111 * cs.theta2222 - cs.theta1122 * cs.theta2211
        if abs(det) < 1e-2:
            continue
        yield cs
        done += 1


def test_oracle_matches_predictions_randomized():
    for cs in _randomized_sets():
        germs = bf.predict_branches(cs)
        for side in ("plus", "minus"):
            pred = sorted(tuple(g.theta) for g in germs if g.side == side)
            roots = bf.oracle_roots(cs, side)
            assert len(roots) == len(pred), (cs, side)
            for r in roots:
                assert min(np.hypot(r[0] - p[0], r[1] - p[1])
                           for p in pred) < 1e-7


def _double4_coeffs():
    # the constant-density Double(4) coefficients (N_p = 512)
    return bf.CoefficientSet(
        n1=1, n2=4, psi11=-7.2271, psi22=-784.99,
        phi112=0.0, phi121=0.0, phi211=0.0,
        theta1111=6.3114, theta2222=162405.7,
        theta1122=3133.6, theta2211=1525.3, normalization="hand-built")


def _degenerate_coeffs(psi, diag):
    # psi11 = 0: Newton converges only linearly in th1, and every start
    # with th1 = 0 has a singular Jacobian
    return bf.CoefficientSet(
        n1=1, n2=3, psi11=0.0, psi22=psi, phi112=0.0, phi121=0.0,
        phi211=0.0, theta1111=diag[0], theta2222=diag[1], theta1122=0.0,
        theta2211=0.0, normalization="hand-built")


def _ties_by_th2(roots, tol=1e-12):
    """Sorted roots with each run of th1 values equal within tol ordered
    by th2.  A th1 that is zero comes out as rounding noise of either
    sign, so roots on the th2 axis may trade places in the sort."""
    runs = []
    for r in roots:
        if runs and abs(r[0] - runs[-1][-1][0]) <= tol:
            runs[-1].append(r)
        else:
            runs.append([r])
    return [r for run in runs for r in sorted(run, key=lambda r: r[1])]


def test_oracle_matches_loop_reference(double3):
    t0, grid, bp, flow = double3
    m1, m2 = bp.modes
    # the random sets alternate sides, which halves the time the loop
    # takes; the Double(3) and Double(4) sets run on both
    cases = [(cs, ("plus", "minus")[k % 2])
             for k, cs in enumerate(_randomized_sets())]
    cases += [(cs, side) for cs in (
        bf.coefficient_set(flow, t0, m1, m2), _double4_coeffs())
        for side in ("plus", "minus")]
    cases += [
        # the singular starts (0, s2) are kept as roots: th2 psi22 is
        # below the residual filter
        (_degenerate_coeffs(1e-11, (1.0, 0.0)), "plus"),
        # starts with |s1| >= 0.6 use up their 60 iterations on a root
        # the filter would pass; the first kept root depends on it
        (_degenerate_coeffs(-1.0, (3e19, 1.0)), "plus")]
    for cs, side in cases:
        got = _ties_by_th2(bf.oracle_roots(cs, side))
        want = _ties_by_th2(_oracle_roots_loop(cs, side))
        assert len(got) == len(want), (cs, side)
        assert np.all(np.abs(np.subtract(got, want))
                      <= 1e-12 * np.maximum(1.0, np.abs(want))), (cs, side)


def test_oracle_finds_small_mixed_roots_double4():
    # the mixed roots sit at th2 = +-0.040, far inside the pure n1 root
    # at 1.07
    cs = _double4_coeffs()
    germs = bf.predict_branches(cs)
    for side in ("plus", "minus"):
        pred = [g.theta for g in germs if g.side == side]
        roots = bf.oracle_roots(cs, side)
        assert len(roots) == len(pred) == (8 if side == "plus" else 0)
        for r in roots:
            assert min(np.hypot(r[0] - p[0], r[1] - p[1])
                       for p in pred) < 1e-8


def test_predicted_germs_solve_reduced_system():
    rng = np.random.default_rng(7)
    for _ in range(10):
        psi = -rng.uniform(0.2, 3.0, size=2)
        diag = rng.uniform(0.2, 3.0, size=2)
        cs = toy_coeffs(psi=tuple(psi), diag=tuple(diag),
                        theta_cross=(0.3, -0.4))
        for g in bf.predict_branches(cs):
            res = bf._reduced_residual(cs, g.side, g.theta)
            assert np.max(np.abs(res)) < 1e-10


def test_quadratic_case_branches():
    # mixed germs appear only when Phi112 Phi211 > 0
    cs_pos = toy_coeffs(phi=(0.5, 0.4), n2=2)
    germs = bf.predict_branches(cs_pos)
    mixed = [g for g in germs if g.kind == "mixed"]
    pure = [g for g in germs if g.kind == "pure"]
    assert len(mixed) == 4 and len(pure) == 1
    assert all(g.scaling_exponent == 1.0 for g in mixed)
    for g in mixed:
        s = 1.0 if g.side == "plus" else -1.0
        t1, t2 = g.theta
        r1 = s * t1 * cs_pos.psi11 + 2 * t1 * t2 * cs_pos.phi112
        r2 = s * t2 * cs_pos.psi22 + t1 ** 2 * cs_pos.phi211
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12
    cs_neg = toy_coeffs(phi=(0.5, -0.4), n2=2)
    germs = bf.predict_branches(cs_neg)
    assert [g.kind for g in germs] == ["pure"]
    assert germs[0].n == cs_neg.n2


def test_simple_point_coefficients_and_germs(t0, grid64):
    # without a second mode: Psi11 and Theta1111 alone, n2 = 0, every
    # flag false, and the two germs of the n1 pitchfork
    lam = sp.find_lambda_star(t0, grid64)
    flow = lm.solve_laminar(t0, lam, grid64)
    mode = sp.shoot_mode(flow, t0, 1)
    cs = bf.coefficient_set(flow, t0, mode)
    psi = bf.compute_Psi(flow, t0, mode)
    theta = bf.compute_Theta(flow, t0, mode, mode)
    assert (cs.n1, cs.n2, cs.psi11, cs.theta1111) == (1, 0, psi, theta)
    assert cs.psi22 == cs.phi112 == cs.phi121 == cs.phi211 == 0.0
    assert cs.theta2222 == cs.theta1122 == cs.theta2211 == 0.0
    assert not (cs.nd1 or cs.nd2 or cs.regular_value)
    germs = bf.predict_branches(cs)
    mag = np.sqrt(abs(psi / theta))
    assert [g.theta for g in germs] == [(mag, 0.0), (-mag, 0.0)]
    assert all(g.kind == "pure" and g.n == 1 and g.scaling_exponent == 0.5
               and g.side == ("plus" if theta > 0 else "minus")
               for g in germs)
    # a vanishing Theta falls back to |theta| = 1 instead of dividing by 0
    flat = bf.predict_branches(replace(cs, theta1111=0.0))
    assert [(g.side, g.theta) for g in flat] == [("minus", (1.0, 0.0)),
                                                 ("minus", (-1.0, 0.0))]


def _distinct_loop(th1, th2, near):
    """``bifurc._distinct`` as it stood: each candidate checked against the
    roots kept so far, one scalar ``np.hypot`` per pair; the reference."""
    roots = []
    for t1, t2 in zip(th1.tolist(), th2.tolist()):
        for known in roots:
            if np.hypot(t1 - known[0], t2 - known[1]) < near:
                break
        else:
            roots.append((t1, t2))
    return roots


def _random_cubic_sets(count=200):
    """Seeded cubic coefficient sets, degenerate ones included."""
    rng = np.random.default_rng(19)
    for _ in range(count):
        psi = rng.uniform(-3.0, 3.0, size=2)
        diag = rng.uniform(0.05, 3.0, size=2) * rng.choice([-1, 1], size=2)
        yield bf.CoefficientSet(
            n1=1, n2=3, psi11=psi[0], psi22=psi[1], phi112=0.0, phi121=0.0,
            phi211=0.0, theta1111=diag[0], theta2222=diag[1],
            theta1122=rng.uniform(-2.0, 2.0), theta2211=rng.uniform(-2.0, 2.0),
            normalization="hand-built")


def test_oracle_dedup_matches_loop_reference(double3, monkeypatch):
    t0, grid, bp, flow = double3
    sets = [bf.coefficient_set(flow, t0, *bp.modes), _double4_coeffs()]
    sets += list(_random_cubic_sets())
    seen = []
    distinct = bf._distinct

    def recorded(th1, th2, near):
        roots = distinct(th1, th2, near)
        seen.append((th1.copy(), th2.copy(), near, roots))
        return roots

    monkeypatch.setattr(bf, "_distinct", recorded)
    for cs in sets:
        for side in ("plus", "minus"):
            bf.oracle_roots(cs, side)
    assert len(seen) == 2 * len(sets)
    assert max(th1.size for th1, *_ in seen) > 100   # many pairs to check
    for th1, th2, near, roots in seen:
        assert roots == _distinct_loop(th1, th2, near)
        assert all(type(t) is float for root in roots for t in root)


def test_trig_product_integral_memo_matches_expansion():
    unmemoized = bf._trig_product_integral.__wrapped__
    factors = [(("c", 1),), (("c", 2), ("c", 2)), (("s", 3), ("s", 3)),
               (("c", 1), ("c", 1), ("c", 2)), (("c", 1), ("s", 1)),
               (("c", 3), ("c", 1), ("s", 1), ("s", 3)),
               (("c", 4), ("c", 1), ("c", 1), ("c", 4))]
    for f in factors:
        want = unmemoized(f)
        for _ in range(2):              # the expansion, then a hit
            assert bf._trig_product_integral(f) == want
    assert bf._trig_product_integral(factors[1]) == pytest.approx(np.pi)


def _mode_field_ref(mode, deriv):
    """A derivative of M cos(nq) as ``bifurc`` formed it per call, before
    each variation formed its modes' six profiles once."""
    n = mode.n
    return {"0": (mode.M, ("c", n)), "p": (mode.Mp, ("c", n)),
            "pp": (mode.Mpp, ("c", n)), "q": (-n * mode.M, ("s", n)),
            "qq": (-n * n * mode.M, ("c", n)),
            "pq": (-n * mode.Mp, ("s", n))}[deriv]


def _stratified_modes():
    phys = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1),
                        beta_coeffs=(0.0, 0.2))
    grid = pr.PGrid(-1.0, 64)
    lam = sp.find_lambda_star(phys, grid)
    flow = lm.solve_laminar(phys, lam, grid)
    return phys, flow, (sp.shoot_mode(flow, phys, 1),
                        sp.shoot_mode(flow, phys, 2))


def test_mode_fields_match_reference(double3):
    for mode in (*double3[2].modes, *_stratified_modes()[2]):
        fields = bf._mode_fields(mode)
        assert sorted(fields) == sorted(("0", "p", "pp", "q", "qq", "pq"))
        for deriv, (arr, trig) in fields.items():
            want, want_trig = _mode_field_ref(mode, deriv)
            assert np.array_equal(arr, want) and trig == want_trig, deriv


def test_assembler_terms_match_stacked_product(double3, monkeypatch):
    """Every term equals coef * np.prod(stacked profiles, axis=0) bit for
    bit, and each mode's profiles are formed once per variation."""
    t0, _, bp, flow = double3
    cases = [(t0, flow, bp.modes), _stratified_modes()]
    calls = []
    fields = bf._mode_fields
    monkeypatch.setattr(bf, "_mode_fields",
                        lambda mode: calls.append(mode) or fields(mode))
    terms = []
    add_interior, add_top = (bf._FormAssembler.add_interior,
                             bf._FormAssembler.add_top)

    def interior(self, coef, *parts):
        add_interior(self, coef, *parts)
        terms.append(("interior", coef, parts, self.interior[-1]))

    def top(self, coef, *parts):
        add_top(self, coef, *parts)
        terms.append(("top", coef, parts, self.top[-1]))

    monkeypatch.setattr(bf._FormAssembler, "add_interior", interior)
    monkeypatch.setattr(bf._FormAssembler, "add_top", top)
    for phys, fl, (A, B) in cases:
        for modes, variation in (((A, B), bf._second_variation),
                                 ((A, A, B), bf._third_variation),
                                 ((B, B, B), bf._third_variation)):
            calls.clear()
            variation(fl, phys, *modes)
            assert len(calls) == len({id(m) for m in modes})
    assert len(terms) > 100
    for kind, coef, parts, (value, trigs) in terms:
        assert trigs == tuple(trig for _, trig in parts)
        if kind == "interior":
            want = coef * np.prod([arr for arr, _ in parts], axis=0)
        else:
            want = coef
            for arr, _ in parts:
                want = want * arr[-1]
        assert np.array_equal(value, want)


def test_sequential_product_matches_stacked_reduction():
    rng = np.random.default_rng(20)
    for _ in range(500):
        k = rng.integers(2, 4)
        arrs = rng.standard_normal((k, 65)) * 10.0 ** rng.integers(
            -150, 150, size=(k, 1))
        prod = arrs[0]
        for arr in arrs[1:]:
            prod = prod * arr
        assert np.array_equal(prod, np.prod(list(arrs), axis=0))
