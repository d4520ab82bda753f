import numpy as np
import pytest
from dataclasses import replace

from conftest import make_physics
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import EllipticityLossError, ShapeError


@pytest.fixture(scope="module")
def simple_point(t0):
    grid = pr.PGrid(-1.0, 64)
    lam_star = sp.find_lambda_star(t0, grid, 1.0)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    return grid, lam_star, flow, mode


def test_laminar_field_residual(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    r = hs.residual(t0, fld, 1.0)
    assert np.max(np.abs(r)) < 1e-10


def test_constant_field_residual_by_hand(t0, grid64):
    # h = p - p0 with T0 data: interior rows vanish identically and the
    # top row is 1 + 1 * (2 g rho0 * 1 - Q) = 3 - Q at every node
    h = np.tile(grid64.nodes + 1.0, (33, 1))
    fld = hs.HeightField(Q=2.2, N_q=32, pgrid=grid64, h=h)
    r = hs.residual(t0, fld, 1.0)
    assert np.max(np.abs(r[:, 1:-1])) < 1e-12
    assert np.allclose(r[:, -1], 3.0 - 2.2, atol=1e-12)
    assert np.allclose(r[:, 0], 0.0)


def test_germ_residual_quadratic_in_eps(t0):
    grid = pr.PGrid(-1.0, 128)
    lam_star = sp.find_lambda_star(t0, grid, 1.0)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    sups = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        fld = hs.germ_field(flow, (mode, mode), (1.0, 0.0), eps, 128)
        sups.append(np.max(np.abs(hs.residual(t0, fld, 1.0))))
    fit = np.polyfit(np.log(eps_list), np.log(sups), 1)[0]
    assert 1.8 <= fit <= 2.2


def test_jacobian_matches_finite_differences(t0):
    grid = pr.PGrid(-1.0, 16)
    flow = lm.solve_laminar(t0, 2.0, grid)
    base = hs.laminar_field(flow, 16)
    q = np.linspace(0, np.pi, 17)
    pert = sum(np.outer(np.cos(k * q), 0.01 * np.sin(k + grid.nodes))
               * np.linspace(0, 1, 17) for k in range(1, 4))
    fld = replace(base, h=base.h + pert)
    jac = hs.jacobian(t0, fld, 1.0)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(fld.h.size)
        step = 1e-6
        f2 = replace(fld, h=fld.h + step * v.reshape(fld.h.shape))
        f1 = replace(fld, h=fld.h - step * v.reshape(fld.h.shape))
        fd = (hs.residual(t0, f2, 1.0) - hs.residual(t0, f1, 1.0)) \
            .reshape(-1) / (2 * step)
        jv = jac.matvec(v)
        worst = max(worst, np.max(np.abs(fd - jv)) / np.max(np.abs(jv)))
    assert worst < 1e-6


def _jacobian_loop(physics, hf, sigma):
    """Node-by-node assembly of the Jacobian: the reference that
    ``hs.jacobian`` vectorizes, term for term in the same order."""
    hq, hp, hqq, hpp, hpq = hs.derivatives(hf)
    N_q, N_p = hf.N_q, hf.pgrid.N_p
    npp = N_p + 1
    n = (N_q + 1) * npp
    dq, dp = hf.dq, hf.pgrid.h
    kl = ku = npp + 1
    ab = np.zeros((2 * kl + 1, n))
    left, right = hs._q_indices(N_q)

    def flat(iq, ip):
        return iq * npp + ip

    def add(i, j, val):
        ab[ku + i - j, j] += val

    p = hf.pgrid.nodes
    rho_p = physics.rho_p(p)
    beta = physics.beta_at(p)
    g = physics.g
    g_rho0 = g * physics.rho0()
    d = hf.depth()

    for iq in range(N_q + 1):
        ql, qr = left[iq], right[iq]
        for ip in range(1, N_p):
            i = flat(iq, ip)
            c_pp = 1.0 + hq[iq, ip] ** 2
            c_qq = hp[iq, ip] ** 2
            c_q = 2.0 * hq[iq, ip] * hpp[iq, ip] - 2.0 * hp[iq, ip] * hpq[iq, ip]
            c_p = (2.0 * hqq[iq, ip] * hp[iq, ip]
                   - 2.0 * hq[iq, ip] * hpq[iq, ip]
                   - 3.0 * g * (hf.h[iq, ip] - d) * rho_p[ip] * hp[iq, ip] ** 2
                   + 3.0 * hp[iq, ip] ** 2 * beta[ip])
            c_pq = -2.0 * hq[iq, ip] * hp[iq, ip]
            c_0 = -g * rho_p[ip] * hp[iq, ip] ** 3
            add(i, flat(iq, ip - 1), c_pp / dp ** 2)
            add(i, i, -2.0 * c_pp / dp ** 2)
            add(i, flat(iq, ip + 1), c_pp / dp ** 2)
            add(i, flat(ql, ip), c_qq / dq ** 2)
            add(i, i, -2.0 * c_qq / dq ** 2)
            add(i, flat(qr, ip), c_qq / dq ** 2)
            add(i, flat(qr, ip), c_q / (2.0 * dq))
            add(i, flat(ql, ip), -c_q / (2.0 * dq))
            add(i, flat(iq, ip + 1), c_p / (2.0 * dp))
            add(i, flat(iq, ip - 1), -c_p / (2.0 * dp))
            add(i, flat(qr, ip + 1), c_pq / (4.0 * dq * dp))
            add(i, flat(qr, ip - 1), -c_pq / (4.0 * dq * dp))
            add(i, flat(ql, ip + 1), -c_pq / (4.0 * dq * dp))
            add(i, flat(ql, ip - 1), c_pq / (4.0 * dq * dp))
            add(i, i, c_0)
        i0 = flat(iq, 0)
        add(i0, i0, 1.0)
        it = flat(iq, N_p)
        hq_t, hqq_t, hp_t = hq[iq, -1], hqq[iq, -1], hp[iq, -1]
        slope = 1.0 + hq_t ** 2
        kappa = -hqq_t / slope ** 1.5
        c_q = (2.0 * hq_t
               + hp_t ** 2 * 2.0 * sigma * 3.0 * hqq_t * hq_t / slope ** 2.5)
        c_qq = -hp_t ** 2 * 2.0 * sigma / slope ** 1.5
        c_p = 2.0 * hp_t * (2.0 * sigma * kappa + 2.0 * g_rho0 * hf.h[iq, -1]
                            - hf.Q)
        c_0 = hp_t ** 2 * 2.0 * g_rho0
        add(it, flat(qr, N_p), c_q / (2.0 * dq) + c_qq / dq ** 2)
        add(it, flat(ql, N_p), -c_q / (2.0 * dq) + c_qq / dq ** 2)
        add(it, it, -2.0 * c_qq / dq ** 2)
        add(it, it, c_p * 3.0 / (2.0 * dp) + c_0)
        add(it, flat(iq, N_p - 1), -c_p * 4.0 / (2.0 * dp))
        add(it, flat(iq, N_p - 2), c_p * 1.0 / (2.0 * dp))

    u = np.zeros(n)
    for iq in range(N_q + 1):
        for ip in range(1, N_p):
            u[flat(iq, ip)] = g * rho_p[ip] * hp[iq, ip] ** 3
    w = hs.mean_weights(N_q)
    v = np.zeros(n)
    q_col = np.zeros(n)
    for iq in range(N_q + 1):
        v[flat(iq, N_p)] = w[iq]
        q_col[flat(iq, N_p)] = -hp[iq, -1] ** 2
    return hs.JacobianRecord(ab=ab, bandwidth=kl, u=u, v=v, q_col=q_col,
                             shape=(n, n))


def _three_mode_perturbation(grid, N_q):
    # test_jacobian_matches_finite_differences' perturbation, ramped in p
    q = np.linspace(0, np.pi, N_q + 1)
    return sum(np.outer(np.cos(k * q), 0.01 * np.sin(k + grid.nodes))
               * np.linspace(0, 1, grid.N_p + 1) for k in range(1, 4))


def _stratified_field():
    # rho_p, beta and the depth coupling u all non-zero, N_q != N_p
    phys = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1),
                        beta_coeffs=(0.0, 0.2))
    grid = pr.PGrid(-1.0, 20)
    base = hs.laminar_field(lm.solve_laminar(phys, 5.0, grid), 12)
    return phys, replace(base, h=base.h + _three_mode_perturbation(grid, 12))


def _jacobian_cases(t0):
    # a germ at the simple point; the same germ with noise and Q shifted;
    # a stratified, beta != 0 field on a non-square grid
    grid = pr.PGrid(-1.0, 32)
    lam_star = sp.find_lambda_star(t0, grid, 1.0)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-2, 16)
    noise = 1e-4 * np.random.default_rng(3).standard_normal(germ.h.shape)
    noise[:, 0] = 0.0
    noisy = replace(germ, h=germ.h + noise, Q=germ.Q + 0.05)
    phys, strat = _stratified_field()
    return [(t0, germ, 1.0), (t0, noisy, 1.0), (phys, strat, 10.0)]


def test_jacobian_matches_loop_reference(t0):
    # the vectorized coefficients round like the loop's up to the last bit
    # of a power; every band entry sums the same terms in the same order
    eps = np.finfo(np.float64).eps
    for physics, fld, sigma in _jacobian_cases(t0):
        ref = _jacobian_loop(physics, fld, sigma)
        jac = hs.jacobian(physics, fld, sigma)
        assert jac.bandwidth == ref.bandwidth and jac.shape == ref.shape
        for name in ("ab", "u", "q_col"):
            got, want = getattr(jac, name), getattr(ref, name)
            assert got.shape == want.shape
            assert (np.max(np.abs(got - want))
                    <= 8 * eps * np.max(np.abs(want))), name
        assert np.array_equal(jac.v, ref.v)


def test_jacobian_matches_finite_differences_stratified():
    phys, fld = _stratified_field()
    jac = hs.jacobian(phys, fld, 10.0)
    assert np.max(np.abs(jac.u)) > 0
    n = jac.shape[0]
    kl = ku = jac.bandwidth
    dense = np.outer(jac.u, jac.v)
    for j in range(n):
        for i in range(max(0, j - ku), min(n, j + kl + 1)):
            dense[i, j] += jac.ab[ku + i - j, j]
    step = 1e-6
    worst = 0.0
    for j in range(n):
        e = np.zeros(fld.h.shape)
        e.flat[j] = step
        fd = (hs.residual(phys, replace(fld, h=fld.h + e), 10.0)
              - hs.residual(phys, replace(fld, h=fld.h - e), 10.0)) \
            .reshape(-1) / (2 * step)
        worst = max(worst, np.max(np.abs(fd - dense[:, j])))
    assert worst < 1e-6 * np.max(np.abs(dense))


def test_jacobian_q_column(t0):
    grid = pr.PGrid(-1.0, 16)
    flow = lm.solve_laminar(t0, 2.0, grid)
    fld = hs.laminar_field(flow, 16)
    jac = hs.jacobian(t0, fld, 1.0)
    step = 1e-7
    f2 = replace(fld, Q=fld.Q + step)
    fd = (hs.residual(t0, f2, 1.0) - hs.residual(t0, fld, 1.0)) \
        .reshape(-1) / step
    assert np.max(np.abs(fd - jac.q_col)) < 1e-6


def test_rank_one_depth_coupling(t0):
    # raising the whole top row shifts d(h); the rank-one term must track
    # the response of the stratification column exactly
    phys = make_physics(rho_coeffs=(1.0, -0.1), sigma=1.0)
    grid = pr.PGrid(-1.0, 16)
    flow = lm.solve_laminar(phys, 5.0, grid)
    fld = hs.laminar_field(flow, 16)
    jac = hs.jacobian(phys, fld, 1.0)
    v = np.zeros(fld.h.size)
    npp = grid.N_p + 1
    for iq in range(17):
        v[iq * npp + grid.N_p] = 1.0      # constant top perturbation
    step = 1e-7
    f2 = replace(fld, h=fld.h + step * v.reshape(fld.h.shape))
    f1 = replace(fld, h=fld.h - step * v.reshape(fld.h.shape))
    fd = (hs.residual(phys, f2, 1.0) - hs.residual(phys, f1, 1.0)) \
        .reshape(-1) / (2 * step)
    assert np.max(np.abs(fd - jac.matvec(v))) < 1e-6
    assert np.max(np.abs(jac.u)) > 0      # coupling present when rho_p != 0


def test_fourier_block_singular_at_lambda_star(t0, simple_point):
    grid, lam_star, flow, mode = simple_point

    def block_det_sign(lam):
        fl = lm.solve_laminar(t0, lam, grid)
        return hs.fourier_block_dispersion(t0, fl, 1.0, 1, 64)

    assert block_det_sign(lam_star - 0.01) * block_det_sign(lam_star + 0.01) < 0
    lam_disc = hs.discrete_lambda_star(t0, grid, 1.0, 64)
    assert abs(lam_disc - lam_star) < 5e-4
    # the block matrix is singular exactly at the discrete root
    fl = lm.solve_laminar(t0, lam_disc, grid)
    B = hs.fourier_block_matrix(t0, fl, 1.0, 1, 64)
    s = np.linalg.svd(B, compute_uv=False)
    assert s[-1] / s[0] < 1e-10


def test_newton_accepts_root_without_iterating(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    out, hist = hs.newton(t0, fld, 1.0, frozen="Q", return_history=True)
    assert len(hist) == 1                # zero iterations
    assert np.array_equal(out.h, fld.h)


def test_newton_converges_from_germ(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol, hist = hs.newton(t0, germ, 1.0, frozen="amplitude",
                          return_history=True)
    assert len(hist) - 1 <= 6
    assert sol.residual_norm < 1e-10
    # quadratic tail: ||r_{k+1}|| / ||r_k||^2 bounded on steps above the
    # rounding floor (below ~1e-8 the squared prediction is sub-eps)
    ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)
              if hist[k] > 1e-8]
    assert ratios and all(r < 1e6 for r in ratios)


def test_ellipticity_guard(t0, grid64):
    h = np.tile(-(grid64.nodes + 1.0), (17, 1))     # h_p < 0 everywhere
    fld = hs.HeightField(Q=1.0, N_q=16, pgrid=grid64, h=h)
    with pytest.raises(EllipticityLossError):
        hs.residual(t0, fld, 1.0)
    with pytest.raises(EllipticityLossError):
        hs.newton(t0, fld, 1.0)


def test_continuation_simple_branch(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ, 1.0,
                                hs.ContinuationControls(max_steps=8))
    assert branch.termination == "MaxSteps"
    assert len(branch.points) == 8
    amps = [pt.amplitude for pt in branch.points]
    assert np.all(np.diff(amps) > 0)
    assert max(pt.residual_norm for pt in branch.points) < 1e-10
    # monitors are finite and sensible
    for pt in branch.points:
        M1, M2, M3, M4, M5, M6 = pt.monitors
        assert M1 >= M2 > 0
        assert np.isfinite(M3) and np.isfinite(M4)
        assert M5 == pt.Q and M6 == pt.amplitude


def test_step_halving_reproduces_curve(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    coarse = hs.continue_branch(
        t0, germ, 1.0, hs.ContinuationControls(max_steps=9, ds_max=0.02))
    fine = hs.continue_branch(
        t0, germ, 1.0, hs.ContinuationControls(max_steps=17, ds_max=0.01))
    from scipy.interpolate import CubicSpline

    qc = np.array([p.Q for p in coarse.points])
    ac = np.array([p.amplitude for p in coarse.points])
    qf = np.array([p.Q for p in fine.points])
    af = np.array([p.amplitude for p in fine.points])
    sel = ac <= min(ac[-1], af[-1])
    interp = CubicSpline(af, qf)(ac[sel])
    assert np.max(np.abs(interp - qc[sel])) < 1e-6


def test_corrector_tests_its_last_step(t0, simple_point):
    # every corrector here converges in two Newton steps, so a budget of two
    # steps must reproduce the default run point for point
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    default = hs.continue_branch(t0, germ, 1.0,
                                 hs.ContinuationControls(max_steps=6))
    tight = hs.continue_branch(
        t0, germ, 1.0, hs.ContinuationControls(max_steps=6, newton_max_iter=2))
    assert tight.termination == default.termination == "MaxSteps"
    assert ([(p.Q, p.amplitude, p.step) for p in tight.points]
            == [(p.Q, p.amplitude, p.step) for p in default.points])


def test_termination_thresholds(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(
        t0, germ, 1.0,
        hs.ContinuationControls(max_steps=6, delta_stop=1e3))
    # max h_p ~ 1/sqrt(lam) already exceeds 1/delta_stop = 1e-3: the
    # stagnation monitor fires at the first recorded point
    assert branch.termination == "StagnationApproach"
    assert len(branch.points) == 1
    # with sane thresholds the same run just exhausts its budget
    ok = hs.continue_branch(t0, germ, 1.0,
                            hs.ContinuationControls(max_steps=3))
    assert ok.termination == "MaxSteps"


def test_nodal_check(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    assert hs.nodal_check(fld, 1)        # flat profile: degenerate-true
    q = np.linspace(0.0, np.pi, 65)
    bad = fld.h.copy()
    bad[:, -1] += 0.01 * (np.cos(q) + 0.5 * np.cos(2 * q))
    assert not hs.nodal_check(replace(fld, h=bad), 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol = hs.newton(t0, germ, 1.0, frozen="amplitude")
    assert hs.nodal_check(sol, 1)


def test_depth_is_period_mean(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-2, 64)
    w = hs.mean_weights(64)
    assert germ.depth() == pytest.approx(float(w @ germ.top), abs=1e-15)
    # the cosine germ leaves the mean of the top trace unchanged
    assert germ.depth() == pytest.approx(flow.H[-1], abs=1e-14)


def test_solution_refinement_order(t0):
    # one fixed small-amplitude solution, three grids
    tops = {}
    for N in (32, 64, 128):
        grid = pr.PGrid(-1.0, N)
        lam_star = sp.find_lambda_star(t0, grid, 1.0)
        flow = lm.solve_laminar(t0, lam_star, grid)
        mode = sp.shoot_mode(flow, t0, 1)
        eps = 0.05 / mode.M[-1]
        germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), eps, N)
        sol = hs.newton(t0, germ, 1.0, frozen="amplitude",
                        amplitude_target=0.05)
        tops[N] = sol.top[:: N // 32]
    e1 = np.max(np.abs(tops[64] - tops[32]))
    e2 = np.max(np.abs(tops[128] - tops[64]))
    assert np.log2(e1 / e2) >= 1.8


def test_dump_load_roundtrip(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol = hs.newton(t0, germ, 1.0, frozen="amplitude")
    text = hs.dump_field(sol)
    back = hs.load_field(text)
    assert back.Q == sol.Q
    assert np.array_equal(back.h, sol.h)
    r0 = np.max(np.abs(hs.residual(t0, sol, 1.0)))
    r1 = np.max(np.abs(hs.residual(t0, back, 1.0)))
    assert abs(r0 - r1) < 1e-14


# a header without p0 and Q; a body token that is no number; a nan entry
@pytest.mark.parametrize("line, start, stop, new",
                         [(0, 4, 6, []), (1, 3, 4, ["0.5x"]),
                          (2, 5, 6, ["nan"])],
                         ids=["short-header", "bad-token", "nan-value"])
def test_load_field_rejects_malformed(t0, line, start, stop, new):
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 16))
    lines = hs.dump_field(hs.laminar_field(flow, 16)).split("\n")
    hs.load_field("\n".join(lines))
    tokens = lines[line].split(" ")
    tokens[start:stop] = new
    lines[line] = " ".join(tokens)
    with pytest.raises(ShapeError):
        hs.load_field("\n".join(lines))


def test_field_shape_validation(grid64):
    with pytest.raises(ShapeError):
        hs.HeightField(Q=1.0, N_q=16, pgrid=grid64, h=np.zeros((5, 5)))


def test_branch_csv_and_svg(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ, 1.0,
                                hs.ContinuationControls(max_steps=4))
    csv = hs.branch_csv(branch)
    assert csv.splitlines()[0] == "s,Q,amplitude,M1,M2,M3,M4,M5,M6,residual,step"
    assert len(csv.strip().splitlines()) == len(branch.points) + 1
    svg = hs.branch_svg([branch])
    assert svg.startswith("<svg") and "polyline" in svg


def test_simple_branch_mode1_dominates_near_onset(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ, 1.0,
                                hs.ContinuationControls(max_steps=5))
    q = np.linspace(0.0, np.pi, 65)
    w = np.full(65, np.pi / 64)
    w[0] *= 0.5
    w[-1] *= 0.5
    for pt in branch.points[:5]:
        coefs = np.array([2 / np.pi * np.sum(w * pt.field.top * np.cos(n * q))
                          for n in range(1, 9)])
        assert abs(coefs[0]) >= 10.0 * np.max(np.abs(coefs[1:]))
