import base64

import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_physics
from test_spectral import _smallest_root_scan
from stratiwave import eulerian as eu
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import (EllipticityLossError, NewtonFailureError,
                               ShapeError)


@pytest.fixture(scope="module")
def simple_point(t0):
    grid = pr.PGrid(-1.0, 64)
    lam_star = sp.find_lambda_star(t0, grid)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    return grid, lam_star, flow, mode


def test_laminar_field_residual(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    r = hs.residual(t0, fld)
    assert np.max(np.abs(r)) < 1e-10


def test_constant_field_residual_by_hand(t0, grid64):
    # h = p - p0 with T0 data: interior rows vanish identically and the
    # top row is 1 + 1 * (2 g rho0 * 1 - Q) = 3 - Q at every node
    h = np.tile(grid64.nodes + 1.0, (33, 1))
    fld = hs.HeightField(Q=2.2, N_q=32, pgrid=grid64, h=h)
    r = hs.residual(t0, fld)
    assert np.max(np.abs(r[:, 1:-1])) < 1e-12
    assert np.allclose(r[:, -1], 3.0 - 2.2, atol=1e-12)
    assert np.allclose(r[:, 0], 0.0)


def test_germ_residual_quadratic_in_eps(t0):
    grid = pr.PGrid(-1.0, 128)
    lam_star = sp.find_lambda_star(t0, grid)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    sups = []
    eps_list = (1e-2, 1e-3, 1e-4)
    for eps in eps_list:
        fld = hs.germ_field(flow, (mode, mode), (1.0, 0.0), eps, 128)
        sups.append(np.max(np.abs(hs.residual(t0, fld))))
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
    jac = hs.jacobian(t0, fld)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(fld.h.size)
        step = 1e-6
        f2 = replace(fld, h=fld.h + step * v.reshape(fld.h.shape))
        f1 = replace(fld, h=fld.h - step * v.reshape(fld.h.shape))
        fd = (hs.residual(t0, f2) - hs.residual(t0, f1)) \
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
    lu = np.zeros((2 * kl + ku + 1, n), order="F")
    left, right = hs._q_indices(N_q)

    def flat(iq, ip):
        return iq * npp + ip

    def add(i, j, val):
        lu[kl + ku + i - j, j] += val

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
    return hs.JacobianRecord(lu=lu, bandwidth=kl, u=u, v=v, q_col=q_col,
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
    lam_star = sp.find_lambda_star(t0, grid)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-2, 16)
    noise = 1e-4 * np.random.default_rng(3).standard_normal(germ.h.shape)
    noise[:, 0] = 0.0
    noisy = replace(germ, h=germ.h + noise, Q=germ.Q + 0.05)
    phys, strat = _stratified_field()
    return [(t0, germ), (t0, noisy), (phys, strat)]


def test_jacobian_matches_loop_reference(t0):
    # the vectorized coefficients round like the loop's up to the last bit
    # of a power; every band entry sums the same terms in the same order
    eps = np.finfo(np.float64).eps
    for physics, fld in _jacobian_cases(t0):
        ref = _jacobian_loop(physics, fld, physics.sigma)
        jac = hs.jacobian(physics, fld)
        assert jac.bandwidth == ref.bandwidth and jac.shape == ref.shape
        for name in ("ab", "u", "q_col"):
            got, want = getattr(jac, name), getattr(ref, name)
            assert got.shape == want.shape
            assert (np.max(np.abs(got - want))
                    <= 8 * eps * np.max(np.abs(want))), name
        assert np.array_equal(jac.v, ref.v)


def test_jacobian_matches_finite_differences_stratified():
    phys, fld = _stratified_field()
    jac = hs.jacobian(phys, fld)
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
        fd = (hs.residual(phys, replace(fld, h=fld.h + e))
              - hs.residual(phys, replace(fld, h=fld.h - e))) \
            .reshape(-1) / (2 * step)
        worst = max(worst, np.max(np.abs(fd - dense[:, j])))
    assert worst < 1e-6 * np.max(np.abs(dense))


def test_jacobian_q_column(t0):
    grid = pr.PGrid(-1.0, 16)
    flow = lm.solve_laminar(t0, 2.0, grid)
    fld = hs.laminar_field(flow, 16)
    jac = hs.jacobian(t0, fld)
    step = 1e-7
    f2 = replace(fld, Q=fld.Q + step)
    fd = (hs.residual(t0, f2) - hs.residual(t0, fld)) \
        .reshape(-1) / step
    assert np.max(np.abs(fd - jac.q_col)) < 1e-6


def test_rank_one_depth_coupling(t0):
    # raising the whole top row shifts d(h); the rank-one term must track
    # the response of the stratification column exactly
    phys = make_physics(rho_coeffs=(1.0, -0.1), sigma=1.0)
    grid = pr.PGrid(-1.0, 16)
    flow = lm.solve_laminar(phys, 5.0, grid)
    fld = hs.laminar_field(flow, 16)
    jac = hs.jacobian(phys, fld)
    v = np.zeros(fld.h.size)
    npp = grid.N_p + 1
    for iq in range(17):
        v[iq * npp + grid.N_p] = 1.0      # constant top perturbation
    step = 1e-7
    f2 = replace(fld, h=fld.h + step * v.reshape(fld.h.shape))
    f1 = replace(fld, h=fld.h - step * v.reshape(fld.h.shape))
    fd = (hs.residual(phys, f2) - hs.residual(phys, f1)) \
        .reshape(-1) / (2 * step)
    assert np.max(np.abs(fd - jac.matvec(v))) < 1e-6
    assert np.max(np.abs(jac.u)) > 0      # coupling present when rho_p != 0


def test_bordered_solve_satisfies_both_equations(stratified):
    # J dh + dQ q_col = rhs and row . dh + q_coef dQ = -c, with and
    # without a border, on a stratified field where u, q_col and the
    # border all act
    grid = pr.PGrid(-1.0, 16)
    base = hs.laminar_field(lm.solve_laminar(stratified, 5.0, grid), 16)
    fld = replace(base, h=base.h + _three_mode_perturbation(grid, 16))
    jac = hs.jacobian(stratified, fld)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(fld.h.size)
    scale = np.max(np.abs(rhs))
    c = 0.7
    border = hs._Border(rng.standard_normal(fld.h.size), 0.3,
                        lambda f: 0.0, 1.0)
    for bd in (None, border):
        dh, dQ = jac.solve(rhs, bd, c)
        # the solve factored jac's band in place: apply a fresh one
        fresh = hs.jacobian(stratified, fld)
        assert np.max(np.abs(fresh.matvec(dh) + dQ * fresh.q_col - rhs)) \
            < 1e-10 * scale
        if bd is None:
            assert dQ == 0.0
        else:
            assert abs(bd.row @ dh + bd.q_coef * dQ + c) < 1e-10 * scale
    with pytest.raises(NewtonFailureError):
        jac.solve(rhs, replace(border, row=np.zeros(fld.h.size), q_coef=0.0),
                  c)


def test_factored_record_refuses_matvec(stratified):
    # after a solve the band rows hold L and U, not the Jacobian
    grid = pr.PGrid(-1.0, 16)
    fld = hs.laminar_field(lm.solve_laminar(stratified, 5.0, grid), 16)
    jac = hs.jacobian(stratified, fld)
    rhs = np.ones(fld.h.size)
    jac.matvec(rhs)
    jac.solve(rhs, None, 0.0)
    with pytest.raises(RuntimeError):
        jac.matvec(rhs)
    with pytest.raises(RuntimeError):
        jac.ab


def _scatter_band(physics, hf):
    """The band as ``hs.jacobian`` assembled it before it wrote into the
    factor array: a C-ordered (2k + 1, n) array, each stencil term
    scattered by one fancy-index update over all q-columns."""
    families, _, _ = hs._stencil(physics, hf)
    N_q, npp = hf.N_q, hf.pgrid.N_p + 1
    n = (N_q + 1) * npp
    k = npp + 1
    ab = np.zeros((2 * k + 1, n))
    left, right = hs._q_indices(N_q)
    offsets = [iq[:, None] * npp for iq in (left, np.arange(N_q + 1), right)]
    for ip, terms in families:
        rows = offsets[1] + ip
        for side, shift, coef in terms:
            cols = offsets[side + 1] + ip + shift
            ab[k + rows - cols, cols] += coef
    return ab


def _band_cases(t0, stratified, N_q, N_p):
    # a laminar sigma = 1 field, the three-mode perturbation on the
    # stratified beta != 0 physics, and a sigma = 10, rho = 1 - p/10 germ
    grid = pr.PGrid(-1.0, N_p)
    laminar = hs.laminar_field(lm.solve_laminar(t0, 2.0, grid), N_q)
    phys, _ = _stratified_field()
    base = hs.laminar_field(lm.solve_laminar(phys, 5.0, grid), N_q)
    perturbed = replace(base, h=base.h + _three_mode_perturbation(grid, N_q))
    flow = lm.solve_laminar(stratified, sp.find_lambda_star(stratified, grid),
                            grid)
    mode = sp.shoot_mode(flow, stratified, 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 5e-2, N_q)
    return [(t0, laminar), (phys, perturbed), (stratified, germ)]


@pytest.mark.parametrize("N_q, N_p", [(1, 16), (2, 16), (16, 16), (64, 16),
                                      (16, 64), (64, 64)])
def test_band_is_bit_equal_to_the_scatter(t0, stratified, N_q, N_p):
    # the slices add the same terms to each entry in the same order as the
    # scatter; the k fill-in rows above the band stay zero
    for physics, fld in _band_cases(t0, stratified, N_q, N_p):
        jac = hs.jacobian(physics, fld)
        assert jac.lu.flags.f_contiguous
        assert np.array_equal(jac.ab, _scatter_band(physics, fld))
        assert not jac.lu[:jac.bandwidth].any()


def test_solve_banded_is_bit_equal_to_scipy():
    # gbsv on the same band is what scipy runs; solve_banded factors the
    # record's array in place, so the band is copied before it does
    phys, fld = _stratified_field()
    rng = np.random.default_rng(7)
    for cols in (1, 3):
        jac = hs.jacobian(phys, fld)
        k = jac.bandwidth
        band = jac.ab.copy()
        b = rng.standard_normal((fld.h.size, cols))
        got, lu, _ = hs.solve_banded(jac.lu, k, b)
        assert np.shares_memory(lu, jac.lu)
        want = scipy.linalg.solve_banded((k, k), band, b)
        assert np.array_equal(got, want)


def test_reused_factor_solves_like_a_fresh_one():
    # a later solve on a record runs on its stored factor and Sherman-
    # Morrison pieces, J^{-1} q_col included when the first solve had no
    # border; it must agree with the first solve of a fresh record
    phys, fld = _stratified_field()
    rng = np.random.default_rng(11)
    first, second = (rng.standard_normal(fld.h.size) for _ in range(2))
    border = hs._amplitude_border(fld, fld.amplitude())
    for first_border in (None, border):
        for solve_border in (None, border):
            jac = hs.jacobian(phys, fld)
            jac.solve(first, first_border, 0.3)
            dh, dQ = jac.solve(second, solve_border, 0.3)
            want_dh, want_dQ = hs.jacobian(phys, fld).solve(
                second, solve_border, 0.3)
            scale = np.max(np.abs(want_dh))
            assert np.max(np.abs(dh - want_dh)) < 1e-12 * scale
            assert abs(dQ - want_dQ) <= 1e-12 * max(1.0, abs(want_dQ))


def _poisoned_band(where, value):
    """A fresh Jacobian's factor array with one band entry set to value:
    the first, a middle or the last entry of the band rows."""
    phys, fld = _stratified_field()
    jac = hs.jacobian(phys, fld)
    k, n = jac.bandwidth, jac.shape[0]
    row, col = {"first": (k, 0), "middle": (2 * k, n // 2),
                "last": (3 * k, n - 1)}[where]
    jac.lu[row, col] = value
    return jac.lu, k


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_band_is_a_newton_failure(where, value):
    lu, k = _poisoned_band(where, value)
    with pytest.raises(NewtonFailureError, match="non-finite"):
        hs.solve_banded(lu, k, np.ones((lu.shape[1], 1)))


def test_solve_banded_failures_are_newton_failures():
    phys, fld = _stratified_field()
    b = np.ones((fld.h.size, 1))
    nan_rhs = b.copy()
    nan_rhs[5, 0] = np.nan
    jac = hs.jacobian(phys, fld)
    with pytest.raises(NewtonFailureError, match="non-finite"):
        hs.solve_banded(jac.lu, jac.bandwidth, nan_rhs)
    jac.lu[:] = 0.0
    with pytest.raises(NewtonFailureError, match="LAPACK info"):
        hs.solve_banded(jac.lu, jac.bandwidth, b)


def test_fourier_block_singular_at_lambda_star(t0, simple_point):
    grid, lam_star, flow, mode = simple_point

    def block_det_sign(lam):
        fl = lm.solve_laminar(t0, lam, grid)
        return hs.fourier_block_dispersion(t0, fl, 1, 64)

    assert block_det_sign(lam_star - 0.01) * block_det_sign(lam_star + 0.01) < 0
    lam_disc = hs.discrete_lambda_star(t0, grid, 64)
    assert abs(lam_disc - lam_star) < 5e-4
    # the block matrix is singular exactly at the discrete root
    fl = lm.solve_laminar(t0, lam_disc, grid)
    B = hs.fourier_block_matrix(t0, fl, 1, 64)
    s = np.linalg.svd(B, compute_uv=False)
    assert s[-1] / s[0] < 1e-10


def test_discrete_lambda_star_flips_jacobian_determinant():
    # stratified with beta != 0, where the laminar H_p and its finite
    # difference differ: the assembled Jacobian (band + u v^T) at the
    # laminar field must turn singular at discrete_lambda_star itself,
    # not O(dp^2) away from it
    phys = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1),
                        beta_coeffs=(0.0, 0.2))
    grid = pr.PGrid(-1.0, 16)
    lam = hs.discrete_lambda_star(phys, grid, 16)
    signs = []
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        flow = lm.solve_laminar(phys, lam * factor, grid)
        jac = hs.jacobian(phys, hs.laminar_field(flow, 16))
        dense = np.column_stack([jac.matvec(e) for e in np.eye(jac.shape[0])])
        signs.append(np.linalg.slogdet(dense)[0])
    assert signs[0] * signs[1] < 0


# the configs of the two tests above and of _stratified_field
_BLOCK_CONFIGS = pytest.mark.parametrize("kwargs, n_p, n_q", [
    ({}, 64, 64),
    ({"sigma": 10.0, "rho_coeffs": (1.0, -0.1), "beta_coeffs": (0.0, 0.2)},
     16, 16),
    ({"sigma": 10.0, "rho_coeffs": (1.0, -0.1), "beta_coeffs": (0.0, 0.2)},
     20, 12),
], ids=["c64", "strat-beta16", "strat-beta20x12"])


@_BLOCK_CONFIGS
def test_discrete_lambda_star_matches_linear_scan(kwargs, n_p, n_q):
    phys = make_physics(**kwargs)
    grid = pr.PGrid(-1.0, n_p)

    def f(lam):
        flow = lm.solve_laminar(phys, lam, grid)
        return hs.fourier_block_dispersion(phys, flow, 1, n_q)

    ref = _smallest_root_scan(f, lm.lambda_floor(phys, grid), lm.LAMBDA_CAP)
    assert hs.discrete_lambda_star(phys, grid, n_q) == ref


def _block_from_band(physics, flow, n, N_q):
    """The n-th Fourier block read off the band of the Jacobian assembled
    at the laminar field: the rows of q-column 0 against column 0 (A00)
    and against column 1 (A01)."""
    jac = hs.jacobian(physics, hs.laminar_field(flow, N_q))
    m = flow.grid.N_p + 1
    rows = np.arange(m)[:, None]
    cols = np.arange(2 * m)[None, :]
    diag = jac.bandwidth + rows - cols      # band row of entry (row, col)
    A = np.where(diag >= 0, jac.ab[np.maximum(diag, 0), cols], 0.0)
    return A[:, :m] + np.cos(n * np.pi / N_q) * A[:, m:]


@_BLOCK_CONFIGS
def test_fourier_block_matches_band_read(kwargs, n_p, n_q):
    # column 0's stencil terms sum in the order the band sums them
    phys = make_physics(**kwargs)
    grid = pr.PGrid(-1.0, n_p)
    lam = hs.discrete_lambda_star(phys, grid, n_q)
    for flow in (lm.solve_laminar(phys, lam, grid),
                 lm.solve_laminar(phys, 1.5 * lam, grid)):
        for n in range(1, 2 * n_q):
            assert np.array_equal(hs.fourier_block_matrix(phys, flow, n, n_q),
                                  _block_from_band(phys, flow, n, n_q)), n


def test_newton_accepts_root_without_iterating(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    out, hist = hs.newton(t0, fld, frozen="Q", return_history=True)
    assert len(hist) == 1                # zero iterations
    assert np.array_equal(out.h, fld.h)


def test_newton_converges_from_germ(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol, hist = hs.newton(t0, germ, frozen="amplitude",
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
        hs.residual(t0, fld)
    with pytest.raises(EllipticityLossError):
        hs.newton(t0, fld)


def test_continuation_simple_branch(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ,
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
        t0, germ, hs.ContinuationControls(max_steps=9, ds_max=0.02))
    fine = hs.continue_branch(
        t0, germ, hs.ContinuationControls(max_steps=17, ds_max=0.01))
    from scipy.interpolate import CubicSpline

    qc = np.array([p.Q for p in coarse.points])
    ac = np.array([p.amplitude for p in coarse.points])
    qf = np.array([p.Q for p in fine.points])
    af = np.array([p.amplitude for p in fine.points])
    sel = ac <= min(ac[-1], af[-1])
    interp = CubicSpline(af, qf)(ac[sel])
    assert np.max(np.abs(interp - qc[sel])) < 1e-6


def _counting_solves(monkeypatch):
    """Wrap ``_bordered_newton``; returns the list of step counts of the
    solves that converge."""
    steps = []
    inner = hs._bordered_newton

    def counted(*args, **kwargs):
        fld, history = inner(*args, **kwargs)
        steps.append(len(history) - 1)
        return fld, history

    monkeypatch.setattr(hs, "_bordered_newton", counted)
    return steps


def test_corrector_tests_its_last_step(t0, simple_point, monkeypatch):
    # with m the most Newton steps any solve of the default run takes
    # (chord steps included), a budget of m steps must reproduce that run
    # point for point, so the m-th step is tested for convergence; a budget
    # of m - 1 must change the run or fail it, so the budget binds
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    steps = _counting_solves(monkeypatch)
    default = hs.continue_branch(t0, germ,
                                 hs.ContinuationControls(max_steps=6))
    monkeypatch.undo()
    m = max(steps)
    assert m >= 2

    def run(cap):
        controls = hs.ContinuationControls(max_steps=6, newton_max_iter=cap)
        return hs.continue_branch(t0, germ, controls)

    def curve(branch):
        return [(p.Q, p.amplitude, p.step) for p in branch.points]

    tight = run(m)
    assert tight.termination == default.termination == "MaxSteps"
    assert curve(tight) == curve(default)
    try:
        short = curve(run(m - 1))
    except NewtonFailureError:      # a start solve needs all m steps
        short = None
    assert short != curve(default)


def test_continuation_factors_once_per_point(t0, simple_point, monkeypatch):
    # chord steps reuse each corrector's first Jacobian and its banded LU
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    builds = []
    inner = hs.jacobian
    monkeypatch.setattr(hs, "jacobian",
                        lambda *args: builds.append(1) or inner(*args))
    branch = hs.continue_branch(t0, germ,
                                hs.ContinuationControls(max_steps=10))
    assert len(branch.points) == 10
    assert len(builds) == 10


def test_failed_chord_step_retries_on_a_fresh_jacobian(t0, simple_point,
                                                      monkeypatch):
    # a chord step that points uphill exhausts its halvings on the reused
    # factor; the solve must rebuild the Jacobian there, not fail
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    builds = []
    inner_jac, inner_dgbtrs = hs.jacobian, hs.dgbtrs
    monkeypatch.setattr(hs, "jacobian",
                        lambda *args: builds.append(1) or inner_jac(*args))

    def uphill(*args, **kwargs):
        x, info = inner_dgbtrs(*args, **kwargs)
        return -x, info

    monkeypatch.setattr(hs, "dgbtrs", uphill)
    border = hs._amplitude_border(germ, germ.amplitude())
    fld, history = hs._bordered_newton(t0, germ, hs.NEWTON_TOL,
                                       hs.NEWTON_MAX_ITER, border, chord=True)
    assert fld.residual_norm < hs.NEWTON_TOL
    assert len(builds) == len(history) - 1 > 1


def test_failed_second_start_solve_raises(t0, simple_point, monkeypatch):
    # both start solves fail the same way: there is no branch to return
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    calls = []
    inner = hs._bordered_newton

    def second_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NewtonFailureError("second start solve")
        return inner(*args, **kwargs)

    monkeypatch.setattr(hs, "_bordered_newton", second_fails)
    with pytest.raises(NewtonFailureError, match="second start solve"):
        hs.continue_branch(t0, germ, hs.ContinuationControls(max_steps=4))


def test_start_points_lock_the_mixture_at_the_controls_tolerance(
        t0, simple_point):
    # the first two points hold the projection of h on the germ's deviation
    # from its q-mean at c0, then at c_lam + 2 (c0 - c_lam), and converge to
    # the tolerance of the controls: at the default 1e-10 the first point's
    # residual is 1.8e-11, so 1e-11 tells the two apart
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 5e-4, 64)
    newton_tol = 1e-11
    branch = hs.continue_branch(
        t0, germ, hs.ContinuationControls(max_steps=2, newton_tol=newton_tol))
    assert len(branch.points) == 2
    lam_h = np.tile(hs.mean_weights(64) @ germ.h, (65, 1))
    row = (germ.h - lam_h).reshape(-1) / germ.h.size
    c0, c_lam = row @ germ.h.reshape(-1), row @ lam_h.reshape(-1)
    for pt, target in zip(branch.points, (c0, c_lam + 2.0 * (c0 - c_lam))):
        assert (abs(row @ pt.field.h.reshape(-1) - target)
                < hs.CONSTRAINT_TOL * max(1.0, abs(target)))
        assert pt.residual_norm < newton_tol


def test_start_solves_take_the_controls_iteration_cap(t0, simple_point):
    # each start solve needs two Newton steps from this germ, so a cap of
    # one step must fail the first of them instead of running to MaxSteps
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    with pytest.raises(NewtonFailureError, match="1 Newton iterations"):
        hs.continue_branch(
            t0, germ, hs.ContinuationControls(max_steps=4, newton_max_iter=1))


def test_newton_has_two_modes(t0, simple_point):
    fld = hs.laminar_field(simple_point[2], 64)
    for frozen in ("direction", "arclength"):
        with pytest.raises(ValueError, match="unknown frozen mode"):
            hs.newton(t0, fld, frozen=frozen)


def test_termination_thresholds(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(
        t0, germ, hs.ContinuationControls(max_steps=6, delta_stop=1e3))
    # max h_p ~ 1/sqrt(lam) already exceeds 1/delta_stop = 1e-3: the
    # stagnation monitor fires at the first recorded point
    assert branch.termination == "StagnationApproach"
    assert len(branch.points) == 1
    # with sane thresholds the same run just exhausts its budget
    ok = hs.continue_branch(t0, germ,
                            hs.ContinuationControls(max_steps=3))
    assert ok.termination == "MaxSteps"


def test_nodal_check(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    fld = hs.laminar_field(flow, 64)
    assert hs.nodal_check(fld)        # flat profile: degenerate-true
    q = np.linspace(0.0, np.pi, 65)
    bad = fld.h.copy()
    bad[:, -1] += 0.01 * (np.cos(q) + 0.5 * np.cos(2 * q))
    assert not hs.nodal_check(replace(fld, h=bad))
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol = hs.newton(t0, germ, frozen="amplitude")
    assert hs.nodal_check(sol)


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
        lam_star = sp.find_lambda_star(t0, grid)
        flow = lm.solve_laminar(t0, lam_star, grid)
        mode = sp.shoot_mode(flow, t0, 1)
        eps = 0.05 / mode.M[-1]
        germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), eps, N)
        sol = hs.newton(t0, germ, frozen="amplitude",
                        amplitude_target=0.05)
        tops[N] = sol.top[:: N // 32]
    e1 = np.max(np.abs(tops[64] - tops[32]))
    e2 = np.max(np.abs(tops[128] - tops[64]))
    assert np.log2(e1 / e2) >= 1.8


def test_dump_load_roundtrip(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    sol = hs.newton(t0, germ, frozen="amplitude")
    text = hs.dump_field(sol)
    back = hs.load_field(text)
    assert back.Q == sol.Q
    assert np.array_equal(back.h, sol.h)
    # a solved field records its sigma; the germ, solved by nothing, none
    assert text.startswith("heightfield v3 ")
    assert _bits(back.sigma) == _bits(sol.sigma) == _bits(t0.sigma)
    assert hs.load_field(hs.dump_field(germ)).sigma is None
    r0 = np.max(np.abs(hs.residual(t0, sol)))
    r1 = np.max(np.abs(hs.residual(t0, back)))
    assert abs(r0 - r1) < 1e-14


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@st.composite
def _fields(draw):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    N_q = draw(st.integers(1, 8))
    N_p = 2 * draw(st.integers(4, 8))
    p0 = draw(st.floats(max_value=0.0, exclude_max=True,
                        allow_infinity=False))
    h = draw(st.lists(finite, min_size=(N_q + 1) * (N_p + 1),
                      max_size=(N_q + 1) * (N_p + 1)))
    sigma = draw(st.none() | st.floats(min_value=0.0, allow_infinity=False))
    return hs.HeightField(Q=draw(finite), N_q=N_q, pgrid=pr.PGrid(p0, N_p),
                          h=np.array(h).reshape(N_q + 1, N_p + 1),
                          sigma=sigma)


@settings(database=None, derandomize=True)
@given(_fields())
def test_dump_load_roundtrip_bitwise(hf):
    back = hs.load_field(hs.dump_field(hf))
    assert (back.N_q, back.pgrid.N_p) == (hf.N_q, hf.pgrid.N_p)
    assert _bits(back.pgrid.p0) == _bits(hf.pgrid.p0)
    assert _bits(back.Q) == _bits(hf.Q)
    assert np.array_equal(_bits(back.h), _bits(hf.h))
    if hf.sigma is None:
        assert back.sigma is None
    else:
        assert _bits(back.sigma) == _bits(hf.sigma)


# a header without p0 and Q; a body token that is no number; a nan entry
@pytest.mark.parametrize("line, start, stop, new",
                         [(0, 4, 6, []), (1, 3, 4, ["0.5x"]),
                          (2, 5, 6, ["nan"])],
                         ids=["short-header", "bad-token", "nan-value"])
def test_load_field_rejects_malformed(t0, line, start, stop, new):
    flow = lm.solve_laminar(t0, 4.0, pr.PGrid(-1.0, 16))
    lines = _v1_dump(hs.laminar_field(flow, 16)).split("\n")
    hs.load_field("\n".join(lines))
    tokens = lines[line].split(" ")
    tokens[start:stop] = new
    lines[line] = " ".join(tokens)
    with pytest.raises(ShapeError):
        hs.load_field("\n".join(lines))


def test_v1_dump_loads_bit_identically():
    """A decimal v1 dump, written one value at a time, still loads to the
    bits of the field, as its v2 dump does; both give a writable,
    native-order float64 h."""
    rng = np.random.default_rng(7)
    special = [-0.0, 5e-324, 1e308, -1e308, -2.5e-300, 0.1, -7.0e-17]
    vals = np.concatenate([special, rng.standard_normal(5 * 17 - 7)
                           * 10.0 ** rng.integers(-300, 300, 5 * 17 - 7)])
    hf = hs.HeightField(Q=0.1 + 2e-17, N_q=4, pgrid=pr.PGrid(-0.7, 16),
                        h=vals.reshape(5, 17))
    for text in (_v1_dump(hf), hs.dump_field(hf)):
        back = hs.load_field(text)
        assert (back.N_q, back.pgrid.N_p) == (4, 16)
        assert _bits(back.pgrid.p0) == _bits(hf.pgrid.p0)
        assert _bits(back.Q) == _bits(hf.Q)
        assert np.array_equal(_bits(back.h), _bits(hf.h))
        assert back.h.flags.writeable and back.h.dtype == np.float64
        assert back.h.dtype.isnative


def test_field_shape_validation(grid64):
    with pytest.raises(ShapeError):
        hs.HeightField(Q=1.0, N_q=16, pgrid=grid64, h=np.zeros((5, 5)))


def test_branch_csv_and_svg(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ,
                                hs.ContinuationControls(max_steps=4))
    csv = hs.branch_csv(branch)
    assert csv.splitlines()[0] == "s,Q,amplitude,M1,M2,M3,M4,M5,M6,residual,step"
    assert len(csv.strip().splitlines()) == len(branch.points) + 1
    svg = hs.branch_svg([branch])
    assert svg.startswith("<svg") and "polyline" in svg


def test_simple_branch_mode1_dominates_near_onset(t0, simple_point):
    grid, lam_star, flow, mode = simple_point
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 1e-3, 64)
    branch = hs.continue_branch(t0, germ,
                                hs.ContinuationControls(max_steps=5))
    q = np.linspace(0.0, np.pi, 65)
    w = np.full(65, np.pi / 64)
    w[0] *= 0.5
    w[-1] *= 0.5
    for pt in branch.points[:5]:
        coefs = np.array([2 / np.pi * np.sum(w * pt.field.top * np.cos(n * q))
                          for n in range(1, 9)])
        assert abs(coefs[0]) >= 10.0 * np.max(np.abs(coefs[1:]))


def _per_value(rows, sep):
    """Rows of numbers formatted one value at a time, as the writers did."""
    return [sep.join(f"{v:.16e}" for v in row) for row in rows]


def _v1_dump(hf):
    """The decimal ``heightfield v1`` text that ``dump_field`` wrote before
    v2: the same header, then one row of %.16e values per q-column."""
    head = (f"heightfield v1 {hf.N_q} {hf.pgrid.N_p} "
            f"{hf.pgrid.p0:.16e} {hf.Q:.16e}")
    return "\n".join([head] + _per_value(hf.h, " ")) + "\n"


def test_writers_match_per_value_format():
    # signed zero, the smallest subnormal, the extremes and negatives
    special = [-0.0, 5e-324, 1e308, -1e308, -1.5, 0.1, -2.5e-300, 3.0,
               -7.0e-17]
    vals = np.resize(special, (3, 17))
    grid = pr.PGrid(-1.0, 16)
    hf = hs.HeightField(Q=-0.0, N_q=2, pgrid=grid, h=vals)
    # v2: each body line is exactly its row's little-endian float64 bytes
    lines = hs.dump_field(hf).splitlines()
    assert lines[0] == ("heightfield v2 2 16 -1.0000000000000000e+00 "
                        "-0.0000000000000000e+00")
    assert len(lines) == 4
    for line, row in zip(lines[1:], vals):
        assert base64.b64decode(line, validate=True) == \
            row.astype("<f8").tobytes()
    # v3: the same lines, sigma appended to the header at 17 digits
    assert hs.dump_field(replace(hf, sigma=0.1)).splitlines() == [
        lines[0].replace("v2", "v3") + " 1.0000000000000001e-01"] + lines[1:]

    points = tuple(hs.BranchPoint(
        s=row[0], Q=row[1], amplitude=row[2], monitors=tuple(row[3:9]),
        residual_norm=row[9], step=row[10], field=None)
        for row in np.resize(special, (3, 11)))
    rows = [(pt.s, pt.Q, pt.amplitude) + pt.monitors
            + (pt.residual_norm, pt.step) for pt in points]
    text = hs.branch_csv(hs.Branch(points=points, termination="max-steps"))
    assert text.splitlines()[1:] == _per_value(rows, ",")

    flow = lm.LaminarFlow(lam=1.0, grid=grid, H=vals[0], Hp=vals[1],
                          G=vals[2], Q=1.0, Ydot=vals[0][::-1],
                          Gdot=vals[1][::-1], Qdot=0.0, iterations=1,
                          converged=True)
    rows = zip(grid.nodes, flow.H, flow.Hp, flow.G, flow.Ydot, flow.Gdot)
    assert lm.flow_to_csv(flow).splitlines()[1:] == _per_value(rows, ",")

    x = np.linspace(0.0, 2.0 * np.pi, 5)
    field = np.resize(special, (5, 17))
    wave = eu.EulerianWave(x=x, p=grid.nodes, y=field, u=-field,
                           v=field[::-1], rho=field[:, ::-1],
                           eta=np.array([-0.0, 5e-324, -1.5, 0.25, -0.0]),
                           d=0.5, Q=1.0, c=1.0, p0=-1.0)
    rows = [(wave.x[ix], wave.y[ix, ip], wave.u[ix, ip], wave.v[ix, ip],
             wave.rho[ix, ip], -wave.p[ip])
            for ix in range(5) for ip in range(17)]
    assert eu.wave_csv(wave).splitlines()[1:] == _per_value(rows, ",")
    # 17 significant digits round-trip, so kappa can be read back
    surface = eu.surface_csv(wave).splitlines()[1:]
    kappa = [float(line.split(",")[2]) for line in surface]
    assert surface == _per_value(zip(x, wave.eta, kappa), ",")
