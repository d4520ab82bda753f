import numpy as np
import pytest

from conftest import irrotational_lambda_star, make_physics, sigma_for_root
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import UndefinedQuantityError


def _shoot_loop(flow, physics, n, forcing=0.0, M0p=1.0):
    """The RK4 march of ``spectral._shoot`` on numpy scalars, as it stood
    before the float march; the reference for bit-equality."""
    grid = flow.grid
    p = grid.nodes
    h = grid.h
    a_of, ap_of = sp._coefficient_interpolants(flow)
    g = physics.g
    half = p[:-1] + 0.5 * h
    a_nodes = a_of(p)
    a_half = a_of(half)
    rp_nodes = physics.rho_p(p)
    rp_half = physics.rho_p(half)
    inv_a3_nodes = a_nodes ** -3.0
    inv_a3_half = a_half ** -3.0
    c_nodes = n * n * a_nodes + g * rp_nodes
    c_half = n * n * a_half + g * rp_half
    f_nodes = forcing * rp_nodes
    f_half = forcing * rp_half

    M = np.empty(grid.N_p + 1)
    Mp = np.empty(grid.N_p + 1)
    m, w = 0.0, a_nodes[0] ** 3 * M0p
    log_rescale = 0.0
    M[0], Mp[0] = m, M0p
    for k in range(grid.N_p):
        corr = np.exp(-log_rescale)
        dm1 = w * inv_a3_nodes[k]
        dw1 = c_nodes[k] * m + f_nodes[k] * corr
        m2, w2 = m + 0.5 * h * dm1, w + 0.5 * h * dw1
        dm2 = w2 * inv_a3_half[k]
        dw2 = c_half[k] * m2 + f_half[k] * corr
        m3, w3 = m + 0.5 * h * dm2, w + 0.5 * h * dw2
        dm3 = w3 * inv_a3_half[k]
        dw3 = c_half[k] * m3 + f_half[k] * corr
        m4, w4 = m + h * dm3, w + h * dw3
        dm4 = w4 * inv_a3_nodes[k + 1]
        dw4 = c_nodes[k + 1] * m4 + f_nodes[k + 1] * corr
        m += (h / 6.0) * (dm1 + 2.0 * dm2 + 2.0 * dm3 + dm4)
        w += (h / 6.0) * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        big = max(abs(m), abs(w))
        if big > sp._RESCALE_LIMIT:
            m /= big
            w /= big
            M[:k + 2] /= big
            Mp[:k + 2] /= big
            log_rescale += np.log(big)
        M[k + 1] = m
        Mp[k + 1] = w * inv_a3_nodes[k + 1]
    ap_nodes = ap_of(p)
    corr = np.exp(-log_rescale)
    Mpp = ((n * n * a_nodes + g * rp_nodes) * M + forcing * rp_nodes * corr
           - 3.0 * a_nodes ** 2 * ap_nodes * Mp) * inv_a3_nodes
    return M, Mp, Mpp, log_rescale


def test_shoot_mode_sinh_closed_form(t0, grid128):
    flow = lm.solve_laminar(t0, 1.0, grid128)
    mode = sp.shoot_mode(flow, t0, 1, normalization="sinh")
    p = grid128.nodes
    assert np.max(np.abs(mode.M - np.sinh(p + 1.0))) < 1e-9
    # shooting normalization for lambda = 1, n = 1 coincides with sinh
    shoot = sp.shoot_mode(flow, t0, 1)
    assert np.max(np.abs(shoot.M - np.sinh(p + 1.0))) < 1e-9


def test_shoot_mode_n2_lambda4(t0, grid128):
    flow = lm.solve_laminar(t0, 4.0, grid128)
    mode = sp.shoot_mode(flow, t0, 2, normalization="sinh")
    p = grid128.nodes
    assert np.max(np.abs(mode.M - np.sinh(2 * (p + 1.0) / 2.0))) < 1e-9


def test_mode_positivity(t0, grid128):
    flow = lm.solve_laminar(t0, 2.0, grid128)
    for n in (1, 2, 5):
        mode = sp.shoot_mode(flow, t0, n)
        assert np.all(mode.M[1:] > 0)
        assert np.all(mode.Mp > 0)


def test_dispersion_sign_convention(t0, grid128):
    # sigma = 2, n = 1: D > 0 iff lambda > 3 tanh(1/sqrt(lambda))
    for lam, positive in ((3.0, True), (0.1, False)):
        flow = lm.solve_laminar(t0, lam, grid128)
        mode = sp.shoot_mode(flow, t0, 1)
        D, _ = sp.dispersion(flow, t0, 2.0, mode)
        assert (D > 0) == positive


def test_zero_mode_constant_density(t0, grid128):
    # constant rho: M = p - p0, D0 = lambda^{3/2} - g rho0 |p0|
    flow = lm.solve_laminar(t0, 4.0, grid128)
    mode, D0 = sp.shoot_zero_mode(flow, t0)
    assert D0 == pytest.approx(7.0, abs=1e-9)
    p = grid128.nodes
    assert np.max(np.abs(mode.M - (p + 1.0))) < 1e-10
    flow1 = lm.solve_laminar(t0, 1.0, grid128)
    _, D0_at_lam0 = sp.shoot_zero_mode(flow1, t0)
    assert abs(D0_at_lam0) < 1e-10


def test_zero_mode_forcing_vanishes_for_constant_rho(t0, grid128):
    flow = lm.solve_laminar(t0, 2.0, grid128)
    M2, M2p, _, _ = sp._shoot(flow, t0, 0, forcing=-t0.g, M0p=0.0)
    assert np.max(np.abs(M2)) == 0.0


@pytest.mark.parametrize("rho, beta", [((1.0,), (0.0,)),
                                       ((1.0, -0.1), (0.0,)),
                                       ((1.0, -0.1), (0.0, 0.2)),
                                       ((1.0, -0.1, -0.04), (0.0,))],
                         ids=["constant", "linear-rho", "linear-rho-beta",
                              "quadratic-rho"])
def test_shoot_matches_loop_reference(rho, beta):
    # constant rho; rho = 1 - p/10 (rho_p != 0, so the n = 0 forcing acts);
    # the same with beta = 0.2 s; a rho_p that varies between the nodes
    # and the half steps.  n = 1000 overflows 1e150 and rescales, also
    # with a forcing, which the rescale then scales down.
    phys = make_physics(sigma=10.0, rho_coeffs=rho, beta_coeffs=beta)
    grid = pr.PGrid(-1.0, 512)
    flow = lm.solve_laminar(phys, 5.0, grid)
    cases = [(0, 0.0, 1.0), (0, -phys.g, 0.0), (1, 0.0, 1.0),
             (1000, -phys.g, 1.0), (1000, 0.0, 1.0)]
    for n, forcing, M0p in cases:
        got = sp._shoot(flow, phys, n, forcing=forcing, M0p=M0p)
        ref = _shoot_loop(flow, phys, n, forcing=forcing, M0p=M0p)
        for a, b in zip(got[:3], ref[:3]):
            assert np.array_equal(a, b), (n, forcing)
        assert got[3] == ref[3]
    assert ref[3] > 0.0                     # the n = 1000 march rescaled


@pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
def test_find_lambda_star_vs_oracle(t0, grid128, sigma):
    lam = sp.find_lambda_star(t0, grid128, sigma)
    oracle = irrotational_lambda_star(1, sigma)
    assert abs(lam / oracle - 1.0) < 1e-8


def test_find_lambda_star_pure_capillary(grid128):
    phys = make_physics(g=0.0, sigma=1.0)
    lam = sp.find_lambda_star(phys, grid128, 1.0)
    oracle = irrotational_lambda_star(1, 1.0, g=0.0)
    assert abs(lam / oracle - 1.0) < 1e-8


def test_rayleigh_mu_at_lambda_star(t0, grid128):
    for sigma in (0.5, 2.0):
        lam = sp.find_lambda_star(t0, grid128, sigma)
        flow = lm.solve_laminar(t0, lam, grid128)
        mu = sp.rayleigh_mu(flow, t0, sigma, N=512)
        assert abs(mu + 1.0) < 1e-6


def test_rayleigh_mu_monotone_and_bounded(t0, grid128):
    sigma = 2.0
    lams = np.linspace(0.4, 1.7, 8)
    mus = []
    for lam in lams:
        flow = lm.solve_laminar(t0, lam, grid128)
        mus.append(sp.rayleigh_mu(flow, t0, sigma, N=256))
    mus = np.array(mus)
    below = mus < 0
    assert np.all(np.diff(mus[below]) > 0)
    # above the large-lambda bound (g |rho_p| + sqrt(g rho0 + sigma))^2 = 3
    flow = lm.solve_laminar(t0, 4.0, grid128)
    assert sp.rayleigh_mu(flow, t0, sigma, N=256) >= -1.0


def test_classify_simple(t0, grid128):
    bp = sp.classify(t0, grid128, 1.0)     # sigma = 1 > sigma_c = 1/3
    assert bp.classification == "Simple"
    assert len(bp.modes) == 1


def test_classify_zero_mode(t0, grid128):
    sigma = 1.0 / np.tanh(1.0) - 1.0
    bp = sp.classify(t0, grid128, sigma)
    assert bp.classification == "ZeroMode"
    assert bp.lambda_star == pytest.approx(1.0, abs=1e-6)


def test_classify_double3(double3):
    t0, grid, sigma_d, bp, flow = double3
    assert bp.classification == "Double"
    assert bp.n2 == 3
    assert len(bp.modes) == 2


def test_find_double_sigma_against_oracle(t0, grid128):
    from scipy.optimize import brentq

    for n2 in (2, 3):
        sigma_d, lam_d = sp.find_double_sigma(t0, grid128, n2)

        def sigma_of(lam):
            return lam / np.tanh(1.0 / np.sqrt(lam)) - 1.0

        def f(lam):
            s = sigma_of(lam)
            return ((n2 ** 2 * s + 1.0) / n2) * np.tanh(
                n2 / np.sqrt(lam)) - lam

        lam_oracle = brentq(f, 0.8064 * (1 + 1e-9), 50.0, xtol=1e-14)
        assert lam_d == pytest.approx(lam_oracle, rel=1e-7)
        assert sigma_d == pytest.approx(sigma_of(lam_oracle), rel=1e-6)
        assert 0 < sigma_d < 1.0 / 3.0      # inside (0, sigma_c)


def test_double_sigma_decreases_with_n2(t0, grid64):
    sigmas = [sp.find_double_sigma(t0, grid64, n2)[0] for n2 in (2, 3, 4)]
    assert sigmas[0] > sigmas[1] > sigmas[2]


def test_lambda_star_increasing_in_sigma(t0, grid64):
    sigmas = np.linspace(0.05, 2.0, 20)
    lams = sp.lambda_star_of_sigma(t0, grid64, sigmas)
    assert np.all(np.diff(lams) > 0)


def test_irrotational_dispersion_residual_all_roots(t0, grid128):
    for sigma in (0.05, 0.5):
        for n in (1, 2, 3):
            lam = sp.find_lambda_star(t0, grid128, sigma, n=n)
            oracle = irrotational_lambda_star(n, sigma)
            assert abs(lam / oracle - 1.0) < 1e-8


def test_stratified_lambda_star_and_mu(stratified):
    grid = pr.PGrid(-1.0, 128)
    lam = sp.find_lambda_star(stratified, grid, stratified.sigma)
    assert lam > lm.lambda_floor(stratified, grid)
    flow = lm.solve_laminar(stratified, lam, grid)
    mu = sp.rayleigh_mu(flow, stratified, stratified.sigma, N=512)
    assert abs(mu + 1.0) < 1e-5
    mode = sp.shoot_mode(flow, stratified, 1)
    assert np.all(mode.M[1:] > 0) and np.all(mode.Mp > 0)


def test_rayleigh_undefined_guard():
    # a density gradient steep enough to break a + g rho_p > 0
    phys = make_physics(g=30.0, rho_coeffs=(1.0, -0.9), sigma=1.0)
    grid = pr.PGrid(-1.0, 64)
    lam = lm.existence_floor(phys, grid) + 0.05
    flow = lm.solve_laminar(phys, lam, grid, enforce_floor=False)
    from stratiwave.errors import IndefiniteFormError
    with pytest.raises(IndefiniteFormError):
        sp.rayleigh_mu(flow, phys, 1.0, N=64)
