from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from conftest import irrotational_lambda_star, make_physics, sigma_for_root
from stratiwave import bifurc
from stratiwave import laminar as lm
from stratiwave import piecewise as pw
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import LBViolatedError, UndefinedQuantityError


def _smallest_root_scan(f, floor, cap):
    """``laminar._smallest_root`` as a walk up every scan sample, as it
    stood before the search; the reference for bit-identical roots."""
    lo = lm._first_admissible(floor)
    flo = f(lo)
    if flo == 0.0:
        return lo
    hi = lo
    fhi = flo
    while np.sign(fhi) == np.sign(flo):
        lo, flo = hi, fhi
        hi = max(hi * 2.0, floor + 2.0 * (hi - floor))
        if hi > cap:
            return None
        fhi = f(hi)
    return brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)


def _relative_D(physics, grid, n):
    """lambda -> D / scale of mode n, with nothing remembered."""
    def f(lam):
        D, scale = sp._dispersion_at(lm.solve_laminar(physics, lam, grid),
                                     physics, n)
        return D / scale
    return f


def _relative_march(physics, grid, n):
    """``_relative_D`` from the recorded scalar march of mode n >= 1."""
    def f(lam):
        flow = lm.solve_laminar(physics, lam, grid)
        return sp._relative(flow, physics, sp.shoot_mode(flow, physics, n))
    return f


def _count_laminar_solves(monkeypatch):
    """Count the laminar solves spectral makes from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lm.solve_laminar(*args, **kwargs)

    monkeypatch.setattr(sp, "solve_laminar", counted)
    return calls


def _coefficient_interpolants(flow):
    """a(p) and a'(p) from smooth interpolation of G (not of H_p itself)."""
    p = flow.grid.nodes
    G_interp = PchipInterpolator(p, flow.G, extrapolate=True)
    Gp_interp = G_interp.derivative()
    lam = flow.lam

    def a_of(p_):
        return np.sqrt(lam + G_interp(p_))

    def ap_of(p_):
        return Gp_interp(p_) / (2.0 * np.sqrt(lam + G_interp(p_)))

    return a_of, ap_of


def _shoot_loop(flow, physics, n, forcing=0.0, m0=0.0, M0p=1.0):
    """The RK4 march on numpy scalars, w' = (n^2 a + g rho_p) M + forcing
    rho_p, as it stood before the float march: unforced, the reference for
    bit-equality of ``spectral._march``; forced, for the zero mode."""
    grid = flow.grid
    p = grid.nodes
    h = grid.h
    a_of, ap_of = _coefficient_interpolants(flow)
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
    m, w = m0, a_nodes[0] ** 3 * M0p
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
        D, _ = sp.dispersion(flow, replace(t0, sigma=2.0), mode)
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
    # rho_p = 0: v = 1 - u2 stays at its start, so u2 = 0 and M = u1
    flow = lm.solve_laminar(t0, 2.0, grid128)
    coef = sp.shot_coefficients(flow, t0)
    V, Vp, Vpp, log_rescale = sp._march(coef, 0, m0=1.0, M0p=0.0,
                                        record=True)
    assert np.array_equal(V, np.ones_like(V))
    assert np.array_equal(Vp, np.zeros_like(Vp))
    assert np.array_equal(Vpp, np.zeros_like(Vpp)) and log_rescale == 0.0
    mode, _ = sp.shoot_zero_mode(flow, t0, coef)
    assert np.array_equal(mode.M, sp._march(coef, 0, record=True)[0])


# the coefficient profiles of the march tests (see the first one)
_SHOOT_PROFILES = {"constant": ((1.0,), (0.0,)),
                   "linear-rho": ((1.0, -0.1), (0.0,)),
                   "linear-rho-beta": ((1.0, -0.1), (0.0, 0.2)),
                   "quadratic-rho": ((1.0, -0.1, -0.04), (0.0,))}
_SHOOT_CONFIGS = pytest.mark.parametrize(
    "rho, beta", list(_SHOOT_PROFILES.values()), ids=list(_SHOOT_PROFILES))


# the two starts (M, M')(p0) of the march tests: the mode's and v's
_STARTS = ((0.0, 1.0), (1.0, 0.0))


@_SHOOT_CONFIGS
def test_shoot_matches_loop_reference(rho, beta):
    # constant rho; rho = 1 - p/10 (rho_p != 0); the same with beta = 0.2 s;
    # a rho_p that varies between the nodes and the half steps.  n = 1000
    # overflows 1e150 and rescales from either start.  The unforced loop
    # adds 0.0 * rho_p = +-0.0 to each w-stage, which changes no value.
    phys = make_physics(sigma=10.0, rho_coeffs=rho, beta_coeffs=beta)
    grid = pr.PGrid(-1.0, 512)
    flow = lm.solve_laminar(phys, 5.0, grid)
    coef = sp.shot_coefficients(flow, phys)
    for n in (0, 1, 1000):
        for m0, M0p in _STARTS:
            got = sp._march(coef, n, m0=m0, M0p=M0p, record=True)
            ref = _shoot_loop(flow, phys, n, m0=m0, M0p=M0p)
            for a, b in zip(got[:3], ref[:3]):
                assert np.array_equal(a, b), (n, m0)
            assert got[3] == ref[3]
            assert (ref[3] > 0.0) == (n == 1000)    # rescaled only there


# |D / scale| of the transfer product against the scalar march; measured
# at most 1.7e-15 on the cases of test_transfer_matches_march
TRANSFER_BOUND = 1e-13


@_SHOOT_CONFIGS
def test_shoot_end_matches_shoot(rho, beta):
    # the end-point dispersion against that of the recorded modes, to the
    # transfer product's bound, also past a rescale (n = 1000)
    phys = make_physics(sigma=10.0, rho_coeffs=rho, beta_coeffs=beta)
    grid = pr.PGrid(-1.0, 512)
    flow = lm.solve_laminar(phys, 5.0, grid)
    coef = sp.shot_coefficients(flow, phys)
    for n in (0, 1, 1000):
        mode = (sp.shoot_zero_mode(flow, phys, coef)[0] if n == 0
                else sp.shoot_mode(flow, phys, n, coefficients=coef))
        D, scale = sp._dispersion_at(flow, phys, n, coef)
        assert abs(D / scale - sp._relative(flow, phys, mode)) \
            <= TRANSFER_BOUND, n
    with pytest.raises(ValueError):     # no end-point march is left
        sp._march(coef, 1, record=False)


def _shoot_case_physics(case):
    """The physics of a march test's profile, or of the table rho."""
    if case == "table-rho":
        return _table_rho_physics()
    rho, beta = _SHOOT_PROFILES[case]
    return make_physics(sigma=10.0, rho_coeffs=rho, beta_coeffs=beta)


@pytest.mark.parametrize("n_p", [64, 512])
@pytest.mark.parametrize("case", [*_SHOOT_PROFILES, "table-rho"])
def test_transfer_matches_march(case, n_p):
    # the end point of each start from the product of the step matrices
    # against the scalar march's, as D / scale; at lambda = 5 and at the
    # first admissible lambda above the laminar floor (1e-6 for constant
    # rho, where a^-3 is about 1e9 and every n >= 1 rescales); n = 2..9 in
    # one batch, and n = 1000, whose product rescales at lambda = 5.  Then
    # lambda_* of modes 1..6 against the search on the recorded march.
    phys = _shoot_case_physics(case)
    grid = pr.PGrid(-1.0, n_p)
    floor = lm.lambda_floor(phys, grid)
    g_rho0 = phys.g * phys.rho0()
    for lam in (5.0, lm._first_admissible(floor)):
        flow = lm.solve_laminar(phys, lam, grid)
        coef = sp.shot_coefficients(flow, phys)
        for ns in ((0,), (1,), tuple(range(2, 10)), (64,), (1000,)):
            products = sp._transfer(coef, ns)
            for n, (p00, p01, p10, p11, e) in zip(ns, products):
                if lam == 5.0:
                    assert (e > 0) == (n == 1000 and n_p == 512), n
                for m0, M0p in _STARTS:
                    M, Mp, _, _ = sp._march(coef, n, m0=m0, M0p=M0p)
                    w0 = coef.a_nodes[0] ** 3 * M0p
                    end = (p00 * m0 + p01 * w0,
                           (p10 * m0 + p11 * w0) * coef.ia3_n[-1])
                    D, scale = sp._mismatch_at(lam, phys.sigma, g_rho0, n,
                                               end)
                    D_ref, scale_ref = sp._mismatch_at(
                        lam, phys.sigma, g_rho0, n, (M[-1], Mp[-1]))
                    assert abs(D / scale - D_ref / scale_ref) \
                        <= TRANSFER_BOUND, (n, m0, lam)
    for n in range(1, 7):
        march = _relative_march(phys, grid, n)
        ref = lm._smallest_root(lambda x: (march(x),), floor,
                                lm.LAMBDA_CAP)[0]
        assert sp.find_lambda_star(phys, grid, n) == pytest.approx(
            ref, rel=1e-13, abs=0.0), n


@pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 17, 40])
def test_product_matches_sequential(length):
    # levels of odd length carry their last matrix up, the last 8 run on
    # floats; the unscaled product, and the rescaled one of a column whose
    # product is about 1e200, against a plain loop
    rng = np.random.default_rng(length)
    T = rng.uniform(-2.0, 2.0, (2, 2, 3, length))
    T[:, :, 2] *= 10.0 ** (200 / length)
    for rescale, columns in ((False, 2), (True, 3)):
        products = sp._product(T[:, :, :columns], rescale=rescale)
        for b, (p00, p01, p10, p11, e) in enumerate(products):
            want = np.eye(2)
            for k in range(length):
                want = T[:, :, b, k] @ want
            got = np.ldexp(np.array([[p00, p01], [p10, p11]]), e)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), (b, rescale)
            assert (e > 0) == (b == 2 and length > 1)


def _zero_mode_forced(flow, physics):
    """``shoot_zero_mode`` as it stood with a forced shot: M = u1 + m0 u2,
    u2 from the forcing -g rho_p and zero data, m0 = u1(0) / (1 - u2(0));
    the reference of the superposition through v = 1 - u2."""
    u1 = _shoot_loop(flow, physics, 0)
    u2 = _shoot_loop(flow, physics, 0, forcing=-physics.g, M0p=0.0)
    m0 = u1[0][-1] / (1.0 - u2[0][-1])
    M, Mp, Mpp = (a + m0 * b for a, b in zip(u1[:3], u2[:3]))
    mode = sp.EigenMode(n=0, lam=flow.lam, M=M, Mp=Mp, Mpp=Mpp,
                        normalization="shooting")
    return mode, sp.dispersion(flow, physics, mode)[0]


@pytest.mark.parametrize("case", [*_SHOOT_PROFILES, "table-rho"])
def test_zero_mode_matches_forced_reference(case):
    # the march tests' profiles and the table rho.  Measured at N_p = 512:
    # D0 equal to the bit; max |dM| <= 1.3e-15, |dM'| <= 2.3e-16,
    # |dM''| <= 2.8e-17, with M = O(1); at lambda_* |dD0| <= 1.7e-16 scale
    phys = _shoot_case_physics(case)
    grid = pr.PGrid(-1.0, 512)
    flow = lm.solve_laminar(phys, 5.0, grid)
    mode, D0 = sp.shoot_zero_mode(flow, phys)
    ref, D0_ref = _zero_mode_forced(flow, phys)
    _, scale = sp.dispersion(flow, phys, ref)
    assert abs(D0 - D0_ref) <= 1e-14 * scale
    for name in ("M", "Mp", "Mpp"):
        assert np.max(np.abs(getattr(mode, name) - getattr(ref, name))) \
            <= 1e-14, name
    D0_end, scale_end = sp._dispersion_at(flow, phys, 0)
    assert abs(D0_end / scale_end - sp._relative(flow, phys, mode)) \
        <= TRANSFER_BOUND


@pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
def test_find_lambda_star_vs_oracle(t0, grid128, sigma):
    lam = sp.find_lambda_star(replace(t0, sigma=sigma), grid128)
    oracle = irrotational_lambda_star(1, sigma)
    assert abs(lam / oracle - 1.0) < 1e-8


def test_find_lambda_star_pure_capillary(grid128):
    phys = make_physics(g=0.0, sigma=1.0)
    lam = sp.find_lambda_star(phys, grid128)
    oracle = irrotational_lambda_star(1, 1.0, g=0.0)
    assert abs(lam / oracle - 1.0) < 1e-8


def test_rayleigh_mu_at_lambda_star(t0, grid128):
    for sigma in (0.5, 2.0):
        lam = sp.find_lambda_star(replace(t0, sigma=sigma), grid128)
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
    bp = sp.classify(t0, grid128)     # sigma = 1 > sigma_c = 1/3
    assert bp.classification == "Simple"
    assert len(bp.modes) == 1


def test_classify_zero_mode(t0, grid128):
    sigma = 1.0 / np.tanh(1.0) - 1.0
    bp = sp.classify(replace(t0, sigma=sigma), grid128)
    assert bp.classification == "ZeroMode"
    assert bp.lambda_star == pytest.approx(1.0, abs=1e-6)


def test_classify_double3(double3):
    t0, grid, bp, flow = double3
    assert bp.classification == "Double"
    assert bp.n2 == 3
    assert len(bp.modes) == 2


def _classify_counting_modes(physics, grid, monkeypatch):
    """classify's point and the number of EigenModes it built."""
    built = []

    def counted(**fields):
        built.append(fields["n"])
        return eigen_mode(**fields)

    eigen_mode = sp.EigenMode
    with monkeypatch.context() as patch:
        patch.setattr(sp, "EigenMode", counted)
        bp = sp.classify(physics, grid)
    return bp, len(built)


def test_classify_records_only_the_modes_it_returns(t0, grid128, double3,
                                                    monkeypatch):
    # the zero mode was recorded at every point, to read D0 alone
    zero = replace(t0, sigma=1.0 / np.tanh(1.0) - 1.0)
    physics_d, grid_d = double3[0], double3[1]
    for physics, grid, label in ((t0, grid128, "Simple"),
                                 (physics_d, grid_d, "Double"),
                                 (zero, grid128, "ZeroMode")):
        bp, built = _classify_counting_modes(physics, grid, monkeypatch)
        assert bp.classification == label
        assert built == len(bp.modes) == (1 if label == "Simple" else 2)


def _scan_one_n_at_a_time(physics, grid, n_max):
    """``classify``'s residuals, class and n2 from one ``_dispersion_at``
    per n, the scan as it stood before the batched products."""
    lam = sp.find_lambda_star(physics, grid)
    flow = lm.solve_laminar(physics, lam, grid)
    mode1 = sp.shoot_mode(flow, physics, 1)
    residuals = {1: abs(sp._relative(flow, physics, mode1))}
    D0, scale0 = sp._dispersion_at(flow, physics, 0)
    residuals[0] = abs(D0 / scale0)
    resonant, grow_streak, prev_gap = [], 0, None
    for n in range(2, n_max + 1):
        D, scale = sp._dispersion_at(flow, physics, n)
        residuals[n] = abs(D / scale)
        if residuals[n] < sp.RESONANCE_RTOL:
            resonant.append(n)
        gap = -D / scale
        grow = gap > 0 and prev_gap is not None and gap > prev_gap
        grow_streak = grow_streak + 1 if grow else 0
        prev_gap = gap if gap > 0 else None
        if grow_streak >= 3:
            break
    if residuals[0] < sp.RESONANCE_RTOL:
        return residuals, "ZeroMode", 0
    if resonant:
        return residuals, "Double", resonant[0]
    return residuals, "Simple", None


# the nine points of the analyze-sweep benchmark workload (N_p = 512); a
# double point at the sigma find_double_sigma gives, as --n2 resolves it
SWEEP_POINTS = {
    "simple": (lambda: make_physics(), None),
    "zero-mode": (lambda: make_physics(sigma=1.0 / np.tanh(1.0) - 1.0), None),
    "double2": (lambda: make_physics(), 2),
    "double3": (lambda: make_physics(), 3),
    "double4": (lambda: make_physics(), 4),
    "rho-p10": (lambda: make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1)),
                None),
    "rho-p5": (lambda: make_physics(sigma=20.0, rho_coeffs=(1.0, -0.2)),
               None),
    "beta-0.2s": (lambda: make_physics(beta_coeffs=(0.0, 0.2)), None),
    "rho-table": (lambda: _table_rho_physics(), None),
}


@pytest.mark.parametrize("point, n_max", [*((p, 64) for p in SWEEP_POINTS),
                                          ("double4", 5), ("simple", 3)])
def test_classify_scan_matches_one_n_at_a_time(point, n_max):
    # double4 scans to n = 8, past the first block (n = 2..7); n_max = 5
    # and 3 end the scan inside that block
    make, n2 = SWEEP_POINTS[point]
    physics, grid = make(), pr.PGrid(-1.0, 512)
    if n2 is not None:
        physics = replace(physics, sigma=sp.find_double_sigma(physics, grid,
                                                              n2)[0])
    bp = sp.classify(physics, grid, n_max=n_max)
    residuals, label, n2_ref = _scan_one_n_at_a_time(physics, grid, n_max)
    assert bp.residuals == residuals
    assert (bp.classification, bp.n2) == (label, n2_ref)


def test_zero_mode_has_no_sinh_normalization(t0, grid128):
    # n / sqrt(lambda) = 0 scaled the mode to zeros
    flow = lm.solve_laminar(t0, 2.0, grid128)
    mode, _ = sp.shoot_zero_mode(flow, t0)
    with pytest.raises(ValueError):
        mode.renormalized("sinh")
    assert mode.renormalized("shooting") is mode


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
            lam = sp.find_lambda_star(replace(t0, sigma=sigma), grid128, n=n)
            oracle = irrotational_lambda_star(n, sigma)
            assert abs(lam / oracle - 1.0) < 1e-8


def test_stratified_lambda_star_and_mu(stratified):
    grid = pr.PGrid(-1.0, 128)
    lam = sp.find_lambda_star(stratified, grid)
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


# the golden-manifest configs c64, s64 and c512, and beta(s) = 0.2 s
LAMBDA_STAR_CASES = {
    "c64": ({}, 64),
    "s64": ({"sigma": 10.0, "rho_coeffs": (1.0, -0.1)}, 64),
    "c512": ({}, 512),
    "beta-0.2s": ({"beta_coeffs": (0.0, 0.2)}, 64),
}


@pytest.mark.parametrize("case", sorted(LAMBDA_STAR_CASES))
def test_find_lambda_star_matches_linear_scan(case):
    kwargs, n_p = LAMBDA_STAR_CASES[case]
    phys = make_physics(**kwargs)
    grid = pr.PGrid(-1.0, n_p)
    floor = lm.lambda_floor(phys, grid)
    for n in range(1, 7):
        ref = _smallest_root_scan(_relative_D(phys, grid, n), floor,
                                  lm.LAMBDA_CAP)
        assert sp.find_lambda_star(phys, grid, n) == ref, n


def _one_sign_change(root, sign, shape):
    shapes = {"linear": lambda d: d, "cbrt": np.cbrt, "tanh": np.tanh}
    return lambda x: sign * float(shapes[shape](x - root))


@settings(database=None, derandomize=True, max_examples=300)
@given(floor=st.sampled_from([-2.0, 1e-6, 0.2, 4.0]),
       offset=st.one_of(st.floats(0.0, lm.LAMBDA_CAP),
                        st.floats(-10.0, 6.1).map(lambda t: 10.0 ** t)),
       sign=st.sampled_from([-1.0, 1.0]),
       shape=st.sampled_from(["linear", "cbrt", "tanh"]))
def test_smallest_root_matches_linear_scan(floor, offset, sign, shape):
    # the root anywhere from the floor up to the cap, and past it
    f = _one_sign_change(floor + offset, sign, shape)
    got = lm._smallest_root(lambda x: (f(x),), floor, lm.LAMBDA_CAP)
    ref = _smallest_root_scan(f, floor, lm.LAMBDA_CAP)
    assert got == (None if ref is None else (ref, (f(ref),)))


def test_smallest_root_without_sign_change_is_none():
    for floor in (-2.0, 1e-6, 4.0):
        for value in (-1.0, 1.0):
            assert lm._smallest_root(lambda x: (value,), floor,
                                     lm.LAMBDA_CAP) is None
    # a flip past the cap is no flip
    assert lm._smallest_root(lambda x: (x - 2.0,), 0.2, 1.0) is None


def test_smallest_root_zero_at_the_first_sample():
    for floor in (-2.0, 1e-6, 4.0):
        x0 = lm._first_admissible(floor)
        assert lm._smallest_root(lambda x: (x - x0,), floor,
                                 lm.LAMBDA_CAP) == (x0, (0.0,))


def test_find_lambda_star_without_sign_change_raises(grid64):
    # g = sigma = 0: D = lambda^{3/2} M'(0) > 0 at every lambda
    with pytest.raises(LBViolatedError):
        sp.find_lambda_star(make_physics(g=0.0, sigma=0.0), grid64)


def test_lambda_star_search_evaluates_each_lambda_once(t0, monkeypatch):
    # c512 simple point: a walk up every sample took 31 laminar solves
    # and classify 2 more at lambda_*
    grid = pr.PGrid(-1.0, 512)
    calls = _count_laminar_solves(monkeypatch)
    sp.find_lambda_star(t0, grid)
    assert len(calls) <= 12
    assert len(set(calls)) == len(calls)
    searched = len(calls)
    del calls[:]
    sp.classify(t0, grid)
    assert len(calls) == searched


def test_classify_takes_flow_and_mode_from_the_search(stratified):
    grid = pr.PGrid(-1.0, 64)
    bp = sp.classify(stratified, grid)
    flow = lm.solve_laminar(stratified, bp.lambda_star, grid)
    for name in ("H", "Hp", "G", "Ydot", "Gdot"):
        assert np.array_equal(getattr(bp.flow, name), getattr(flow, name))
    mode = sp.shoot_mode(flow, stratified, 1)
    for name in ("M", "Mp", "Mpp"):
        assert np.array_equal(getattr(bp.modes[0], name),
                              getattr(mode, name))
    # the shared coefficient samples give every mode bit-equal
    coef = sp.shot_coefficients(flow, stratified)
    for n in (2, 5):
        shared = sp.shoot_mode(flow, stratified, n, coefficients=coef)
        alone = sp.shoot_mode(flow, stratified, n)
        assert np.array_equal(shared.Mpp, alone.Mpp)


def _shot_coefficients_scipy(flow, physics):
    """``sp.shot_coefficients`` as it stood before the row helpers and the
    cached profile samples: scipy's PCHIP of G and its derivative object,
    rho_p sampled through the profile; the reference for bit-equality."""
    p = flow.grid.nodes
    h = float(flow.grid.h)
    G_interp = PchipInterpolator(p, flow.G, extrapolate=True)
    half = p[:-1] + 0.5 * h
    a_nodes = np.sqrt(flow.lam + G_interp(p))
    a_half = np.sqrt(flow.lam + G_interp(half))
    inv_a3_nodes = a_nodes ** -3.0
    return {"a_nodes": a_nodes, "a_half": a_half,
            "ap_nodes": G_interp.derivative()(p) / (2.0 * a_nodes),
            "rp_nodes": physics.rho_p(p), "rp_half": physics.rho_p(half),
            "inv_a3_nodes": inv_a3_nodes, "inv_a3_half": a_half ** -3.0,
            "ia3_n": inv_a3_nodes.tolist(), "ia3_h": (a_half ** -3.0).tolist()}


def _table_rho_physics():
    rho = pr.ProfileFn.table([-1.0, -0.5, 0.0], [1.15, 1.06, 1.0])
    return pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=10.0, rho=rho,
                      beta=pr.ProfileFn.poly((0.0,), 0.0, 1.0))


COEFFICIENT_CASES = {
    "constant": lambda: make_physics(),
    "linear-rho": lambda: make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1)),
    "quadratic-rho": lambda: make_physics(sigma=10.0,
                                          rho_coeffs=(1.0, -0.1, -0.04)),
    "table-rho": _table_rho_physics,
    "beta-0.2s": lambda: make_physics(beta_coeffs=(0.0, 0.2)),
}


@pytest.mark.parametrize("n_p", [64, 512])
@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_shot_coefficients_match_scipy_route(case, n_p, monkeypatch):
    phys = COEFFICIENT_CASES[case]()
    grid = pr.PGrid(-1.0, n_p)
    lam_star = sp.find_lambda_star(phys, grid)
    for lam in (lam_star, 3.0 * lam_star):
        flow = lm.solve_laminar(phys, lam, grid)
        ref = _shot_coefficients_scipy(flow, phys)
        with monkeypatch.context() as patch:
            # no profile sampled: the grid's cache
            def forbidden(*args, **kwargs):
                raise AssertionError("shot_coefficients sampled anew")
            patch.setattr(pr.ProfileFn, "deriv", forbidden)
            coef = sp.shot_coefficients(flow, phys)
        for name, value in ref.items():
            assert np.array_equal(getattr(coef, name), value), (name, lam)


@pytest.mark.parametrize("physics, n_p", [("t0", 512), ("stratified", 64)])
def test_lambda_derivatives_only_for_the_returned_flow(physics, n_p, request,
                                                       monkeypatch):
    # a c512 search evaluates 10-12 flows; each ran the derivative fixed
    # point when it was solved
    phys = request.getfixturevalue(physics)
    grid = pr.PGrid(-1.0, n_p)
    calls = []

    def counted(*args):
        calls.append(args[1])
        return derivatives(*args)

    derivatives = lm._lambda_derivatives
    monkeypatch.setattr(lm, "_lambda_derivatives", counted)
    sp.find_lambda_star(phys, grid)
    assert calls == []
    bp = sp.classify(phys, grid)
    bifurc.coefficient_set(bp.flow, phys, *bp.modes[:1])
    assert calls == [bp.lambda_star]
    fresh = lm.solve_laminar(phys, bp.lambda_star, grid)
    for name in ("Ydot", "Gdot", "Qdot"):
        assert np.array_equal(getattr(bp.flow, name), getattr(fresh, name))


def _shot_coefficients_locate(flow, physics):
    """``sp.shot_coefficients`` as it stood before the per-profile G
    samples and the known intervals: the PCHIP of this flow's G fitted
    anew, every station located by ``_locate``; the reference for
    bit-equality."""
    grid = flow.grid
    nodes = grid.N_p + 1
    p = grid.nodes[None, :]
    G = flow.G[None, :]
    pchip = pw._hermite(p, G, pw._pchip_slopes(p, G))
    stations = np.concatenate([p, grid.half_nodes[None, :]], axis=1)
    a = np.sqrt(flow.lam + pw._evaluate(p, pchip, stations)[0])
    a_nodes = a[:nodes]
    ap_nodes = pw._evaluate(p, pchip, p, derivative=True)[0] / (2.0 * a_nodes)
    inv_a3 = a ** -3.0
    given = lm._given_data(physics.rho, physics.beta, grid)
    return sp.ShotCoefficients(
        h=float(grid.h), N_p=grid.N_p, g=physics.g, a_nodes=a_nodes,
        a_half=a[nodes:], ap_nodes=ap_nodes, rp_nodes=given.rho_p,
        rp_half=given.rho_p_half, inv_a3_nodes=inv_a3[:nodes],
        inv_a3_half=inv_a3[nodes:], ia3_n=inv_a3[:nodes].tolist(),
        ia3_h=inv_a3[nodes:].tolist())


def _count_fits(monkeypatch):
    """Record each G that ``shot_coefficients`` fits a PCHIP to."""
    fitted = []

    def recorded(given, G):
        fitted.append(G)
        return lm._pchip_samples(given, G)

    monkeypatch.setattr(sp, "_pchip_samples", recorded)
    return fitted


def _assert_same_coefficients(got, want):
    for name in sp.ShotCoefficients.__dataclass_fields__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n_p", [64, 512])
@pytest.mark.parametrize("case", sorted(COEFFICIENT_CASES))
def test_shot_coefficients_match_locate_route(case, n_p, monkeypatch):
    phys = COEFFICIENT_CASES[case]()
    grid = pr.PGrid(-1.0, n_p)
    given = lm._given_data(phys.rho, phys.beta, grid)
    # node k in interval k, the last node in N_p - 1, half step k in k
    known = np.r_[np.arange(n_p), n_p - 1, np.arange(n_p)]
    assert np.array_equal(given.intervals, known[None, :])
    homogeneous = case in ("constant", "beta-0.2s")
    assert given.homogeneous == homogeneous
    lam_star = sp.find_lambda_star(phys, grid)
    for lam in (lam_star, 3.0 * lam_star):
        flow = lm.solve_laminar(phys, lam, grid)
        ref = _shot_coefficients_locate(flow, phys)
        with monkeypatch.context() as patch:
            def forbidden(*args, **kwargs):
                raise AssertionError("a station was located anew")
            patch.setattr(pw, "_locate", forbidden)
            fitted = _count_fits(patch)
            coef = sp.shot_coefficients(flow, phys)
        _assert_same_coefficients(coef, ref)
        # a homogeneous flow reads the profile's samples, fitted once
        assert len(fitted) == (0 if homogeneous else 1), lam


@pytest.mark.parametrize("beta", [(0.0, 0.2), (0.1, -0.3, 0.2)])
def test_perturbed_G_is_fitted_anew(beta, monkeypatch):
    # beta = 0 has G = 0, which the perturbation leaves as it is
    phys = make_physics(beta_coeffs=beta)
    grid = pr.PGrid(-1.0, 64)
    flow = lm.solve_laminar(phys, 2.0, grid)
    perturbed = replace(flow, G=flow.G * (1 + 1e-9))
    assert not np.array_equal(perturbed.G, flow.G)
    fitted = _count_fits(monkeypatch)
    sp.shot_coefficients(flow, phys)
    assert fitted == []
    coef = sp.shot_coefficients(perturbed, phys)
    assert len(fitted) == 1 and fitted[0] is perturbed.G
    _assert_same_coefficients(coef, _shot_coefficients_locate(perturbed,
                                                              phys))
    assert not np.array_equal(coef.a_nodes,
                              sp.shot_coefficients(flow, phys).a_nodes)


def test_find_double_sigma_builds_no_physics(t0, grid64, monkeypatch):
    # each Newton step built three Physics, each probing rho at 101 points
    built = []
    post_init = pr.Physics.__post_init__

    def counted(self):
        built.append(self.sigma)
        post_init(self)

    monkeypatch.setattr(pr.Physics, "__post_init__", counted)
    sigma_d, lam_d = sp.find_double_sigma(t0, grid64, 3)
    assert built == []
    bp = sp.classify(replace(t0, sigma=sigma_d), grid64)
    assert bp.classification == "Double" and bp.n2 == 3
