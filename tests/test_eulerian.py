from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, PchipInterpolator

from conftest import make_physics
from stratiwave import eulerian as eu
from stratiwave import heightsolver as hs
from stratiwave import laminar as lm
from stratiwave import profiles as pr
from stratiwave import spectral as sp
from stratiwave.errors import EllipticityLossError


def _flux_reference(wave, column):
    """Column integral of sqrt(rho) (u - c) over depth: approximates p0.

    The integrand is resampled onto a uniform y-grid in [-d, eta(x)] by
    monotone cubic interpolation and integrated with Simpson's rule.
    One scipy PchipInterpolator per column: the reference that
    ``eu.flux_all_columns`` batches across columns.
    """
    yk = wave.y[column]
    fk = np.sqrt(wave.rho[column]) * (wave.u[column] - wave.c)
    if np.any(np.diff(yk) <= 0):
        raise EllipticityLossError("column heights not strictly increasing")
    n_resample = 4 * (yk.size - 1)
    yy = np.linspace(yk[0], yk[-1], n_resample + 1)
    ff = PchipInterpolator(yk, fk)(yy)
    w = np.ones(n_resample + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    hstep = (yk[-1] - yk[0]) / n_resample
    return float((hstep / 3.0) * (w @ ff))


def _yih_reference(wave, physics):
    """Max-abs residual of the stream-function equation

        Delta psi - g y rho'(-psi) + beta(psi) = 0

    after resampling psi = -p onto a uniform Cartesian grid in the fluid
    (column-wise monotone interpolation of y(p)), 5-point Laplacian, and
    restriction to points at least two cells from every boundary.
    Row by row with scalar profile calls and one scipy CubicSpline per
    column: the reference that ``eu.yih_residual`` does on the whole grid.
    """
    nx = wave.x.size - 1
    dx = wave.x[1] - wave.x[0]
    n_y = wave.p.size - 1
    y_lo = -wave.d
    y_hi = float(np.max(wave.eta))
    dy = (y_hi - y_lo) / n_y
    yy = y_lo + dy * np.arange(n_y + 1)
    # psi(x_i, y) by inverting the monotone map p -> y(x_i, p)
    psi = np.full((nx, n_y + 1), np.nan)
    depth_ok = np.zeros((nx, n_y + 1), dtype=bool)
    for ix in range(nx):
        ycol = wave.y[ix]
        # y(p) is strictly monotone, so a C^2 spline inverts it without
        # the order loss a shape-limited interpolant shows under the
        # Laplacian's second differences
        interp = CubicSpline(ycol, wave.p)
        inside = (yy >= ycol[0]) & (yy <= ycol[-1])
        psi[ix, inside] = -interp(yy[inside])
        depth_ok[ix, inside] = True
    # interior points two cells clear of bed and surface, with full stencils
    worst = 0.0
    g = physics.g
    ixp = np.roll(np.arange(nx), -1)
    ixm = np.roll(np.arange(nx), 1)
    for iy in range(2, n_y - 1):
        ok = (depth_ok[:, iy] & depth_ok[:, iy - 1] & depth_ok[:, iy + 1]
              & depth_ok[ixp, iy] & depth_ok[ixm, iy]
              & depth_ok[:, iy + 2] & (yy[iy] >= y_lo + 2 * dy))
        # stay two cells below the local surface
        for ix in np.nonzero(ok)[0]:
            if yy[iy] > wave.y[ix, -1] - 2 * dy:
                ok[ix] = False
        if not np.any(ok):
            continue
        lap = ((psi[ixp, iy] - 2.0 * psi[:, iy] + psi[ixm, iy]) / dx ** 2
               + (psi[:, iy + 1] - 2.0 * psi[:, iy] + psi[:, iy - 1]) / dy ** 2)
        pvals = -psi[:, iy]
        rp = np.array([physics.rho.deriv(min(max(pp, wave.p0), 0.0))
                       for pp in pvals])
        bt = np.array([physics.beta.eval(min(max(-pp, 0.0), abs(wave.p0)))
                       for pp in pvals])
        resid = lap - g * yy[iy] * rp + bt
        cand = float(np.max(np.abs(resid[ok])))
        worst = max(worst, cand)
    return worst


def _flux_full_reference(wave):
    """``eu.flux_all_columns`` on every column of the even extension, as it
    was before it took the half period and mirrored."""
    y = eu._increasing_columns(wave.y)
    f = np.sqrt(wave.rho) * (wave.u - wave.c)
    n = 4 * (y.shape[1] - 1)
    yy = np.linspace(y[:, 0], y[:, -1], n + 1, axis=1)
    ff = eu._evaluate(y, eu._hermite(y, f, eu._pchip_slopes(y, f)), yy)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    hstep = (y[:, -1] - y[:, 0]) / n
    return (hstep / 3.0) * (ff @ w)


def _locate_by_sort(knots, points):
    """``eu._locate`` as a stable sort of each row's knots followed by its
    increasing points: every point lands after the knots at or below it
    and after the points before it."""
    nk, npt = knots.shape[1], points.shape[1]
    order = np.argsort(np.concatenate([knots, points], axis=1), axis=1,
                       kind="stable")
    rank = np.nonzero(order >= nk)[1].reshape(points.shape)
    return np.clip(rank - np.arange(npt) - 1, 0, nk - 2)


def _bernoulli_three_splines(wave, physics):
    """``eu.surface_bernoulli_residual`` with one periodic spline each for
    eta, u and v on the surface."""
    x = wave.x
    eta = wave.eta
    dx = x[1] - x[0]
    eta_i = CubicSpline(x, eta, bc_type="periodic")
    u_i = CubicSpline(x, wave.u[:, -1], bc_type="periodic")
    v_i = CubicSpline(x, wave.v[:, -1], bc_type="periodic")
    mid = 0.5 * (x[:-1] + x[1:])
    e = eta_i(mid)
    ex = (eta_i(mid + dx) - eta_i(mid - dx)) / (2.0 * dx)
    exx = (eta_i(mid + dx) - 2.0 * e + eta_i(mid - dx)) / dx ** 2
    kappa = -exx / (1.0 + ex ** 2) ** 1.5
    rho_s = physics.rho0()
    us, vs = u_i(mid), v_i(mid)
    resid = (rho_s * ((us - wave.c) ** 2 + vs ** 2)
             + 2.0 * physics.g * rho_s * (e + wave.d)
             + 2.0 * physics.sigma * kappa - wave.Q)
    return float(np.max(np.abs(resid)))


def _solved_field(phys, N):
    # Newton solve at frozen amplitude 0.06 from the simple-point germ
    grid = pr.PGrid(-1.0, N)
    lam_star = sp.find_lambda_star(phys, grid)
    flow = lm.solve_laminar(phys, lam_star, grid)
    mode = sp.shoot_mode(flow, phys, 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 0.06 / mode.M[-1], N)
    return hs.newton(phys, germ, frozen="amplitude",
                     amplitude_target=0.06)


@pytest.fixture(scope="module")
def solved_waves():
    # constant density; rho' != 0; table rho (PCHIP deriv) with beta != 0;
    # the rho' != 0 field with noise on its top streamlines, whose largest
    # residuals sit at the surface clearance, so that a wrong clearance
    # rule changes the maximum
    table_rho = pr.ProfileFn.table([-1.0, -0.5, 0.0], [1.15, 1.06, 1.0])
    table = pr.Physics(g=1.0, c=1.0, p0=-1.0, sigma=10.0, rho=table_rho,
                       beta=pr.ProfileFn.poly((0.0, 0.2), 0.0, 1.0))
    strat = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1))
    fields = [(make_physics(), _solved_field(make_physics(), 32)),
              (strat, _solved_field(strat, 32)),
              (table, _solved_field(table, 16))]
    sol = fields[1][1]
    noise = np.zeros(sol.h.shape)
    noise[:, -4:-1] = 1e-4 * np.random.default_rng(5).standard_normal(
        (sol.h.shape[0], 3))
    fields.append((strat, replace(sol, h=sol.h + noise)))
    return [(phys, eu.reconstruct(phys, fld)) for phys, fld in fields]


@pytest.fixture(scope="module")
def small_wave(t0):
    grid = pr.PGrid(-1.0, 64)
    lam_star = sp.find_lambda_star(t0, grid)
    flow = lm.solve_laminar(t0, lam_star, grid)
    mode = sp.shoot_mode(flow, t0, 1)
    germ = hs.germ_field(flow, (mode, mode), (1.0, 0.0), 0.05 / mode.M[-1], 64)
    sol = hs.newton(t0, germ, frozen="amplitude")
    return sol


def test_reconstruct_laminar(t0, grid64):
    flow = lm.solve_laminar(t0, 4.0, grid64)
    wave = eu.reconstruct(t0, hs.laminar_field(flow, 64))
    assert np.allclose(wave.u, -1.0, atol=1e-12)        # c - 1/H_p = 1 - 2
    assert np.allclose(wave.v, 0.0)
    assert np.allclose(wave.eta, 0.0, atol=1e-14)
    assert wave.d == pytest.approx(0.5)
    assert np.allclose(wave.v[:, 0], 0.0)               # bed row


def test_reconstruct_pure_capillary(grid64):
    phys = make_physics(g=0.0)
    flow = lm.solve_laminar(phys, 4.0, grid64)
    wave = eu.reconstruct(phys, hs.laminar_field(flow, 64))
    assert np.allclose(wave.u, phys.c - 2.0, atol=1e-12)


def test_reconstruct_symmetries(t0, small_wave):
    wave = eu.reconstruct(t0, small_wave)
    n = wave.x.size - 1
    # u, eta even and v odd about x = 0 on the reflected grid
    assert np.allclose(wave.u, wave.u[::-1, :], atol=1e-14)
    assert np.allclose(wave.eta, wave.eta[::-1], atol=1e-14)
    assert np.allclose(wave.v, -wave.v[::-1, :], atol=1e-14)
    assert abs(np.mean(wave.eta[:-1])) < 1e-12
    assert np.max(wave.u) < t0.c


def test_reconstruct_requires_ellipticity(t0, grid64):
    h = np.tile(-(grid64.nodes + 1.0), (9, 1))
    fld = hs.HeightField(Q=1.0, N_q=8, pgrid=grid64, h=h)
    with pytest.raises(EllipticityLossError):
        eu.reconstruct(t0, fld)


def test_flux_laminar_exact(t0, grid64):
    flow = lm.solve_laminar(t0, 4.0, grid64)
    wave = eu.reconstruct(t0, hs.laminar_field(flow, 64))
    assert eu.flux_all_columns(wave)[0] == pytest.approx(-1.0, abs=1e-10)


def test_flux_uniform_across_columns(t0, small_wave):
    wave = eu.reconstruct(t0, small_wave)
    fluxes = eu.flux_all_columns(wave)
    assert np.max(np.abs(fluxes + 1.0)) < 1e-4
    assert np.max(np.abs(fluxes - fluxes[0])) < 1e-4


def test_flux_matches_column_reference(solved_waves):
    # same resampled integrand; only the Simpson sum may round differently
    for _, wave in solved_waves:
        ref = np.array([_flux_reference(wave, ix)
                        for ix in range(wave.x.size)])
        assert np.max(np.abs(eu.flux_all_columns(wave) - ref)) \
            <= 1e-12 * np.max(np.abs(ref))


def test_oracles_reject_folded_column(t0, small_wave):
    wave = eu.reconstruct(t0, small_wave)
    y = wave.y.copy()
    y[3, 10], y[3, 11] = y[3, 11], y[3, 10]
    with pytest.raises(EllipticityLossError):
        eu.flux_all_columns(replace(wave, y=y))
    with pytest.raises(EllipticityLossError):
        eu.yih_residual(replace(wave, y=y), t0)


def test_oracles_reject_folded_mirrored_column(t0, small_wave):
    # column 2 N_q - 3 lies in the mirrored half, which the oracles check
    # for folds but do not resample
    wave = eu.reconstruct(t0, small_wave)
    y = wave.y.copy()
    ix = wave.x.size - 4
    y[ix, 10], y[ix, 11] = y[ix, 11], y[ix, 10]
    with pytest.raises(EllipticityLossError):
        eu.flux_all_columns(replace(wave, y=y))
    with pytest.raises(EllipticityLossError):
        eu.yih_residual(replace(wave, y=y), t0)


def test_half_period_oracles_match_full_extension(solved_waves):
    # the mirrored integrals, one stacked surface spline and the sort-free
    # interval search reproduce the full-period numbers bit for bit
    for phys, wave in solved_waves:
        full = _flux_full_reference(wave)
        assert np.array_equal(full, full[::-1])
        assert np.array_equal(eu.flux_all_columns(wave), full)
        assert eu.surface_bernoulli_residual(wave, phys) \
            == _bernoulli_three_splines(wave, phys)
        y = wave.y
        yy = np.linspace(y[:, 0], y[:, -1], 4 * y.shape[1] - 3, axis=1)
        assert np.array_equal(eu._locate(y, yy), _locate_by_sort(y, yy))


def test_yih_sums_mirrored_neighbours_both_ways():
    # on this noisy field the largest residual sits on a mirrored column,
    # where e - 2c + w and w - 2c + e round apart in the last bit
    strat = make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1))
    sol = _solved_field(strat, 16)
    noise = np.zeros(sol.h.shape)
    noise[:, 1:-1] = 1e-3 * np.random.default_rng(27).standard_normal(
        (sol.h.shape[0], sol.h.shape[1] - 2))
    wave = eu.reconstruct(strat, replace(sol, h=sol.h + noise))
    assert eu.yih_residual(wave, strat) == _yih_reference(wave, strat)


@st.composite
def _knots_and_points(draw):
    rows = draw(st.integers(1, 4))
    nk = draw(st.integers(2, 9))
    npt = draw(st.integers(1, 12))
    steps = st.floats(1e-3, 10.0)
    knots, points = [], []
    for _ in range(rows):
        row = np.cumsum([draw(st.floats(-5.0, 5.0))]
                        + draw(st.lists(steps, min_size=nk - 1,
                                        max_size=nk - 1)))
        # points below the first knot, on knots and above the last
        pool = st.one_of(st.sampled_from(row.tolist()),
                         st.floats(row[0] - 5.0, row[-1] + 5.0))
        knots.append(row)
        points.append(np.sort(draw(st.lists(pool, min_size=npt,
                                            max_size=npt))))
    return np.array(knots), np.array(points)


@settings(max_examples=200, deadline=None)
@given(_knots_and_points())
def test_locate_matches_sort(data):
    knots, points = data
    assert np.array_equal(eu._locate(knots, points),
                          _locate_by_sort(knots, points))


def test_surface_bernoulli_laminar_zero(t0, grid64):
    flow = lm.solve_laminar(t0, 4.0, grid64)
    wave = eu.reconstruct(t0, hs.laminar_field(flow, 64))
    assert eu.surface_bernoulli_residual(wave, t0) < 1e-12


def test_surface_bernoulli_detects_corruption(t0, small_wave):
    wave = eu.reconstruct(t0, small_wave)
    clean = eu.surface_bernoulli_residual(wave, t0)
    rng = np.random.default_rng(3)
    bad_field = small_wave.h + 1e-3 * rng.standard_normal(small_wave.h.shape)
    from dataclasses import replace
    bad = eu.reconstruct(t0, replace(small_wave, h=bad_field))
    assert eu.surface_bernoulli_residual(bad, t0) > 100 * max(clean, 1e-9)


def test_yih_laminar_linear_psi(t0, grid64):
    flow = lm.solve_laminar(t0, 4.0, grid64)
    wave = eu.reconstruct(t0, hs.laminar_field(flow, 64))
    assert eu.yih_residual(wave, t0) < 1e-10


def test_yih_laminar_with_vorticity():
    # beta = 1, rho = 1: psi_yy = -1, checked through the resampling
    phys = make_physics(beta_coeffs=(1.0,))
    errs = []
    for N in (32, 64):
        grid = pr.PGrid(-1.0, N)
        flow = lm.solve_laminar(phys, 4.0, grid)
        wave = eu.reconstruct(phys, hs.laminar_field(flow, N))
        errs.append(eu.yih_residual(wave, phys))
    assert errs[0] < 2e-3
    assert errs[0] / errs[1] > 3.0       # ~second order


def test_yih_matches_row_reference(solved_waves):
    residuals = []
    for phys, wave in solved_waves:
        residuals.append(eu.yih_residual(wave, phys))
        assert residuals[-1] == _yih_reference(wave, phys)
    assert all(0.0 < r < 5e-2 for r in residuals[:3])


def test_csv_emission(t0, small_wave):
    wave = eu.reconstruct(t0, small_wave)
    wcsv = eu.wave_csv(wave)
    assert wcsv.splitlines()[0] == "x,y,u,v,rho,psi"
    scsv = eu.surface_csv(wave)
    assert scsv.splitlines()[0] == "x,eta,kappa"
    assert len(scsv.strip().splitlines()) == wave.x.size + 1
