"""Mapping accepted height fields back to physical variables.

The height function on the half period extends evenly to the full period
(x-nodes 0..2pi).  Velocities follow from the coordinate change

    u = c - 1/(sqrt(rho) h_p),     v = -h_q / (sqrt(rho) h_p),

the streamline height is y(q, p) = h(q, p) - d(h), the surface is
eta(x) = h(x, 0) - d(h), and psi = -p on the mapped grid by construction.

Three independent residual oracles probe a stored solution without using
the discrete operator that produced it: the column mass flux against p0,
the surface Bernoulli identity (with its surface-tension term), and the
semilinear stream-function equation on a resampled Cartesian grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import EllipticityLossError
from .heightsolver import HeightField, derivatives
from .profiles import Physics


@dataclass(frozen=True)
class EulerianWave:
    """Physical fields of a wave on the full-period mapped grid."""

    x: np.ndarray          # 2 N_q + 1 nodes on [0, 2 pi]
    p: np.ndarray          # streamline labels, p0..0
    y: np.ndarray          # y(x, p) = h - d, indexed [ix, ip]
    u: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    eta: np.ndarray        # surface elevation, mean zero
    d: float
    Q: float
    c: float
    p0: float


def _mirror(n_q):
    """Half-period column of each full-period column ix = 0..2 N_q: the
    even extension maps ix to 2 N_q - ix."""
    return np.concatenate([np.arange(n_q + 1), np.arange(n_q - 1, -1, -1)])


def reconstruct(physics: Physics, hf: HeightField) -> EulerianWave:
    """Even-extend the half-period field and change variables."""
    hq_h, hp_h, _, _, _ = derivatives(hf)
    if np.any(hp_h <= 0):
        raise EllipticityLossError("h_p <= 0: reconstruction undefined")
    mirror = _mirror(hf.N_q)
    h = hf.h[mirror, :]
    hp = hp_h[mirror, :]
    hq = hq_h[mirror, :]
    hq[hf.N_q + 1:, :] *= -1.0          # h_q is odd under reflection
    d = hf.depth()
    p = hf.pgrid.nodes
    rho_row = physics.rho.eval(p)
    sr = np.sqrt(rho_row)[None, :]
    u = physics.c - 1.0 / (sr * hp)
    v = -hq / (sr * hp)
    x = np.linspace(0.0, 2.0 * np.pi, 2 * hf.N_q + 1)
    eta = h[:, -1] - d
    return EulerianWave(x=x, p=p, y=h - d, u=u, v=v,
                        rho=np.tile(rho_row, (2 * hf.N_q + 1, 1)),
                        eta=eta, d=d, Q=hf.Q, c=physics.c, p0=hf.pgrid.p0)


# --- piecewise cubics on every column at once -------------------------------
#
# Each row of a (columns, nodes) array is one interpolation problem; rows
# share no data.  The formulas are scipy's (PchipInterpolator, the
# not-a-knot CubicSpline, PPoly evaluation) written for whole arrays, so
# the interpolated values round as the scipy objects built per column do.

def _locate(knots, points):
    """Interval index i with knots[r, i] <= points[r, j] < knots[r, i + 1].

    Rows of ``knots`` are increasing; points outside a row's knots take
    its first or last interval, and a point on the last knot the last one.
    The index is the number of the row's knots at or below the point,
    minus one.
    """
    nk = knots.shape[1]
    rank = np.empty(points.shape, dtype=np.intp)
    for r in range(knots.shape[0]):
        rank[r] = np.searchsorted(knots[r], points[r], side="right")
    return np.clip(rank - 1, 0, nk - 2)


def _hermite(x, y, slopes):
    """Power-basis coefficients (c0, c1, c2, c3) of the cubic Hermite
    interpolant on each interval, c0 multiplying (t - x_i)^3."""
    dx = np.diff(x, axis=1)
    secant = np.diff(y, axis=1) / dx
    t = (slopes[:, :-1] + slopes[:, 1:] - 2 * secant) / dx
    return (t / dx, (secant - slopes[:, :-1]) / dx - t, slopes[:, :-1],
            y[:, :-1])


def _evaluate(x, coeffs, points):
    """Row-wise values of the piecewise cubic at increasing points."""
    i = _locate(x, points)
    s = points - np.take_along_axis(x, i, axis=1)
    c0, c1, c2, c3 = (np.take_along_axis(c, i, axis=1) for c in coeffs)
    s2 = s * s
    return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, limited to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3. * m0, d))


def _pchip_slopes(x, y):
    """Monotone (Fritsch-Butland) node slopes: weighted harmonic means of
    the neighbouring secants, zero at a local extremum."""
    h = np.diff(x, axis=1)
    m = np.diff(y, axis=1) / h
    sm = np.sign(m)
    flat = (sm[:, 1:] != sm[:, :-1]) | (m[:, 1:] == 0) | (m[:, :-1] == 0)
    w1 = 2 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2 * h[:, :-1]
    slopes = np.empty_like(y)
    # the division by a zero secant only happens where `flat` discards it
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:, :-1] + w2 / m[:, 1:]) / (w1 + w2)
        slopes[:, 1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    slopes[:, 0] = _pchip_end(h[:, 0], h[:, 1], m[:, 0], m[:, 1])
    slopes[:, -1] = _pchip_end(h[:, -1], h[:, -2], m[:, -1], m[:, -2])
    return slopes


def _spline_slopes(x, y):
    """Node slopes of the C^2 not-a-knot cubic spline through each row.

    The tridiagonal systems of all rows are eliminated together without
    row exchanges; each interior pivot is at least the sum of two adjacent
    cell widths.
    LAPACK's gtsv, which scipy's CubicSpline calls, exchanges rows only
    where a cell is wider than the two below it together, so elsewhere
    both do the same arithmetic.
    """
    dx = np.diff(x, axis=1)
    secant = np.diff(y, axis=1) / dx
    lower = np.empty_like(dx)                # row k + 1, column k
    diag = np.empty_like(x)
    upper = np.empty_like(dx)                # row k, column k + 1
    rhs = np.empty_like(x)
    diag[:, 1:-1] = 2 * (dx[:, :-1] + dx[:, 1:])
    upper[:, 1:] = dx[:, :-1]
    lower[:, :-1] = dx[:, 1:]
    rhs[:, 1:-1] = 3 * (dx[:, 1:] * secant[:, :-1]
                        + dx[:, :-1] * secant[:, 1:])
    # not-a-knot: the third derivative is continuous at the second and the
    # second-to-last knots
    d = x[:, 2] - x[:, 0]
    diag[:, 0] = dx[:, 1]
    upper[:, 0] = d
    rhs[:, 0] = ((dx[:, 0] + 2 * d) * dx[:, 1] * secant[:, 0]
                 + dx[:, 0] ** 2 * secant[:, 1]) / d
    d = x[:, -1] - x[:, -3]
    diag[:, -1] = dx[:, -2]
    lower[:, -1] = d
    rhs[:, -1] = (dx[:, -1] ** 2 * secant[:, -2]
                  + (2 * d + dx[:, -1]) * dx[:, -2] * secant[:, -1]) / d
    for k in range(x.shape[1] - 1):
        fact = lower[:, k] / diag[:, k]
        diag[:, k + 1] -= fact * upper[:, k]
        rhs[:, k + 1] -= fact * rhs[:, k]
    slopes = np.empty_like(x)
    slopes[:, -1] = rhs[:, -1] / diag[:, -1]
    for k in range(x.shape[1] - 2, -1, -1):
        slopes[:, k] = (rhs[:, k] - upper[:, k] * slopes[:, k + 1]) \
            / diag[:, k]
    return slopes


def _increasing_columns(y):
    """The column heights y[ix, :], which must increase with p."""
    if np.any(np.diff(y, axis=1) <= 0):
        raise EllipticityLossError("column heights not strictly increasing")
    return y


def flux_all_columns(wave: EulerianWave):
    """Column integrals of sqrt(rho) (u - c) over depth: each approximates p0.

    Each column's integrand is resampled onto a uniform y-grid in
    [-d, eta(x)] with four points per streamline cell by monotone cubic
    (PCHIP) interpolation and integrated with Simpson's rule.  The wave is
    even in x, so column 2 N_q - ix holds the same numbers as column ix:
    the integrals are taken on the half period and mirrored.  Every column
    is still checked for a fold.
    """
    n_q = (wave.x.size - 1) // 2
    y = _increasing_columns(wave.y)[:n_q + 1]
    f = np.sqrt(wave.rho[:n_q + 1]) * (wave.u[:n_q + 1] - wave.c)
    n = 4 * (y.shape[1] - 1)
    yy = np.linspace(y[:, 0], y[:, -1], n + 1, axis=1)
    ff = _evaluate(y, _hermite(y, f, _pchip_slopes(y, f)), yy)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    hstep = (y[:, -1] - y[:, 0]) / n
    return ((hstep / 3.0) * (ff @ w))[_mirror(n_q)]


def surface_bernoulli_residual(wave: EulerianWave, physics: Physics) -> float:
    """Max-abs residual of the surface energy identity

        rho ((u-c)^2 + v^2) + 2 g rho (eta + d) + 2 sigma kappa[eta] - Q,

    kappa[eta] = -eta'' / (1 + eta'^2)^(3/2) by finite differences in x.

    The identity is evaluated at the staggered midpoints x_{j+1/2} with all
    surface quantities resampled there by monotone cubic interpolation, so
    the check does not share stencils with the solver that produced the
    field: it measures the discretization error of the solution itself and
    shrinks at second order under grid refinement.
    """
    x = wave.x
    dx = x[1] - x[0]
    # periodic C^2 splines keep full accuracy at the crest and trough,
    # where shape-preserving interpolants flatten and lose the curvature;
    # one spline carries the columns eta, u and v of the surface
    surface = CubicSpline(
        x, np.stack([wave.eta, wave.u[:, -1], wave.v[:, -1]], axis=1),
        bc_type="periodic")
    mid = 0.5 * (x[:-1] + x[1:])
    e, us, vs = surface(mid).T
    e_east = surface(mid + dx)[:, 0]
    e_west = surface(mid - dx)[:, 0]
    ex = (e_east - e_west) / (2.0 * dx)
    exx = (e_east - 2.0 * e + e_west) / dx ** 2
    kappa = -exx / (1.0 + ex ** 2) ** 1.5
    rho_s = physics.rho0()
    resid = (rho_s * ((us - wave.c) ** 2 + vs ** 2)
             + 2.0 * physics.g * rho_s * (e + wave.d)
             + 2.0 * physics.sigma * kappa - wave.Q)
    return float(np.max(np.abs(resid)))


def yih_residual(wave: EulerianWave, physics: Physics) -> float:
    """Max-abs residual of the stream-function equation

        Delta psi - g y rho'(-psi) + beta(psi) = 0

    after resampling psi = -p onto a uniform Cartesian grid in the fluid
    (as many rows as streamline cells), 5-point Laplacian, and restriction
    to points at least two cells from every boundary.

    The wave is even in x, so psi is resampled on the half-period columns
    0..N_q only, and the neighbours across x = 0 and x = pi are reflected
    ones.  A mirrored column 2 N_q - ix swaps the east and west neighbours
    of column ix, so the x-difference is summed in both orders: the maximum
    runs over the same residuals as on the full period.
    """
    nx = wave.x.size - 1
    n_q = nx // 2
    dx = wave.x[1] - wave.x[0]
    n_y = wave.p.size - 1
    y_lo = -wave.d
    y_hi = float(np.max(wave.eta))
    dy = (y_hi - y_lo) / n_y
    yy = y_lo + dy * np.arange(n_y + 1)
    # psi(x_i, y) by inverting the monotone map p -> y(x_i, p): y(p) is
    # strictly monotone, so a C^2 spline inverts it without the order loss
    # a shape-limited interpolant shows under the Laplacian's second
    # differences
    ycol = _increasing_columns(wave.y[:nx])[:n_q + 1]
    p = np.broadcast_to(wave.p, ycol.shape)
    points = np.broadcast_to(yy, (n_q + 1, n_y + 1))
    depth_ok = (yy >= ycol[:, :1]) & (yy <= ycol[:, -1:])
    spline = _hermite(ycol, p, _spline_slopes(ycol, p))
    psi = np.where(depth_ok, -_evaluate(ycol, spline, points), np.nan)
    # rows iy = 2 .. n_y - 2: interior points with full stencils, two cells
    # clear of the bed and of the local surface
    mid, below, above = slice(2, n_y - 1), slice(1, n_y - 2), slice(3, n_y)
    east = np.append(np.arange(1, n_q + 1), n_q - 1)
    west = np.append(1, np.arange(n_q))
    ok = (depth_ok[:, mid] & depth_ok[:, below] & depth_ok[:, above]
          & depth_ok[east, mid] & depth_ok[west, mid]
          & depth_ok[:, 4:n_y + 1] & (yy[mid] >= y_lo + 2 * dy)
          & (yy[mid] <= ycol[:, -1:] - 2 * dy))
    centre = psi[:, mid]
    e, w = psi[east, mid], psi[west, mid]
    vertical = (psi[:, above] - 2.0 * centre + psi[:, below]) / dy ** 2
    rp = physics.rho.deriv(np.clip(-centre, wave.p0, 0.0))
    bt = physics.beta.eval(np.clip(centre, 0.0, abs(wave.p0)))
    across = np.stack([e - 2.0 * centre + w, w - 2.0 * centre + e])
    resid = across / dx ** 2 + vertical - physics.g * yy[mid] * rp + bt
    return float(np.max(np.abs(resid[:, ok]), initial=0.0))


def wave_csv(wave: EulerianWave) -> str:
    """Node dump: x, y, u, v, rho, psi."""
    nx, n_p = wave.y.shape
    nodes = np.column_stack([
        np.repeat(wave.x, n_p), wave.y.ravel(), wave.u.ravel(),
        wave.v.ravel(), wave.rho.ravel(), np.tile(-wave.p, nx)])
    row = ",".join(["%.16e"] * 6)
    lines = ["x,y,u,v,rho,psi"]
    lines += [row % tuple(values) for values in nodes.tolist()]
    return "\n".join(lines) + "\n"


def surface_csv(wave: EulerianWave) -> str:
    lines = ["x,eta,kappa"]
    n = wave.eta.size - 1
    dx = wave.x[1] - wave.x[0]
    idx = np.arange(n + 1)
    ipl = np.where(idx + 1 > n, 1, idx + 1)       # periodic wrap on [0, 2pi]
    imn = np.where(idx - 1 < 0, n - 1, idx - 1)
    ex = (wave.eta[ipl] - wave.eta[imn]) / (2.0 * dx)
    exx = (wave.eta[ipl] - 2.0 * wave.eta + wave.eta[imn]) / dx ** 2
    kappa = -exx / (1.0 + ex ** 2) ** 1.5
    row = ",".join(["%.16e"] * 3)
    lines += [row % tuple(values) for values in
              np.column_stack([wave.x, wave.eta, kappa]).tolist()]
    return "\n".join(lines) + "\n"
