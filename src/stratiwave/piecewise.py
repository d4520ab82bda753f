"""Piecewise cubics on many rows at once.

Each row of a (rows, knots) array is one interpolation problem; rows share
no data.  The formulas are scipy's (PchipInterpolator, the not-a-knot
CubicSpline, PPoly evaluation and ``PPoly.derivative``) written for whole
arrays, so the interpolated values round as the scipy objects built per
row do.  ``eulerian`` runs them on every column of a wave, ``spectral`` on
the one row of a laminar flow's G.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import SingularSystemError


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


def _evaluate(x, coeffs, points, derivative=False, intervals=None):
    """Row-wise values of the piecewise cubic at the points, or with
    ``derivative`` its first derivatives, summed as scipy evaluates
    ``PPoly.derivative()``: c2 + (2 c1) s + (3 c0) s^2.

    ``intervals``, when given, are the points' ``_locate`` indices, known
    to the caller (a grid's stations are), so no search runs.
    """
    i = _locate(x, points) if intervals is None else intervals
    rows = np.arange(x.shape[0])[:, None]
    s = points - x[rows, i]
    c0, c1, c2, c3 = (c[rows, i] for c in coeffs)
    s2 = s * s
    if derivative:
        return c2 + (2.0 * c1) * s + (3.0 * c0) * s2
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

    The rows' tridiagonal systems are stacked end to end with zero
    couplings between rows and solved by one LAPACK ``gtsv`` call.  A zero
    coupling leaves the next row's elimination as it is, so every row gets
    the slopes of scipy's CubicSpline, which solves its system by gtsv too.
    """
    dx = np.diff(x, axis=1)
    secant = np.diff(y, axis=1) / dx
    lower = np.zeros_like(x)                 # row k + 1, column k; 0 at k = -1
    diag = np.empty_like(x)
    upper = np.zeros_like(x)                 # row k, column k + 1; 0 at k = -1
    rhs = np.empty_like(x)
    diag[:, 1:-1] = 2 * (dx[:, :-1] + dx[:, 1:])
    upper[:, 1:-1] = dx[:, :-1]
    lower[:, :-2] = dx[:, 1:]
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
    lower[:, -2] = d
    rhs[:, -1] = (dx[:, -1] ** 2 * secant[:, -2]
                  + (2 * d + dx[:, -1]) * dx[:, -2] * secant[:, -1]) / d
    *_, slopes, info = dgtsv(lower.ravel()[:-1], diag.ravel(),
                             upper.ravel()[:-1], rhs.ravel())
    if info != 0:
        raise SingularSystemError(f"spline system singular (info {info})")
    return slopes.reshape(x.shape)
