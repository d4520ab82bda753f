"""Piecewise cubics on many rows at once.

Each row of a (rows, knots) array is one interpolation problem; rows share
no data.  The formulas are scipy's (PchipInterpolator, the not-a-knot and
the periodic CubicSpline, PPoly evaluation and ``PPoly.derivative``)
written for whole arrays, so the interpolated values round as the scipy
objects built per row do.  ``eulerian`` runs them on every column of a
wave and on its surface, ``spectral`` on the one row of a laminar flow's
G, ``profiles`` on that of a table profile or of B's beta.

Evaluation needs each point's interval.  ``_locate`` searches for it row
by row; points that are grids find it with one search for all rows
(``_shared_grid_intervals``, ``_uniform_grid_intervals``), and a caller
that knows its stations' intervals passes them in.
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


def _intervals_from_counts(below, npt):
    """``_locate`` indices of sorted points from ``below[r, k]``, the number
    of row r's points below its interior knot k + 1.  The points from
    below[r, k - 1] to below[r, k] lie in interval k; those before the
    second knot in interval 0 and those from the second-to-last on in the
    last, as ``_locate`` clips them."""
    rows, inner = below.shape
    edges = np.zeros((rows, inner + 2), dtype=np.intp)
    edges[:, 1:-1] = below
    edges[:, -1] = npt
    counts = np.diff(edges, axis=1).ravel()
    return np.repeat(np.tile(np.arange(inner + 1), rows),
                     counts).reshape(rows, npt)


def _shared_grid_intervals(knots, grid):
    """``_locate(knots, points)`` where every row of points is the one
    increasing 1-D ``grid``: one search of all interior knots into it."""
    below = np.searchsorted(grid, knots[:, 1:-1].ravel(), side="left")
    return _intervals_from_counts(below.reshape(knots.shape[0], -1),
                                  grid.size)


def _uniform_grid_intervals(knots, points):
    """``_locate(knots, points)`` where each row of points is a uniform
    increasing grid, as ``np.linspace`` makes it.  The count of points
    below a knot is guessed from the grid step and then settled by exact
    comparisons with the points themselves, so rounding in the guess
    never shows."""
    rows, npt = points.shape
    inner = knots[:, 1:-1]
    start = points[:, :1]
    step = (points[:, -1:] - start) / (npt - 1)
    below = np.clip(np.ceil((inner - start) / step), 0, npt).astype(np.intp)
    row_start = (npt * np.arange(rows))[:, None]
    while True:
        # below is right when the point before it lies below the knot and
        # the point at it does not
        high = (below > 0) & (np.take(
            points, row_start + np.maximum(below - 1, 0)) >= inner)
        low = (below < npt) & (np.take(
            points, row_start + np.minimum(below, npt - 1)) < inner)
        if not (high.any() or low.any()):
            return _intervals_from_counts(below, npt)
        below += low.astype(np.intp) - high


def _hermite(x, y, slopes):
    """Power-basis coefficients (c0, c1, c2, c3) of the cubic Hermite
    interpolant on each interval, c0 multiplying (t - x_i)^3.  They are
    laid out as the knots are: column i holds interval i's coefficients,
    and the last column, past the last interval, is never read."""
    dx = np.diff(x, axis=1)
    secant = np.diff(y, axis=1) / dx
    t = (slopes[:, :-1] + slopes[:, 1:] - 2 * secant) / dx
    c0 = np.zeros(x.shape)
    c1 = np.zeros(x.shape)
    np.divide(t, dx, out=c0[:, :-1])
    np.subtract((secant - slopes[:, :-1]) / dx, t, out=c1[:, :-1])
    return c0, c1, slopes, y


def _evaluate(x, coeffs, points, derivative=False, intervals=None):
    """Row-wise values of the piecewise cubic at the points, or with
    ``derivative`` its first derivatives, summed as scipy evaluates
    ``PPoly.derivative()``: c2 + (2 c1) s + (3 c0) s^2.

    ``intervals``, when given, are the points' ``_locate`` indices, known
    to the caller (a grid's stations are), so no search runs; then
    ``points`` and ``intervals`` may also be one row that every row of
    ``x`` shares.  The knots and the coefficients are gathered by one flat
    index into their common (rows, knots) layout.
    """
    i = _locate(x, points) if intervals is None else intervals
    at = i + (x.shape[1] * np.arange(x.shape[0]))[:, None]
    s = points - np.take(x, at)
    c0, c1, c2, c3 = (np.take(c, at) for c in coeffs)
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
    the neighbouring secants, zero at a local extremum.  Two knots take
    the secant at both, scipy's straight line."""
    h = np.diff(x, axis=1)
    m = np.diff(y, axis=1) / h
    if x.shape[1] == 2:
        return np.repeat(m, 2, axis=1)
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



def _periodic_slopes(x, y):
    """Node slopes of the periodic C^2 cubic spline through each row of y
    on the shared increasing knots x (at least three; y[:, 0] equals
    y[:, -1]), as scipy's ``CubicSpline(x, y.T, bc_type="periodic")``
    solves for them.

    Periodicity leaves n - 1 unknowns in a cyclic tridiagonal system.
    Its last unknown is split off: the condensed (n - 2) system is solved
    by one ``gtsv`` call for all rows' right-hand sides and by a second
    for the corner column, and the last unknown follows from the removed
    row.  Three knots leave one unknown, which scipy writes out by hand.
    """
    dx = np.diff(x)
    secant = np.diff(y, axis=1) / dx
    if x.size == 3:
        t = ((secant[:, 0] / dx[0] + secant[:, 1] / dx[1])
             / (1. / dx[0] + 1. / dx[1]))
        return np.repeat(t[:, None], 3, axis=1)
    m = x.size - 2
    diag = np.empty(m)
    diag[0] = 2 * (dx[-1] + dx[0])
    diag[1:] = 2 * (dx[:m - 1] + dx[1:m])
    upper = np.empty(m - 1)
    upper[0] = dx[-1]
    upper[1:] = dx[:m - 2]
    lower = dx[1:m]
    rhs = np.empty((y.shape[0], m))
    rhs[:, 0] = 3 * (dx[0] * secant[:, -1] + dx[-1] * secant[:, 0])
    rhs[:, 1:] = 3 * (dx[1:m] * secant[:, :m - 1]
                      + dx[:m - 1] * secant[:, 1:m])
    corner = np.zeros(m)
    corner[0] = -dx[0]
    corner[-1] = -dx[-3]
    *_, s1, info1 = dgtsv(lower, diag, upper, rhs.T)
    *_, s2, info2 = dgtsv(lower, diag, upper, corner)
    if info1 != 0 or info2 != 0:
        raise SingularSystemError(
            f"periodic spline system singular (info {info1 or info2})")
    last = 3 * (dx[-1] * secant[:, -2] + dx[-2] * secant[:, -1])
    s_last = ((last - dx[-2] * s1[0] - dx[-1] * s1[-1])
              / (2 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    slopes = np.empty(y.shape)
    slopes[:, :-2] = s1.T + s_last[:, None] * s2
    slopes[:, -2] = s_last
    slopes[:, -1] = slopes[:, 0]
    return slopes
