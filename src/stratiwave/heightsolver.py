"""Discrete height equation on the half-period rectangle and continuation.

Unknowns live on a tensor grid: q-nodes 0..pi (even symmetry removes the
translation invariance, so no phase condition is needed) times the p-grid
of the laminar family.  Second-order finite differences everywhere, with
symmetric ghost reflection across q = 0 and q = pi, a 3-point one-sided
h_p stencil on the free-surface row, and the nonlocal mean depth

    d(h) = full-period average of the top trace
         = (1/N_q) (h_0/2 + h_1 + ... + h_{N_q-1} + h_{N_q}/2)|_{p=0}.

The Jacobian splits into a banded stencil part, a rank-one correction from
the d(h) coupling (resolved by Sherman-Morrison around the banded solve),
and one extra column for dG/dQ; frozen-amplitude, frozen-mixture and
pseudo-arclength corrections append a single border row (a ``_Border``),
eliminated through its scalar Schur complement (``JacobianRecord.solve``).
``jacobian`` writes the band straight into LAPACK's factor layout, and
the first solve factors that one array in place; the record keeps the
factor, so the continuation solves take chord steps on it until the
contraction of max|r| stalls (``_bordered_newton``).
"""

from __future__ import annotations

import base64
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgbsv, dgbtrs

from .errors import (DomainError, EllipticityLossError, NewtonFailureError,
                     ShapeError)
from .laminar import LaminarFlow, _flow_root, _given_data, lambda_floor
from .profiles import PGrid, Physics

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 40
MAX_HALVINGS = 8
CONSTRAINT_TOL = 1e-12     # relative tolerance of a border constraint
# continuation: a chord step keeps its factor only if it cut max|r| by this
# ratio, and a corrector whose first step contracts less shrinks ds; one
# that contracts below CONTRACTION_GROW grows it
CHORD_CONTRACTION = 0.25
CONTRACTION_GROW = 2e-3


@dataclass(frozen=True)
class HeightField:
    """Discrete (Q, h) on the half-period rectangle [0, pi] x [p0, 0].

    ``h`` is indexed [iq, ip] with ip = 0 the bed row (h = 0 there) and
    ip = N_p the free surface.  ``sigma`` is the surface tension the field
    was solved at; a field no solve returned records none.
    """

    Q: float
    N_q: int
    pgrid: PGrid
    h: np.ndarray
    residual_norm: float = float("nan")
    sigma: float | None = None

    def __post_init__(self):
        if self.N_q < 1:
            raise ShapeError(f"N_q = {self.N_q}: the field needs a q-interval")
        if self.h.shape != (self.N_q + 1, self.pgrid.N_p + 1):
            raise ShapeError(
                f"h shape {self.h.shape} != {(self.N_q + 1, self.pgrid.N_p + 1)}")

    @property
    def dq(self):
        return np.pi / self.N_q

    @property
    def q_nodes(self):
        return np.linspace(0.0, np.pi, self.N_q + 1)

    @property
    def top(self):
        return self.h[:, -1]

    def depth(self) -> float:
        return float(period_mean(self.top))

    def amplitude(self) -> float:
        return 0.5 * float(self.h[0, -1] - self.h[-1, -1])


def period_mean(top_row) -> float:
    """Full-period mean of an even half-period trace (trapezoid weights)."""
    n = top_row.shape[0] - 1
    return (0.5 * top_row[0] + top_row[1:-1].sum() + 0.5 * top_row[-1]) / n


def mean_weights(N_q: int):
    w = np.full(N_q + 1, 1.0 / N_q)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _q_indices(N_q):
    """Left/right q-neighbour indices under even reflection."""
    iq = np.arange(N_q + 1)
    left = np.abs(iq - 1)
    right = N_q - np.abs(N_q - (iq + 1))
    return left, right


def derivatives(hf: HeightField):
    """All finite-difference derivative arrays of h (second order)."""
    h = hf.h
    dq, dp = hf.dq, hf.pgrid.h
    left, right = _q_indices(hf.N_q)
    hq = (h[right, :] - h[left, :]) / (2.0 * dq)
    hqq = (h[right, :] - 2.0 * h + h[left, :]) / dq ** 2
    hp = np.empty_like(h)
    hp[:, 1:-1] = (h[:, 2:] - h[:, :-2]) / (2.0 * dp)
    hp[:, 0] = (-3.0 * h[:, 0] + 4.0 * h[:, 1] - h[:, 2]) / (2.0 * dp)
    hp[:, -1] = (3.0 * h[:, -1] - 4.0 * h[:, -2] + h[:, -3]) / (2.0 * dp)
    hpp = np.zeros_like(h)
    hpp[:, 1:-1] = (h[:, 2:] - 2.0 * h[:, 1:-1] + h[:, :-2]) / dp ** 2
    hpq = (hp[right, :] - hp[left, :]) / (2.0 * dq)
    return hq, hp, hqq, hpp, hpq


def _surface(hq, hqq):
    """Slope factor 1 + h_q^2 and curvature kappa of the free-surface row,
    from the ``derivatives`` arrays."""
    hq_t = hq[:, -1]
    slope = 1.0 + hq_t ** 2
    return slope, -hqq[:, -1] / slope ** 1.5


def residual(physics: Physics, hf: HeightField):
    """Node-indexed residual of the height equation.

    Interior rows carry the quasilinear elliptic operator with the
    stratification term, the top row the Venttsel free-surface condition,
    the bottom row the Dirichlet condition h = 0.  EllipticityLossError
    where h_p <= 0.
    """
    hq, hp, hqq, hpp, hpq = derivatives(hf)
    if np.any(hp <= 0):
        raise EllipticityLossError("h_p <= 0 on the grid")
    given = _given_data(physics.rho, physics.beta, hf.pgrid)
    rho_p = given.rho_p[None, :]
    beta = given.beta[None, :]
    g = physics.g
    d = hf.depth()
    hp3 = hp ** 3
    R = np.empty_like(hf.h)
    R[:, 1:-1] = ((1.0 + hq ** 2) * hpp + hqq * hp ** 2
                  - 2.0 * hq * hp * hpq
                  - g * (hf.h - d) * rho_p * hp3
                  + hp3 * beta)[:, 1:-1]
    R[:, 0] = hf.h[:, 0]
    slope, kappa = _surface(hq, hqq)
    R[:, -1] = (slope
                + hp[:, -1] ** 2 * (2.0 * physics.sigma * kappa
                                    + 2.0 * g * physics.rho0() * hf.top
                                    - hf.Q))
    return R


def solve_banded(lu, k, b):
    """Solve A x = b by LAPACK ``gbsv``, factoring the band in place.

    ``lu`` is a Fortran-ordered (3k + 1, n) factor array in LAPACK's
    ``gbtrf`` layout (k sub- and superdiagonals): A[r, c] sits at
    lu[2k + r - c, c], and rows :k are room for the fill-in.  ``gbsv``
    overwrites it with the factor, so x is bit-equal to
    ``scipy.linalg.solve_banded((k, k), lu[k:], b)`` on the band as it was.
    Returns x and the factor (lu, piv) for later ``dgbtrs`` solves.
    NewtonFailureError on a non-finite input or a singular band; the
    finiteness test reads the band's extremes (NaN propagates through
    both, and an infinity is one of them), so it allocates nothing.
    """
    band = lu[k:]
    if not (np.isfinite(band.min()) and np.isfinite(band.max())
            and np.isfinite(b).all()):
        raise NewtonFailureError("non-finite entry in the banded system")
    lu, piv, x, info = dgbsv(k, k, lu, b, overwrite_ab=1)
    if info != 0:
        raise NewtonFailureError(f"banded LU failed (LAPACK info {info})")
    return x, lu, piv


@dataclass
class JacobianRecord:
    """Banded core + rank-one depth coupling + Q column.

    Apply as J v = band(v) + u (w . v_top) and dG/dQ = q_col.  The band
    lives in ``lu``, the factor array ``solve_banded`` takes, which the
    first ``solve`` overwrites with the factor.
    """

    lu: np.ndarray          # band in LAPACK gbtrf layout, then its factor
    bandwidth: int
    u: np.ndarray           # rank-one left factor (flattened node order)
    v: np.ndarray           # rank-one right factor (mean weights, flattened)
    q_col: np.ndarray       # dG/dQ
    shape: tuple

    def __post_init__(self):
        # kept by the first ``solve``: (lu, piv, J^{-1} u, Sherman-Morrison
        # denominator), and J^{-1} q_col once a bordered solve formed it
        self._factor = None
        self._yq = None

    @property
    def ab(self):
        """The stencil band in LAPACK band storage ((2k + 1, n), a view);
        RuntimeError once ``solve`` has overwritten it with the factor."""
        if self._factor is not None:
            raise RuntimeError("the band has been factored in place")
        return self.lu[self.bandwidth:]

    def matvec(self, vec):
        ab = self.ab
        n = self.shape[0]
        kl = ku = self.bandwidth
        out = np.zeros(n)
        for off in range(-kl, ku + 1):
            diag = ab[ku - off]
            if off >= 0:
                out[: n - off] += diag[off:] * vec[off:]
            else:
                out[-off:] += diag[: n + off] * vec[: n + off]
        out += self.u * float(self.v @ vec)
        return out

    def solve(self, rhs, border, c):
        """Solve J dh = rhs with Q frozen (``border`` None), or the
        bordered system

            [ J    q_col  ] [dh]   [rhs]
            [ row  q_coef ] [dQ] = [-c ]

        of one ``_Border``; returns (dh, dQ), dQ = 0 with Q frozen.  The
        first solve factors the band once for rhs, q_col (bordered only)
        and u; the rank-one term is removed by Sherman-Morrison and the
        border by its scalar Schur complement q_coef - row . J^{-1} q_col.
        The record keeps the factor, J^{-1} u, the Sherman-Morrison
        denominator and J^{-1} q_col, so a later solve costs one
        ``dgbtrs`` column (two if J^{-1} q_col is not known yet).
        """
        new_yq = border is not None and self._yq is None
        cols = [rhs, self.q_col] if new_yq else [rhs]
        if self._factor is None:
            X, lu, piv = solve_banded(self.lu, self.bandwidth,
                                      np.column_stack(cols + [self.u]))
            xu = X[:, -1]
            denom = 1.0 + float(self.v @ xu)
            if abs(denom) < 1e-300:
                raise NewtonFailureError(
                    "Sherman-Morrison denominator vanished")
            self._factor = (lu, piv, xu, denom)
        else:
            lu, piv, xu, denom = self._factor
            X, info = dgbtrs(lu, self.bandwidth, self.bandwidth,
                             np.column_stack(cols), piv)
            if info != 0:
                raise NewtonFailureError(
                    f"banded solve failed (LAPACK info {info})")
        y = [X[:, k] - xu * (float(self.v @ X[:, k]) / denom)
             for k in range(len(cols))]
        if border is None:
            return y[0], 0.0
        if new_yq:
            self._yq = y[1]
        schur = border.q_coef - float(border.row @ self._yq)
        if schur == 0.0:
            raise NewtonFailureError("bordered system singular")
        dQ = (-c - float(border.row @ y[0])) / schur
        return y[0] - dQ * self._yq, dQ


def _stencil(physics: Physics, hf: HeightField):
    """The linearized height operator as terms over all q-columns.

    Returns (families, u, q_col).  ``families`` holds (ip, terms) for the
    bed rows (the identity), the interior rows and the Venttsel top rows.
    A term (side, shift, coef) couples row (iq, ip) to node
    (iq', ip + shift) with coefficient coef[iq], iq' being iq's left
    neighbour under reflection (side -1), iq (0) or its right neighbour
    (+1); terms on one entry sum in list order.  ``u`` is the rank-one
    depth factor and ``q_col`` is dG/dQ, both as node arrays.
    """
    hq, hp, hqq, hpp, hpq = derivatives(hf)
    N_p = hf.pgrid.N_p
    dq, dp = hf.dq, hf.pgrid.h
    given = _given_data(physics.rho, physics.beta, hf.pgrid)
    rho_p, beta = given.rho_p, given.beta
    g = physics.g
    g_rho0 = g * physics.rho0()
    sigma = physics.sigma
    d = hf.depth()

    # interior rows, ip = 1 .. N_p - 1
    inner = slice(1, N_p)
    hq_i, hp_i, hqq_i = hq[:, inner], hp[:, inner], hqq[:, inner]
    hpp_i, hpq_i = hpp[:, inner], hpq[:, inner]
    rho_p_i, beta_i = rho_p[inner], beta[inner]
    hp3_i = hp_i ** 3
    c_pp = 1.0 + hq_i ** 2
    c_qq = hp_i ** 2
    c_q = 2.0 * hq_i * hpp_i - 2.0 * hp_i * hpq_i
    c_p = (2.0 * hqq_i * hp_i
           - 2.0 * hq_i * hpq_i
           - 3.0 * g * (hf.h[:, inner] - d) * rho_p_i * hp_i ** 2
           + 3.0 * hp_i ** 2 * beta_i)
    c_pq = -2.0 * hq_i * hp_i
    c_0 = -g * rho_p_i * hp3_i
    pp, qq = c_pp / dp ** 2, c_qq / dq ** 2
    q1, p1 = c_q / (2.0 * dq), c_p / (2.0 * dp)
    pq = c_pq / (4.0 * dq * dp)
    interior = [(0, -1, pp), (0, 0, -2.0 * pp), (0, 1, pp),    # p-second
                # q-second difference (reflection doubles the mirrored node)
                (-1, 0, qq), (0, 0, -2.0 * qq), (1, 0, qq),
                (1, 0, q1), (-1, 0, -q1),                       # q-first
                (0, 1, p1), (0, -1, -p1),                       # p-first
                # mixed: central q of central p
                (1, 1, pq), (1, -1, -pq), (-1, 1, -pq), (-1, -1, pq),
                (0, 0, c_0)]                                    # local h

    # Venttsel top rows, coefficients as (N_q + 1, 1) columns
    hq_t, hqq_t, hp_t = hq[:, -1:], hqq[:, -1:], hp[:, -1:]
    slope, kappa = (a[:, None] for a in _surface(hq, hqq))
    c_q = (2.0 * hq_t
           + hp_t ** 2 * 2.0 * sigma * 3.0 * hqq_t * hq_t / slope ** 2.5)
    c_qq = -hp_t ** 2 * 2.0 * sigma / slope ** 1.5
    c_p = 2.0 * hp_t * (2.0 * sigma * kappa + 2.0 * g_rho0 * hf.h[:, -1:]
                        - hf.Q)
    c_0 = hp_t ** 2 * 2.0 * g_rho0
    q1, qq = c_q / (2.0 * dq), c_qq / dq ** 2
    top = [(1, 0, q1 + qq), (-1, 0, -q1 + qq), (0, 0, -2.0 * qq),
           (0, 0, c_p * 3.0 / (2.0 * dp) + c_0),
           (0, -1, -c_p * 4.0 / (2.0 * dp)), (0, -2, c_p * 1.0 / (2.0 * dp))]

    families = [(np.array([0]), [(0, 0, np.ones_like(hp_t))]),
                (np.arange(1, N_p), interior), (np.array([N_p]), top)]
    # rank-one depth coupling: interior rows react to d(h) = w . h_top
    u = np.zeros_like(hf.h)
    u[:, inner] = g * rho_p_i * hp3_i
    q_col = np.zeros_like(hf.h)
    q_col[:, -1:] = -hp_t ** 2
    return families, u, q_col


def jacobian(physics: Physics, hf: HeightField) -> JacobianRecord:
    """Analytic Jacobian of the residual, built in the factor array of
    ``solve_banded``.

    Nodes are numbered iq (N_p + 1) + ip, so the band has k = N_p + 2
    sub- and superdiagonals.  Viewed as ``band[iq, ip, 2k + r - c]``, the
    Fortran-ordered (3k + 1, n) array holds A[r, c] for the node
    c = (iq, ip), so each ``_stencil`` term is added by basic slicing: one slice for a term on the row's own
    q-column; for a neighbour term, one slice over the regular q-columns
    and one row for the column that ghost reflection maps back (the left
    neighbour of iq = 0 is 1, the right one of iq = N_q is N_q - 1).  No
    entry is written twice by one term, so the entries that reflection
    folds together sum their terms in stencil order, term after term.
    """
    families, u, q_col = _stencil(physics, hf)
    N_q, npp = hf.N_q, hf.pgrid.N_p + 1
    n = (N_q + 1) * npp
    k = npp + 1
    lu = np.zeros((3 * k + 1, n), order="F")
    band = lu.T.reshape(N_q + 1, npp, 3 * k + 1)
    for ip, terms in families:
        for side, shift, coef in terms:
            # a family's rows ip are one contiguous range
            cols = slice(ip[0] + shift, ip[-1] + 1 + shift)
            # band rows of a column one q-column right of the row's own
            # (r - c = -npp - shift) and of a column one q-column left
            right, left = k + 1 - shift, 3 * k - 1 - shift
            if side == 0:
                band[:, cols, 2 * k - shift] += coef
            elif side == 1:
                band[1:, cols, right] += coef[:-1]
                band[N_q - 1, cols, left] += coef[-1]       # q = pi
            else:
                band[:-1, cols, left] += coef[1:]
                band[1, cols, right] += coef[0]             # q = 0
    v = np.zeros((N_q + 1, npp))
    v[:, -1] = mean_weights(N_q)
    return JacobianRecord(lu=lu, bandwidth=k, u=u.reshape(-1),
                          v=v.reshape(-1), q_col=q_col.reshape(-1),
                          shape=(n, n))


@dataclass(frozen=True)
class _Border:
    """One scalar constraint c(field) = 0 that frees Q.

    Its linearization is ``row . dh + q_coef dQ = -c``; Newton has
    converged only once ``|c| < tol`` as well, a tolerance relative to
    ``size``, the scale of the constraint (its target or arclength step).
    """

    row: np.ndarray
    q_coef: float
    constraint: Callable[[HeightField], float]
    size: float

    @property
    def tol(self):
        return CONSTRAINT_TOL * max(1.0, abs(self.size))


def _amplitude_border(hf: HeightField, target: float) -> _Border:
    """The crest-trough amplitude held at ``target``."""
    N_p = hf.pgrid.N_p
    npp = N_p + 1
    row = np.zeros((hf.N_q + 1) * npp)
    row[N_p] = 0.5                      # node (0, N_p)
    row[hf.N_q * npp + N_p] = -0.5      # node (N_q, N_p)
    return _Border(row, 0.0, lambda f: f.amplitude() - target, target)


def _mixture_border(direction: np.ndarray, target: float) -> _Border:
    """The weighted projection of h onto ``direction`` held at ``target``.

    It pins the mode mixture where several branches cross: near a double
    point a single scalar amplitude cannot tell them apart.
    """
    row = direction.reshape(-1) / direction.size
    return _Border(row, 0.0, lambda f: float(row @ f.h.reshape(-1)) - target,
                   target)


def _bordered_newton(physics, fld: HeightField, tol, max_iter,
                     border: _Border | None, chord: bool):
    """Damped Newton on G(h, Q) = 0 with Q fixed, or with Q free under
    one border constraint.

    A step that does not lower max|r| (or loses ellipticity) is halved, at
    most MAX_HALVINGS times.  Converges when max|r| < tol and the border
    constraint is within its tolerance, testing after every step; returns
    the field and the max|r| history (initial residual first).

    With ``chord`` the next step reuses the factored Jacobian of this one
    (a chord step) as long as the last step was undamped and cut max|r| by
    CHORD_CONTRACTION at least; otherwise the Jacobian is rebuilt at the
    current iterate.  A step on a reused Jacobian whose halvings run out
    is retried on a fresh one before the solve fails.
    """
    def constraint(f):
        return 0.0 if border is None else border.constraint(f)

    r = residual(physics, fld)
    rnorm = float(np.max(np.abs(r)))
    c = constraint(fld)
    history = [rnorm]
    jac, stale = None, False
    while not (rnorm < tol and (border is None or abs(c) < border.tol)):
        if len(history) > max_iter:
            raise NewtonFailureError(
                f"no convergence in {max_iter} Newton iterations",
                residual=rnorm, iterations=max_iter)
        if jac is None:
            jac, stale = jacobian(physics, fld), False
        delta, dQ = jac.solve(-r.reshape(-1), border, c)
        scale = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            trial = replace(fld, h=fld.h + scale * delta.reshape(fld.h.shape),
                            Q=fld.Q + scale * dQ)
            try:
                r_trial = residual(physics, trial)
            except EllipticityLossError:
                scale *= 0.5
                continue
            r_trial_norm = float(np.max(np.abs(r_trial)))
            if r_trial_norm < rnorm or r_trial_norm < tol:
                break
            scale *= 0.5
        else:
            if stale:
                jac = None
                continue
            raise NewtonFailureError(
                "Newton damping exhausted", residual=rnorm,
                iterations=len(history))
        if not (chord and scale == 1.0
                and r_trial_norm <= CHORD_CONTRACTION * rnorm):
            jac = None      # released before the next one is built
        fld, r, rnorm = trial, r_trial, r_trial_norm
        c = constraint(fld)
        history.append(rnorm)
        stale = True
    return replace(fld, residual_norm=rnorm, sigma=physics.sigma), history


def newton(physics: Physics, hf: HeightField, frozen: str = "Q",
           amplitude_target: float | None = None,
           return_history: bool = False):
    """Newton's method on the discrete height equation.

    frozen = "Q": Q held fixed, h updated.  frozen = "amplitude": the
    crest-trough amplitude is constrained (to its initial value unless
    ``amplitude_target`` is given) and Q joins the unknowns through a
    border row/column.  Converges at max|r| < NEWTON_TOL.  Damping by
    step halving, at most 8 halvings; at most NEWTON_MAX_ITER steps.
    """
    if frozen == "Q":
        border = None
    elif frozen == "amplitude":
        target = (amplitude_target if amplitude_target is not None
                  else hf.amplitude())
        border = _amplitude_border(hf, target)
    else:
        raise ValueError(f"unknown frozen mode {frozen!r}")
    accepted, history = _bordered_newton(physics, hf, NEWTON_TOL,
                                         NEWTON_MAX_ITER, border, chord=False)
    return (accepted, history) if return_history else accepted


def laminar_field(flow: LaminarFlow, N_q: int) -> HeightField:
    h = np.tile(flow.H, (N_q + 1, 1))
    return HeightField(Q=flow.Q, N_q=N_q, pgrid=flow.grid, h=h)


def germ_field(flow: LaminarFlow, modes, xi, eps: float,
               N_q: int) -> HeightField:
    """h = H + eps sum_k xi_k M_k(p) cos(n_k q) at Q = Q(lambda_*)."""
    q = np.linspace(0.0, np.pi, N_q + 1)
    h = np.tile(flow.H, (N_q + 1, 1))
    for coef, mode in zip(xi, modes):
        if coef != 0.0:
            h += eps * coef * np.outer(np.cos(mode.n * q), mode.M)
    return HeightField(Q=flow.Q, N_q=N_q, pgrid=flow.grid, h=h)


# --- discrete Fourier-block dispersion -------------------------------------

def fourier_block_matrix(physics: Physics, flow: LaminarFlow, n: int,
                         N_q: int) -> np.ndarray:
    """The n-th q-Fourier block of the discrete Jacobian at the laminar
    field, as a dense (N_p+1)^2 matrix (bed row, interior rows, Venttsel
    row), for 1 <= n < 2 N_q.

    At a laminar field every q-column carries the same ``_stencil``, so
    column 0's terms give the block A00 + cos(n dq) A01: A00 sums the terms
    on column 0 itself, A01 those on column 1, which is both of its
    neighbours under reflection, in stencil order as ``jacobian`` sums
    them.  The rank-one depth term drops out because
    sum_j w_j cos(n q_j) = 0 for these n.
    """
    families, _, _ = _stencil(physics, laminar_field(flow, N_q))
    m = flow.grid.N_p + 1
    A = np.zeros((2, m, m))                 # A00 and A01
    for ip, terms in families:
        for side, shift, coef in terms:
            A[abs(side), ip, ip + shift] += coef[0]
    return A[0] + np.cos(n * np.pi / N_q) * A[1]


def fourier_block_dispersion(physics: Physics, flow: LaminarFlow, n: int,
                             N_q: int) -> float:
    """Determinant of the n-th q-Fourier block of the discrete Jacobian at
    the laminar field, scaled by max|B|^-(N_p+1).

    At a laminar state the Jacobian decouples over discrete cosine modes,
    so the zeros of det B for the block B that ``fourier_block_matrix``
    builds from ``jacobian``'s own stencil are the bifurcation points of
    the DISCRETE operator, the points where that Jacobian turns singular.
    They differ from the continuum shooting roots by the O(dp^2, dq^2)
    discretization error, which matters when two modes must resonate at
    the same lambda.  The scaling keeps the determinant in range; it does
    not move its zeros.
    """
    B = fourier_block_matrix(physics, flow, n, N_q)
    sign, logabsdet = np.linalg.slogdet(B / np.max(np.abs(B)))
    return float(sign * np.exp(logabsdet))


def discrete_lambda_star(physics: Physics, grid: PGrid, N_q: int,
                         n: int = 1) -> float:
    """Smallest zero of the block determinant for mode n above the laminar
    floor, by ``laminar._flow_root``: one solve and determinant per
    lambda."""
    return _flow_root(
        physics, grid,
        lambda flow: fourier_block_dispersion(physics, flow, n, N_q),
        lambda_floor(physics, grid),
        NewtonFailureError("no discrete dispersion sign change"))[0]


# --- continuation ---------------------------------------------------------

@dataclass(frozen=True)
class ContinuationControls:
    ds_min: float = 1e-9
    ds_max: float = 0.1
    max_steps: int = 500
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = 12
    delta_stop: float = 1e-3
    kappa_stop: float = 1e3
    Q_stop: float = 1e6
    tol_loop: float = 1e-4
    s_min: float = 5e-2


@dataclass(frozen=True)
class BranchPoint:
    s: float
    Q: float
    amplitude: float
    monitors: tuple       # (M1 max h_p, M2 min h_p, M3 min Venttsel coef,
                          #  M4 min surface curvature, M5 Q, M6 amplitude)
    residual_norm: float
    step: float
    field: HeightField


@dataclass(frozen=True)
class Branch:
    points: tuple
    termination: str


def _monitors(physics, hf):
    hq, hp, hqq, _, _ = derivatives(hf)
    _, kappa = _surface(hq, hqq)
    venttsel = (hf.Q - 2.0 * physics.sigma * kappa
                - 2.0 * physics.g * physics.rho0() * hf.top)
    return (float(np.max(hp)), float(np.min(hp)), float(np.min(venttsel)),
            float(np.min(kappa)), float(hf.Q), hf.amplitude())


def _check_stops(mon, controls):
    M1, M2, M3, M4, M5, _ = mon
    if M1 > 1.0 / controls.delta_stop:
        return "StagnationApproach"
    if M2 < controls.delta_stop:
        return "VelocityBlowup"
    if M3 < controls.delta_stop:
        return "EllipticityLoss"
    if M4 < -controls.kappa_stop:
        return "CurvatureBlowup"
    if M5 > controls.Q_stop:
        # unbounded energy forces h_p -> 0 through the surface condition
        return "VelocityBlowup"
    return None


def _weighted_dot(dh, dQ, eh, eQ):
    return float(dh.ravel() @ eh.ravel()) / dh.size + dQ * eQ


def _corrector(physics, pred: HeightField, t_h, t_Q, x_prev, ds, controls):
    """Chord Newton on (G(h, Q), arclength constraint) from the predictor;
    returns the corrected field and theta0 = r1/r0, the max|r| contraction
    of its first step, which runs on a fresh Jacobian (0 when the
    predictor has converged already)."""
    border = _Border(
        t_h.reshape(-1) / t_h.size, t_Q,
        lambda f: _weighted_dot(f.h - x_prev.h, f.Q - x_prev.Q, t_h, t_Q) - ds,
        ds)
    fld, history = _bordered_newton(physics, pred, controls.newton_tol,
                                    controls.newton_max_iter, border,
                                    chord=True)
    return fld, (history[1] / history[0] if len(history) > 1 else 0.0)


def continue_branch(physics: Physics, germ: HeightField,
                    controls: ContinuationControls = ContinuationControls()
                    ) -> Branch:
    """Pseudo-arclength predictor-corrector from a germ field.

    The first two points are solved with the germ's mode mixture frozen
    (``_mixture_border``), the rest by the arclength ``_corrector``, all
    at the controls' ``newton_tol`` and ``newton_max_iter``, with chord
    steps (``_bordered_newton``).  The step ds doubles after a corrector
    whose first step contracts max|r| below CONTRACTION_GROW and halves
    after one above CHORD_CONTRACTION.  Records the monitor tuple at every
    accepted point and stops on the first triggered alternative (blow-up
    monitors, closed loop, Newton failure with underflowed step, or the
    point budget ``max_steps``, which counts the start points too).  A
    start solve that fails raises NewtonFailureError.
    """
    # reference laminar profile: the q-mean of the germ (cosine modes
    # average to zero over the period)
    w = mean_weights(germ.N_q)
    H_row = w @ germ.h
    x_lam = replace(germ, h=np.tile(H_row, (germ.N_q + 1, 1)))

    # lock the germ's mode mixture, not just its scalar amplitude: near a
    # double point several branches share every small amplitude value
    direction = germ.h - x_lam.h
    projection = _mixture_border(direction, 0.0).constraint
    c0, c_lam = projection(germ), projection(x_lam)
    fld0, _ = _bordered_newton(physics, germ, controls.newton_tol,
                               controls.newton_max_iter,
                               _mixture_border(direction, c0), chord=True)
    points = []

    def record(fld, s, ds):
        """Append an accepted point; returns the monitor that ends the
        branch there, or None."""
        mon = _monitors(physics, fld)
        points.append(BranchPoint(
            s=s, Q=fld.Q, amplitude=fld.amplitude(), monitors=mon,
            residual_norm=fld.residual_norm, step=ds, field=fld))
        return _check_stops(mon, controls)

    def ended(termination):
        return Branch(points=tuple(points), termination=termination)

    stop = record(fld0, 0.0, 0.0)
    if stop is not None:
        return ended(stop)
    if controls.max_steps == 1:
        return ended("MaxSteps")

    # second point: double the germ deviation at the same frozen mixture
    h1_guess = replace(fld0, h=x_lam.h + 2.0 * (fld0.h - x_lam.h))
    fld1, _ = _bordered_newton(
        physics, h1_guess, controls.newton_tol, controls.newton_max_iter,
        _mixture_border(direction, c_lam + 2.0 * (c0 - c_lam)), chord=True)
    ds = float(np.sqrt(max(_weighted_dot(fld1.h - fld0.h, fld1.Q - fld0.Q,
                                         fld1.h - fld0.h, fld1.Q - fld0.Q),
                           1e-300)))
    ds = min(max(ds, controls.ds_min), controls.ds_max)
    s = ds
    stop = record(fld1, s, ds)
    if stop is not None:
        return ended(stop)

    prev, curr = fld0, fld1
    while len(points) < controls.max_steps:
        dh = curr.h - prev.h
        dQ = curr.Q - prev.Q
        norm = np.sqrt(_weighted_dot(dh, dQ, dh, dQ))
        t_h, t_Q = dh / norm, dQ / norm
        accepted = None
        while accepted is None:
            pred = replace(curr, h=curr.h + ds * t_h, Q=curr.Q + ds * t_Q)
            try:
                accepted, theta0 = _corrector(physics, pred, t_h, t_Q,
                                              curr, ds, controls)
            except (NewtonFailureError, EllipticityLossError):
                ds *= 0.5
                if ds < controls.ds_min:
                    return ended("NewtonFailure")
        s += ds
        stop = record(accepted, s, ds)
        if stop is not None:
            return ended(stop)
        # closed-loop detection against the first corrected point
        gap = np.sqrt(_weighted_dot(accepted.h - fld0.h, accepted.Q - fld0.Q,
                                    accepted.h - fld0.h, accepted.Q - fld0.Q))
        if s > controls.s_min and gap < controls.tol_loop:
            return ended("ClosedLoop")
        if theta0 < CONTRACTION_GROW:
            ds = min(2.0 * ds, controls.ds_max)
        elif theta0 > CHORD_CONTRACTION:
            ds = max(0.5 * ds, controls.ds_min)
        prev, curr = curr, accepted
    return ended("MaxSteps")


def nodal_check(hf: HeightField) -> bool:
    """Monotone crest-to-trough profile over the half period.

    True iff the top trace on [0, pi] decreases from the crest at q = 0
    with h_q of a single sign in the open interior, to 1e-12 relative to
    max |top|; a flat (laminar) trace counts as degenerate-true.
    """
    top = hf.top
    tol = 1e-12 * max(1.0, float(np.max(np.abs(top))))
    diffs = np.diff(top)
    if np.max(np.abs(diffs)) < tol:
        return True
    return bool(np.all(diffs < tol) and top[0] > top[-1])


# --- serialization --------------------------------------------------------

def dump_field(hf: HeightField) -> str:
    """``heightfield v3`` text: a header with N_q, N_p, p0, Q and sigma (17
    digits), then one line per q-column holding the standard padded base64
    of that row's N_p + 1 little-endian float64 values, exact to the bit.
    A field that records no sigma is written as v2, whose header ends at
    Q."""
    head = f"{hf.N_q} {hf.pgrid.N_p} {hf.pgrid.p0:.16e} {hf.Q:.16e}"
    lines = [f"heightfield v2 {head}" if hf.sigma is None
             else f"heightfield v3 {head} {hf.sigma:.16e}"]
    rows = np.ascontiguousarray(hf.h, dtype="<f8")
    lines += [base64.b64encode(row).decode("ascii") for row in rows]
    return "\n".join(lines) + "\n"


def _text_rows(lines, N_p):
    """A v1 body: rows of decimal numbers separated by spaces."""
    # a token that is no number, or rows of unequal length
    return np.vstack([np.fromstring(ln, sep=" ") for ln in lines])


def _binary_rows(lines, N_p):
    """A v2/v3 body: one base64 line of N_p + 1 little-endian float64 each."""
    width = 8 * (N_p + 1)
    rows = [base64.b64decode(ln.strip(), validate=True) for ln in lines]
    if not rows or any(len(row) != width for row in rows):
        raise ShapeError(f"a base64 dump body needs rows of {width} bytes")
    return np.frombuffer(b"".join(rows), dtype="<f8").astype(
        np.float64).reshape(len(rows), N_p + 1)


# (magic, version) -> (body reader, header fields)
_FORMATS = {("heightfield", "v1"): (_text_rows, 6),
            ("heightfield", "v2"): (_binary_rows, 6),
            ("heightfield", "v3"): (_binary_rows, 7)}


def load_field(text: str) -> HeightField:
    """Parse a ``dump_field`` text, v3 or v2, or the decimal v1 of older
    dumps; ShapeError on anything malformed, a header whose p0 and N_p
    make no ``PGrid`` included.  The field records the sigma of a v3
    header, and none for v1 and v2."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if tuple(head[:2]) not in _FORMATS:
        raise ShapeError("not a heightfield v1, v2 or v3 dump")
    read_body, width = _FORMATS[tuple(head[:2])]
    if len(head) != width:
        raise ShapeError(f"heightfield {head[1]} header has {len(head)} "
                         f"fields, not {width}")
    try:
        N_q, N_p = int(head[2]), int(head[3])
        p0, Q = float(head[4]), float(head[5])
        pgrid = PGrid(p0, N_p)      # DomainError: p0 >= 0, N_p odd or < 8
        sigma = float(head[6]) if width == 7 else None
        h = read_body(lines[1:], N_p)
    except (ValueError, DomainError) as exc:    # binascii.Error: ValueError
        raise ShapeError(f"malformed heightfield dump: {exc}") from None
    if not (np.isfinite(p0) and np.isfinite(Q) and np.all(np.isfinite(h))):
        raise ShapeError("heightfield dump holds a non-finite value")
    if sigma is not None and not 0.0 <= sigma < np.inf:
        raise ShapeError(f"heightfield sigma {sigma!r} is not finite and >= 0")
    if h.shape != (N_q + 1, N_p + 1):
        raise ShapeError(f"dump body {h.shape} does not match header")
    return HeightField(Q=Q, N_q=N_q, pgrid=pgrid, h=h, sigma=sigma)
