"""Linearized spectral problem along the laminar family.

Shooting on the self-adjoint Sturm-Liouville form

    (a^3 M')' = (n^2 a + g rho_p) M,        a = H_p^{-1},
    M(p0) = 0,
    lambda^{3/2} M'(0) = (n^2 sigma + g rho(0)) M(0),

turns bifurcation detection into root finding on the dispersion function

    D(n, lambda) = lambda^{3/2} M'(0) - (n^2 sigma + g rho(0)) M(0),

where M is the shooting solution (M'(p0) = 1).  The n = 0 mode carries a
nonlocal forcing term and is assembled from two auxiliary IVPs.  An
independent Rayleigh-quotient route (discrete generalized eigenvalue by
Sturm-sequence bisection) cross-checks the n = 1 root, and the resonance
scan classifies bifurcation points as simple, double, or zero-mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import (IndefiniteFormError, LBViolatedError,
                     MultiplicityExceededError, RootNotFoundError,
                     SuperpositionDegenerateError)
from .laminar import LAMBDA_CAP, lambda_floor, solve_laminar
from .profiles import PGrid, Physics

RESONANCE_RTOL = 1e-6
DISPERSION_RTOL = 1e-10
_RESCALE_LIMIT = 1e150


@dataclass(frozen=True)
class EigenMode:
    """Solution M(p) of the linearized problem for wavenumber n.

    normalization is one of "shooting" (M'(p0) = 1) or "sinh"
    (M'(p0) = n / sqrt(lambda), matching the constant-density closed form
    sinh(n (p - p0) / sqrt(lambda))).  log_rescale records the
    log of any overflow-guard factor divided out during integration; it
    cancels in all ratios used downstream.
    """

    n: int
    lam: float
    M: np.ndarray
    Mp: np.ndarray
    Mpp: np.ndarray
    normalization: str
    log_rescale: float = 0.0

    def renormalized(self, normalization: str) -> "EigenMode":
        if normalization == self.normalization:
            return self
        if normalization == "shooting":
            factor = 1.0 / self.Mp[0]
        elif normalization == "sinh":
            factor = (self.n / np.sqrt(self.lam)) / self.Mp[0]
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        return EigenMode(n=self.n, lam=self.lam, M=self.M * factor,
                         Mp=self.Mp * factor, Mpp=self.Mpp * factor,
                         normalization=normalization,
                         log_rescale=self.log_rescale)


@dataclass(frozen=True)
class BifurcationPoint:
    """lambda_* with its resonant modes and classification."""

    lambda_star: float
    Q_star: float
    modes: tuple            # EigenMode list, n = 1 first
    classification: str     # "Simple" | "Double" | "ZeroMode"
    n2: int | None
    residuals: dict         # n -> |D| / scale for every scanned n
    resonance_rtol: float = RESONANCE_RTOL


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


def _shoot(flow, physics, n, forcing=0.0, M0p=1.0):
    """RK4 on (M, w = a^3 M'), w' = (n^2 a + g rho_p) M + forcing.

    Coefficient samples at the nodes and half-step stations are evaluated
    in one batch up front (the stage values of a linear system only need
    those), so the marching loop is pure scalar arithmetic, done on Python
    floats: the same IEEE double operations in the same order as on numpy
    scalars, without their per-operation dispatch.  Returns node samples
    of M, M', M'' and the accumulated log rescale applied to keep the
    state finite for large n.
    """
    grid = flow.grid
    p = grid.nodes
    h = float(grid.h)
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

    m, w = 0.0, float(a_nodes[0] ** 3 * M0p)
    log_rescale = 0.0
    corr = 1.0
    M, Mp = [m], [float(M0p)]
    hh, h6 = 0.5 * h, h / 6.0
    ia3_n, ia3_h = inv_a3_nodes.tolist(), inv_a3_half.tolist()
    c_n, c_h = c_nodes.tolist(), c_half.tolist()
    f_n, f_h = f_nodes.tolist(), f_half.tolist()
    for k in range(grid.N_p):
        dm1 = w * ia3_n[k]
        dw1 = c_n[k] * m + f_n[k] * corr
        m2, w2 = m + hh * dm1, w + hh * dw1
        dm2 = w2 * ia3_h[k]
        dw2 = c_h[k] * m2 + f_h[k] * corr
        m3, w3 = m + hh * dm2, w + hh * dw2
        dm3 = w3 * ia3_h[k]
        dw3 = c_h[k] * m3 + f_h[k] * corr
        m4, w4 = m + h * dm3, w + h * dw3
        dm4 = w4 * ia3_n[k + 1]
        dw4 = c_n[k + 1] * m4 + f_n[k + 1] * corr
        m += h6 * (dm1 + 2.0 * dm2 + 2.0 * dm3 + dm4)
        w += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        big = max(abs(m), abs(w))
        if big > _RESCALE_LIMIT:
            m /= big
            w /= big
            M = [x / big for x in M]
            Mp = [x / big for x in Mp]
            log_rescale += np.log(big)
            corr = float(np.exp(-log_rescale))
        M.append(m)
        Mp.append(w * ia3_n[k + 1])
    M, Mp = np.array(M), np.array(Mp)
    ap_nodes = ap_of(p)
    Mpp = ((n * n * a_nodes + g * rp_nodes) * M + forcing * rp_nodes * corr
           - 3.0 * a_nodes ** 2 * ap_nodes * Mp) * inv_a3_nodes
    return M, Mp, Mpp, log_rescale


def shoot_mode(flow, physics: Physics, n: int,
               normalization: str = "shooting") -> EigenMode:
    """Shooting solution for wavenumber n >= 1."""
    if n < 1:
        raise ValueError("shoot_mode requires n >= 1; use shoot_zero_mode")
    M, Mp, Mpp, logr = _shoot(flow, physics, n)
    mode = EigenMode(n=n, lam=flow.lam, M=M, Mp=Mp, Mpp=Mpp,
                     normalization="shooting", log_rescale=logr)
    return mode.renormalized(normalization)


def dispersion(flow, physics: Physics, sigma: float, mode: EigenMode):
    """(D, scale): the boundary mismatch
    D = lambda^{3/2} M'(0) - (n^2 sigma + g rho(0)) M(0) and the sum of the
    magnitudes of its two terms, for relative tolerances.

    D is positive exactly when lambda exceeds the mode-n bifurcation value;
    n = 0 gives the nonlocal mode's D0 = lambda^{3/2} M'(0) - g rho(0) M(0).
    """
    top = flow.lam ** 1.5 * mode.Mp[-1]
    bottom = (mode.n ** 2 * sigma + physics.g * physics.rho0()) * mode.M[-1]
    return float(top - bottom), float(abs(top) + abs(bottom))


def shoot_zero_mode(flow, physics: Physics):
    """The n = 0 mode with its nonlocal forcing, via superposition.

    u1 solves (a^3 u')' - g rho_p u = 0 with u(p0) = 0, u'(p0) = 1;
    u2 solves (a^3 u')' - g rho_p u = -g rho_p with zero initial data.
    Then M = u1 + m0 u2 with m0 = u1(0) / (1 - u2(0)), and
    D0 = lambda^{3/2} M'(0) - g rho(0) M(0).
    """
    M1, M1p, M1pp, _ = _shoot(flow, physics, 0, forcing=0.0, M0p=1.0)
    M2, M2p, M2pp, _ = _shoot(flow, physics, 0, forcing=-physics.g, M0p=0.0)
    denom = 1.0 - M2[-1]
    if abs(denom) < 1e-12:
        raise SuperpositionDegenerateError(
            "zero-mode superposition denominator vanished")
    m0 = M1[-1] / denom
    M = M1 + m0 * M2
    Mp = M1p + m0 * M2p
    Mpp = M1pp + m0 * M2pp
    mode = EigenMode(n=0, lam=flow.lam, M=M, Mp=Mp, Mpp=Mpp,
                     normalization="shooting")
    return mode, dispersion(flow, physics, physics.sigma, mode)[0]


def _relative(flow, physics, sigma, mode) -> float:
    """D / scale of ``dispersion``."""
    D, scale = dispersion(flow, physics, sigma, mode)
    return D / scale


def _relative_D(physics, grid, sigma, n):
    """lambda -> D / scale for the given n, as a smooth scalar function."""
    def f(lam):
        flow = solve_laminar(physics, lam, grid)
        return _relative(flow, physics, sigma, shoot_mode(flow, physics, n))
    return f


def _first_admissible(floor: float) -> float:
    """The lowest lambda a scan evaluates: just above the laminar floor."""
    return floor + 1e-8 * max(1.0, abs(floor))


def _smallest_root(f, floor: float, cap: float) -> float | None:
    """Smallest sign change of f(lambda) above the laminar floor.

    Geometric bracket scan from just above the floor, then Brent; None
    when f keeps its sign up to ``cap``.
    """
    lo = _first_admissible(floor)
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


def find_lambda_star(physics: Physics, grid: PGrid, sigma: float | None = None,
                     n: int = 1) -> float:
    """Smallest dispersion root for mode n (default n = 1).

    Geometric bracket scan above the floor followed by Brent, with the
    |D| <= 1e-10 * scale stopping rule.  Raises LBViolatedError when no
    sign change exists below the cap.
    """
    if sigma is None:
        sigma = physics.sigma
    f = _relative_D(physics, grid, sigma, n)
    root = _smallest_root(f, lambda_floor(physics, grid), LAMBDA_CAP)
    if root is None:
        raise LBViolatedError(
            f"no dispersion sign change for n={n} up to lambda={LAMBDA_CAP}")
    if abs(f(root)) > DISPERSION_RTOL:
        raise RootNotFoundError(
            f"dispersion root for n={n} not resolved to tolerance")
    return float(root)


def rayleigh_mu(flow, physics: Physics, sigma: float, N: int = 512) -> float:
    """Minimum of the Rayleigh quotient over the discrete admissible set.

    P1 elements on an N-interval uniform grid with phi(p0) eliminated;
    numerator  int a^3 phi'^2 - (g rho(0) + sigma) phi(0)^2,
    denominator int (a + g rho_p) phi^2.
    The smallest generalized eigenvalue is found by bisection on the
    Sturm-sequence sign count of A - mu B.
    """
    p0 = flow.grid.p0
    h = abs(p0) / N
    nodes = np.linspace(p0, 0.0, N + 1)
    a_of, _ = _coefficient_interpolants(flow)
    # 2-point Gauss per element for the coefficient integrals.
    gauss = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    pts = mids[:, None] + 0.5 * h * gauss[None, :]
    a_q = a_of(pts)
    w_q = a_q + physics.g * physics.rho_p(pts)
    if np.any(w_q <= 0):
        raise IndefiniteFormError(
            "denominator weight a + g rho_p not positive on the grid")
    a3_el = 0.5 * np.sum(a_of(pts) ** 3, axis=1)        # mean of a^3 per element
    # P1 stiffness: (a3/h) [[1,-1],[-1,1]]; mass with weight w via Gauss:
    # shape functions at the two Gauss points.
    xi = 0.5 * (1.0 + gauss)                            # in [0,1]
    phi_L, phi_R = 1.0 - xi, xi
    wmass_LL = 0.5 * h * np.sum(w_q * phi_L ** 2, axis=1)
    wmass_RR = 0.5 * h * np.sum(w_q * phi_R ** 2, axis=1)
    wmass_LR = 0.5 * h * np.sum(w_q * phi_L * phi_R, axis=1)

    # Assemble tridiagonal A, B over free nodes 1..N (node 0 eliminated).
    diag_A = np.zeros(N + 1)
    off_A = np.zeros(N)
    diag_B = np.zeros(N + 1)
    off_B = np.zeros(N)
    k = a3_el / h
    np.add.at(diag_A, np.arange(N), k)
    np.add.at(diag_A, np.arange(1, N + 1), k)
    off_A -= k
    np.add.at(diag_B, np.arange(N), wmass_LL)
    np.add.at(diag_B, np.arange(1, N + 1), wmass_RR)
    off_B += wmass_LR
    diag_A[-1] -= physics.g * physics.rho0() + sigma    # the boundary corner
    dA, oA = diag_A[1:], off_A[1:]
    dB, oB = diag_B[1:], off_B[1:]

    def count_below(mu):
        """Number of generalized eigenvalues < mu (negative LDL^T pivots)."""
        d = dA - mu * dB
        o = oA - mu * oB
        count = 0
        piv = d[0]
        if piv < 0:
            count += 1
        for i in range(1, d.size):
            denom = piv if piv != 0 else 1e-300
            piv = d[i] - o[i - 1] ** 2 / denom
            if piv < 0:
                count += 1
        return count

    lo, hi = -1.0, 1.0
    while count_below(lo) > 0:
        lo *= 2.0
        if lo < -1e12:
            raise RootNotFoundError("Rayleigh bisection bracket blew up")
    while count_below(hi) < 1:
        hi *= 2.0
        if hi > 1e12:
            raise RootNotFoundError("Rayleigh bisection bracket blew up")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def classify(physics: Physics, grid: PGrid, sigma: float | None = None,
             n_max: int = 64,
             resonance_rtol: float = RESONANCE_RTOL) -> BifurcationPoint:
    """Locate lambda_* and classify it by scanning resonances.

    A mode n counts as resonant when |D(n, lambda_*)| < rtol * scale.
    Early exit once the dispersion gap has been growing (mode bifurcation
    values safely above lambda_*) for 3 consecutive n.
    """
    if sigma is None:
        sigma = physics.sigma
    lam_star = find_lambda_star(physics, grid, sigma)
    flow = solve_laminar(physics, lam_star, grid)

    mode1 = shoot_mode(flow, physics, 1)
    residuals = {1: abs(_relative(flow, physics, sigma, mode1))}
    modes = [mode1]

    zmode, _ = shoot_zero_mode(flow, physics)
    residuals[0] = abs(_relative(flow, physics, sigma, zmode))
    zero_resonant = residuals[0] < resonance_rtol

    resonant = []
    grow_streak = 0
    prev_gap = None
    for n in range(2, n_max + 1):
        mode = shoot_mode(flow, physics, n)
        rel = _relative(flow, physics, sigma, mode)
        residuals[n] = abs(rel)
        if abs(rel) < resonance_rtol:
            resonant.append((n, mode))
        # D < 0 means the mode-n bifurcation value sits above lambda_*;
        # once that gap grows with n, higher resonances are impossible.
        gap = -rel
        if gap > 0 and prev_gap is not None and gap > prev_gap:
            grow_streak += 1
        else:
            grow_streak = 0
        prev_gap = gap if gap > 0 else None
        if grow_streak >= 3:
            break

    if len(resonant) >= 2:
        raise MultiplicityExceededError(
            f"resonant wavenumbers {[n for n, _ in resonant]} at lambda_*="
            f"{lam_star}: null space would exceed dimension two")

    if zero_resonant:
        classification, n2 = "ZeroMode", 0
        modes.append(zmode)
    elif resonant:
        n2, mode2 = resonant[0]
        classification = "Double"
        modes.append(mode2)
    else:
        classification, n2 = "Simple", None

    return BifurcationPoint(lambda_star=lam_star, Q_star=flow.Q,
                            modes=tuple(modes), classification=classification,
                            n2=n2, residuals=residuals,
                            resonance_rtol=resonance_rtol)


def _irrotational_double_seed(physics, n2, cap=LAMBDA_CAP):
    """Closed-form seed for (sigma_d, lambda_d) from the constant-density
    dispersion relation lambda = ((n^2 s + g rho0)/n) tanh(n |p0| / sqrt(lambda))."""
    g_rho = physics.g * physics.rho0()
    P = abs(physics.p0)

    def t(n, lam):
        return np.tanh(n * P / np.sqrt(lam))

    def sigma_of(lam):
        return lam / t(1, lam) - g_rho

    def f(lam):
        s = sigma_of(lam)
        return ((n2 ** 2 * s + g_rho) / n2) * t(n2, lam) - lam

    # sigma = 0 at the gravity-only n = 1 root lambda_s.  Just above it
    # f < 0 (tanh(n x)/n < tanh(x)); once n2^2 sigma(lambda) dominates,
    # f ~ (n2^2 - 1) lambda > 0, so one sign change sits in between.
    if g_rho <= 0:
        raise RootNotFoundError(
            "no double bifurcation points without gravity")
    lam_s = brentq(lambda lam: lam - g_rho * t(1, lam), 1e-12, cap,
                   xtol=1e-14, rtol=8.9e-16)
    lo = lam_s * (1.0 + 1e-9)
    if f(lo) >= 0:
        raise RootNotFoundError("no seed bracket for the double point")
    hi = lo
    while f(hi) < 0:
        hi *= 1.5
        if hi > cap:
            raise RootNotFoundError("no seed bracket for the double point")
    lam_d = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return sigma_of(lam_d), lam_d


def find_double_sigma(physics: Physics, grid: PGrid, n2: int):
    """Surface tension and parameter of an exact double bifurcation point.

    2-d Newton (finite-difference Jacobian) on
    (D(1, lambda; sigma), D(n2, lambda; sigma)) = 0 relative to their
    scales, seeded from the constant-density closed forms, until both are
    below 1e-12 (at most 40 steps).  Returns (sigma_d, lambda_d).
    """
    if n2 < 2:
        raise ValueError("n2 must be >= 2")
    sigma, lam = _irrotational_double_seed(physics, n2)

    def F(sigma_, lam_):
        flow = solve_laminar(physics, lam_, grid)
        return np.array([_relative(flow, physics, sigma_,
                                   shoot_mode(flow, physics, n))
                         for n in (1, n2)])

    x = np.array([sigma, lam])
    for _ in range(40):
        r = F(*x)
        if np.max(np.abs(r)) < 1e-12:
            return float(x[0]), float(x[1])
        J = np.empty((2, 2))
        for j in range(2):
            step = 1e-7 * max(1.0, abs(x[j]))
            xp = x.copy()
            xp[j] += step
            J[:, j] = (F(*xp) - r) / step
        try:
            dx = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise RootNotFoundError(f"double-point Newton Jacobian singular: {exc}")
        lam_floor_val = lambda_floor(physics, grid)
        damp = 1.0
        while (x[1] + damp * dx[1] <= lam_floor_val
               or x[0] + damp * dx[0] <= 0) and damp > 1e-8:
            damp *= 0.5
        x = x + damp * dx
    raise RootNotFoundError(
        f"double-point Newton did not converge for n2={n2}")


def lambda_star_of_sigma(physics: Physics, grid: PGrid, sigmas):
    """lambda_*(sigma) over a sigma sample set (monotone increasing)."""
    return np.array([find_lambda_star(physics, grid, s) for s in sigmas])
