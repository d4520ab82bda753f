"""Linearized spectral problem along the laminar family.

Shooting on the self-adjoint Sturm-Liouville form

    (a^3 M')' = (n^2 a + g rho_p) M,        a = H_p^{-1},
    M(p0) = 0,
    lambda^{3/2} M'(0) = (n^2 sigma + g rho(0)) M(0),

turns bifurcation detection into root finding on the dispersion function

    D(n, lambda) = lambda^{3/2} M'(0) - (n^2 sigma + g rho(0)) M(0),

where M is the shooting solution (M'(p0) = 1).  The n = 0 mode carries a
nonlocal forcing term and is assembled from two unforced shots.  An
independent Rayleigh-quotient route (discrete generalized eigenvalue by
Sturm-sequence bisection) cross-checks the n = 1 root, and the resonance
scan classifies bifurcation points as simple, double, or zero-mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .errors import (IndefiniteFormError, LBViolatedError,
                     MultiplicityExceededError, RootNotFoundError,
                     SuperpositionDegenerateError)
from .laminar import (LAMBDA_CAP, LaminarFlow, _given_data, _pchip_samples,
                      _smallest_root, _twoB_samples, lambda_floor,
                      solve_laminar)
from .piecewise import _evaluate, _hermite, _pchip_slopes
from .profiles import PGrid, Physics

RESONANCE_RTOL = 1e-6
DISPERSION_RTOL = 1e-10
_RESCALE_LIMIT = 1e150
_SCAN_BLOCK = 6
_FINISH = 8


@dataclass(frozen=True)
class EigenMode:
    """Solution M(p) of the linearized problem for wavenumber n.

    normalization is one of "shooting" (M'(p0) = 1) or "sinh"
    (M'(p0) = n / sqrt(lambda), matching the constant-density closed form
    sinh(n (p - p0) / sqrt(lambda)); not defined for n = 0).
    """

    n: int
    lam: float
    M: np.ndarray
    Mp: np.ndarray
    Mpp: np.ndarray
    normalization: str

    def renormalized(self, normalization: str) -> "EigenMode":
        if normalization == self.normalization:
            return self
        if normalization == "shooting":
            factor = 1.0 / self.Mp[0]
        elif normalization == "sinh":
            if self.n == 0:
                # n / sqrt(lambda) = 0 would scale the mode to zero
                raise ValueError("the zero mode has no sinh normalization")
            factor = (self.n / np.sqrt(self.lam)) / self.Mp[0]
        else:
            raise ValueError(f"unknown normalization {normalization!r}")
        return EigenMode(n=self.n, lam=self.lam, M=self.M * factor,
                         Mp=self.Mp * factor, Mpp=self.Mpp * factor,
                         normalization=normalization)


@dataclass(frozen=True)
class BifurcationPoint:
    """lambda_* with the laminar flow there, its resonant modes and
    classification."""

    lambda_star: float
    flow: LaminarFlow
    modes: tuple            # EigenMode list, n = 1 first
    classification: str     # "Simple" | "Double" | "ZeroMode"
    n2: int | None
    residuals: dict         # n -> |D| / scale for every scanned n
    resonance_rtol: float = RESONANCE_RTOL


@dataclass(frozen=True)
class ShotCoefficients:
    """The coefficient samples of every shot on one flow, independent of n.

    a and rho_p at the nodes and half-step stations, a^-3 at both (as
    arrays for the step matrices of ``_steps``, and as Python floats for
    the recording ``_march``), and a' at the nodes, with a and a'
    bit-equal to those of scipy's PchipInterpolator of G and its
    derivative.  Build them with ``shot_coefficients`` once per flow and
    pass them to each shot on it, as ``classify`` does for all its shots.
    """

    h: float
    N_p: int
    g: float
    a_nodes: np.ndarray
    a_half: np.ndarray
    ap_nodes: np.ndarray
    rp_nodes: np.ndarray
    rp_half: np.ndarray
    inv_a3_nodes: np.ndarray
    inv_a3_half: np.ndarray
    ia3_n: list
    ia3_h: list


def shot_coefficients(flow, physics: Physics) -> ShotCoefficients:
    """Sample the shooting coefficients of ``flow`` once.

    a = sqrt(lambda + G) and a' = G' / (2 a) come from the PCHIP of G,
    evaluated by ``piecewise`` on one row as scipy's PchipInterpolator
    and its derivative would; rho_p from the grid's cached samples.  A
    flow whose G is 2B bit for bit (every homogeneous one) reads the
    profile's PCHIP samples, fitted once, and computes only a, a' and
    a^-3 here.
    """
    rho, beta, grid = physics.rho, physics.beta, flow.grid
    nodes = grid.N_p + 1
    given = _given_data(rho, beta, grid)
    if given.homogeneous and np.array_equal(flow.G, given.twoB):
        G_at, G_slopes = _twoB_samples(rho, beta, grid)
    else:
        G_at, G_slopes = _pchip_samples(given, flow.G)
    a = np.sqrt(flow.lam + G_at)
    a_nodes = a[:nodes]
    ap_nodes = G_slopes / (2.0 * a_nodes)
    inv_a3 = a ** -3.0
    return ShotCoefficients(
        h=float(grid.h), N_p=grid.N_p, g=physics.g, a_nodes=a_nodes,
        a_half=a[nodes:], ap_nodes=ap_nodes, rp_nodes=given.rho_p,
        rp_half=given.rho_p_half, inv_a3_nodes=inv_a3[:nodes],
        inv_a3_half=inv_a3[nodes:], ia3_n=inv_a3[:nodes].tolist(),
        ia3_h=inv_a3[nodes:].tolist())


def _march(coef, n, m0=0.0, M0p=1.0, record=True):
    """RK4 on (M, w = a^3 M'), w' = (n^2 a + g rho_p) M, from
    (M, M')(p0) = (m0, M0p), on the samples of ``shot_coefficients``,
    recording every node: M, M' and M'' at the nodes and the accumulated
    log of the divisors below.

    The stage values of a linear system only need the coefficients at the
    nodes and half-step stations, so the loop is pure scalar arithmetic,
    done on Python floats: the same IEEE double operations in the same
    order as on numpy scalars, without their per-operation dispatch.  When
    the state passes 1e150 it is divided by its largest entry, which keeps
    it finite for large n.  The march builds modes only: a value that
    needs just the end point (M(0), M'(0)) comes from ``_ends``, and
    ``record`` must be true.
    """
    if not record:
        raise ValueError("end points alone come from _ends, not _march")
    h = coef.h
    c_nodes = n * n * coef.a_nodes + coef.g * coef.rp_nodes
    c_n = c_nodes.tolist()
    c_half = (n * n * coef.a_half + coef.g * coef.rp_half).tolist()
    m, w = float(m0), float(coef.a_nodes[0] ** 3 * M0p)
    log_rescale = 0.0
    M, Mp = [m], [float(M0p)]
    hh, h6 = 0.5 * h, h / 6.0
    lim, nlim = _RESCALE_LIMIT, -_RESCALE_LIMIT
    ia3_n = coef.ia3_n
    for ia_k, ia_h, ia_k1, c_k, c_hk, c_k1 in zip(
            ia3_n, coef.ia3_h, ia3_n[1:], c_n, c_half, c_n[1:]):
        dm1 = w * ia_k
        dw1 = c_k * m
        m2, w2 = m + hh * dm1, w + hh * dw1
        dm2 = w2 * ia_h
        dw2 = c_hk * m2
        m3, w3 = m + hh * dm2, w + hh * dw2
        dm3 = w3 * ia_h
        dw3 = c_hk * m3
        m4, w4 = m + h * dm3, w + h * dw3
        dm4 = w4 * ia_k1
        dw4 = c_k1 * m4
        m += h6 * (dm1 + 2.0 * dm2 + 2.0 * dm3 + dm4)
        w += h6 * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4)
        if m > lim or m < nlim or w > lim or w < nlim:
            big = max(abs(m), abs(w))
            m /= big
            w /= big
            M = [x / big for x in M]
            Mp = [x / big for x in Mp]
            log_rescale += np.log(big)
        M.append(m)
        Mp.append(w * ia_k1)
    M, Mp = np.array(M), np.array(Mp)
    Mpp = (c_nodes * M
           - 3.0 * coef.a_nodes ** 2 * coef.ap_nodes * Mp) * coef.inv_a3_nodes
    return M, Mp, Mpp, log_rescale


def _steps(coef, ns):
    """The RK4 step matrices of the mode-n march for each n in ns, shape
    (2, 2, len(ns), N_p): (M, w) at node k + 1 is T_k (M, w) at node k.

    Column j of T_k is ``_march``'s stages run on the j-th unit vector and
    multiplied out; the columns share the stage terms s and m4.
    """
    h, u, h6 = coef.h, 0.5 * coef.h, coef.h / 6.0
    nn = np.array([[n * n] for n in ns], dtype=float)
    c = nn * coef.a_nodes + coef.g * coef.rp_nodes
    c0, c1 = c[:, :-1], c[:, 1:]
    ch = nn * coef.a_half + coef.g * coef.rp_half
    ia_k, ia_h, ia_k1 = (coef.inv_a3_nodes[:-1], coef.inv_a3_half,
                         coef.inv_a3_nodes[1:])
    uah = u * ia_h
    s = ch * uah                # dm3 from (1, 0), dw3 from (0, 1)
    m4 = 1.0 + h * s            # m4 from (1, 0), w4 from (0, 1)
    dm2 = c0 * uah              # from (1, 0)
    m3 = 1.0 + u * dm2
    dw2 = ch * (u * ia_k)       # from (0, 1)
    w3 = 1.0 + u * dw2
    T = np.empty((2, 2) + c0.shape)
    np.add(1.0, h6 * (2.0 * (dm2 + s) + h * ch * m3 * ia_k1), out=T[0, 0])
    np.multiply(h6, c0 + 2.0 * ch * (1.0 + m3) + c1 * m4, out=T[1, 0])
    np.multiply(h6, ia_k + 2.0 * ia_h * (1.0 + w3) + ia_k1 * m4, out=T[0, 1])
    np.add(1.0, h6 * (2.0 * (dw2 + s) + c1 * h * ia_h * w3), out=T[1, 1])
    return T


def _product(T, rescale=False):
    """The products T_{N-1} ... T_1 T_0 of a batch of step matrices T
    (2, 2, nb, N): one (P00, P01, P10, P11, E) per batch column, the
    product being 2^E P.

    The matrices are multiplied pairwise, a level at a time, each level
    one array product; a level of odd length carries its last matrix up
    unpaired.  Once at most _FINISH matrices per column are left, their
    few products run on Python floats, which is cheaper than an array
    operation each; each column is multiplied in the same order whatever
    the batch holds.  With ``rescale``, every level is an array product,
    and each partial product with an entry past _RESCALE_LIMIT is divided
    by a power of two, which is exact, and E counts the powers; without
    it nothing is scaled and E is 0.
    """
    E = np.zeros(T.shape[2:], dtype=int)
    while T.shape[-1] > (1 if rescale else _FINISH):
        paired = T.shape[-1] - T.shape[-1] % 2
        A, B = T[..., :paired:2], T[..., 1::2]
        P = B[:, :1] * A[:1] + B[:, 1:] * A[1:]
        if paired < T.shape[-1]:
            P = np.concatenate((P, T[..., paired:]), axis=-1)
        T = P
        if rescale:
            E = np.concatenate((E[:, :paired:2] + E[:, 1::2],
                                E[:, paired:]), axis=-1)
            big = abs(T).max(axis=(0, 1))
            e = np.where(big > _RESCALE_LIMIT, np.frexp(big)[1], 0)
            T = np.ldexp(T, -e)
            E += e
    products = []
    for t00, t01, t10, t11, e in zip(*T.reshape(4, T.shape[2], -1).tolist(),
                                     E[:, 0].tolist()):
        p00, p01, p10, p11 = t00[0], t01[0], t10[0], t11[0]
        for a, b, c, d in zip(t00[1:], t01[1:], t10[1:], t11[1:]):
            p00, p01, p10, p11 = (a * p00 + b * p10, a * p01 + b * p11,
                                  c * p00 + d * p10, c * p01 + d * p11)
        products.append((p00, p01, p10, p11, e))
    return products


def _transfer(coef, ns):
    """``_product`` of the mode-n ``_steps`` for each n in ns, rescaled
    only when an entry of the unscaled product passes _RESCALE_LIMIT (or
    overflows)."""
    T = _steps(coef, ns)
    with np.errstate(over="ignore", invalid="ignore"):
        products = _product(T)
    if all(abs(x) <= _RESCALE_LIMIT for p in products for x in p[:4]):
        return products
    return _product(T, rescale=True)


def _ends(coef, ns):
    """End points (M(0), M'(0)) of the mode-n shot for each n in ns, from
    one ``_transfer`` product.

    For n >= 1 the shot from (M, M')(p0) = (0, 1), up to the product's
    power of two, which D / scale does not see; for n = 0 the zero mode's
    ``_zero_superposition`` of both columns, read from the unscaled
    product.
    """
    w0, ia3_end = float(coef.a_nodes[0] ** 3), coef.ia3_n[-1]
    ends = []
    for n, (p00, p01, p10, p11, e) in zip(ns, _transfer(coef, ns)):
        if n:
            ends.append((p01 * w0, p11 * w0 * ia3_end))
            continue
        p00, p01, p10, p11 = (math.ldexp(x, e) for x in (p00, p01, p10, p11))
        ends.append(_zero_superposition((p01 * w0, p11 * w0 * ia3_end),
                                        (p00, p10 * ia3_end)))
    return ends


def _zero_superposition(u1, v):
    """The zero mode's (M, M', ...) from those of the two unforced n = 0
    shots u1, from (0, 1), and v, from (1, 0): node arrays or end values.

    u2 = 1 - v solves the forced problem (a^3 u')' - g rho_p u = -g rho_p
    from zero data, so M = u1 + m0 (1 - v), M' = u1' - m0 v' and
    M'' = u1'' - m0 v'', with m0 = u1(0) / v(0).
    """
    u1_end, v_end = u1[0], v[0]
    if np.ndim(u1_end):
        u1_end, v_end = u1_end[-1], v_end[-1]
    if abs(v_end) < 1e-12:
        raise SuperpositionDegenerateError(
            "zero-mode superposition denominator vanished")
    m0 = u1_end / v_end
    return (u1[0] + m0 * (1.0 - v[0]),) + tuple(
        d1 - m0 * dv for d1, dv in zip(u1[1:], v[1:]))


def shoot_mode(flow, physics: Physics, n: int,
               normalization: str = "shooting",
               coefficients: ShotCoefficients | None = None) -> EigenMode:
    """Shooting solution for wavenumber n >= 1, on the flow's
    ``shot_coefficients`` (sampled here unless given)."""
    if n < 1:
        raise ValueError("shoot_mode requires n >= 1; use shoot_zero_mode")
    if coefficients is None:
        coefficients = shot_coefficients(flow, physics)
    M, Mp, Mpp, _ = _march(coefficients, n)
    mode = EigenMode(n=n, lam=flow.lam, M=M, Mp=Mp, Mpp=Mpp,
                     normalization="shooting")
    return mode.renormalized(normalization)


def dispersion(flow, physics: Physics, mode: EigenMode):
    """(D, scale): the boundary mismatch
    D = lambda^{3/2} M'(0) - (n^2 sigma + g rho(0)) M(0) and the sum of the
    magnitudes of its two terms, for relative tolerances.

    D is positive exactly when lambda exceeds the mode-n bifurcation value;
    n = 0 gives the nonlocal mode's D0 = lambda^{3/2} M'(0) - g rho(0) M(0).
    """
    return _mismatch_at(flow.lam, physics.sigma, physics.g * physics.rho0(),
                        mode.n, (mode.M[-1], mode.Mp[-1]))


def _mismatch_at(lam, sigma, g_rho0, n, end):
    """``dispersion``'s (D, scale) at surface tension sigma, with g rho(0)
    given, from the mode's end point end = (M(0), M'(0))."""
    top = lam ** 1.5 * end[1]
    bottom = (n ** 2 * sigma + g_rho0) * end[0]
    return float(top - bottom), float(abs(top) + abs(bottom))


def _dispersion_at(flow, physics: Physics, n: int,
                   coefficients: ShotCoefficients | None = None):
    """``dispersion``'s (D, scale) of the mode-n shot on ``flow`` (for
    n = 0, of ``shoot_zero_mode``'s mode) from the end point of one
    ``_transfer`` product: no mode is recorded.  D / scale agrees with
    that of the recorded march to round-off (within 1e-13, a test pins
    it), and for n >= 1 D and scale carry the product's power of two.
    The coefficients are sampled here unless given."""
    if coefficients is None:
        coefficients = shot_coefficients(flow, physics)
    return _mismatch_at(flow.lam, physics.sigma, physics.g * physics.rho0(),
                        n, _ends(coefficients, (n,))[0])


def shoot_zero_mode(flow, physics: Physics,
                    coefficients: ShotCoefficients | None = None):
    """The n = 0 mode with its nonlocal forcing, via superposition.

    u1 solves (a^3 u')' - g rho_p u = 0 with u(p0) = 0, u'(p0) = 1;
    u2 solves (a^3 u')' - g rho_p u = -g rho_p with zero initial data.
    Then M = u1 + m0 u2 with m0 = u1(0) / (1 - u2(0)), and
    D0 = lambda^{3/2} M'(0) - g rho(0) M(0).  u2 = 1 - v, where v is the
    unforced shot from v(p0) = 1, v'(p0) = 0 (``_zero_superposition``).
    Both shots run on one ``shot_coefficients`` (sampled here unless
    given).
    """
    if coefficients is None:
        coefficients = shot_coefficients(flow, physics)
    M, Mp, Mpp = _zero_superposition(
        _march(coefficients, 0)[:3],
        _march(coefficients, 0, m0=1.0, M0p=0.0)[:3])
    mode = EigenMode(n=0, lam=flow.lam, M=M, Mp=Mp, Mpp=Mpp,
                     normalization="shooting")
    return mode, dispersion(flow, physics, mode)[0]


def _relative(flow, physics, mode) -> float:
    """D / scale of ``dispersion``."""
    D, scale = dispersion(flow, physics, mode)
    return D / scale


def _lambda_star(physics, grid, n):
    """(lambda_*, flow, coefficients) of ``find_lambda_star``: the root
    with the laminar flow and the shot coefficients its search computed
    there, one solve and one shot per lambda it reads."""
    def evaluate(lam):
        flow = solve_laminar(physics, lam, grid)
        coefficients = shot_coefficients(flow, physics)
        D, scale = _dispersion_at(flow, physics, n, coefficients)
        return D / scale, flow, coefficients

    found = _smallest_root(evaluate, lambda_floor(physics, grid), LAMBDA_CAP)
    if found is None:
        raise LBViolatedError(
            f"no dispersion sign change for n={n} up to lambda={LAMBDA_CAP}")
    root, (relative, flow, coefficients) = found
    if abs(relative) > DISPERSION_RTOL:
        raise RootNotFoundError(
            f"dispersion root for n={n} not resolved to tolerance")
    return float(root), flow, coefficients


def find_lambda_star(physics: Physics, grid: PGrid, n: int = 1) -> float:
    """Smallest dispersion root for mode n (default n = 1).

    Sign-change search over the fixed samples above the floor followed by
    Brent (``_smallest_root``, which evaluates each lambda once), with the
    |D| <= 1e-10 * scale stopping rule read off the evaluation at the
    root.  Raises LBViolatedError when no sign change exists below the
    cap.
    """
    return _lambda_star(physics, grid, n)[0]


def rayleigh_mu(flow, physics: Physics, sigma: float, N: int = 512) -> float:
    """Minimum of the Rayleigh quotient over the discrete admissible set.

    P1 elements on an N-interval uniform grid with phi(p0) eliminated;
    numerator  int a^3 phi'^2 - (g rho(0) + sigma) phi(0)^2,
    denominator int (a + g rho_p) phi^2.
    The smallest generalized eigenvalue is found by bisection on the
    Sturm-sequence sign count of A - mu B.

    Unlike every other function here, sigma is an argument and not read
    from ``physics``: the laminar flow does not depend on it, so one flow
    serves the quotient at any surface tension.
    """
    p0 = flow.grid.p0
    h = abs(p0) / N
    nodes = np.linspace(p0, 0.0, N + 1)
    # 2-point Gauss per element for the coefficient integrals, with
    # a = sqrt(lambda + G) from the PCHIP of G (not of H_p itself)
    gauss = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    pts = mids[:, None] + 0.5 * h * gauss[None, :]
    x, G = flow.grid.nodes[None, :], flow.G[None, :]
    G_q = _evaluate(x, _hermite(x, G, _pchip_slopes(x, G)), pts.reshape(1, -1))
    a_q = np.sqrt(flow.lam + G_q.reshape(pts.shape))
    w_q = a_q + physics.g * physics.rho_p(pts)
    if np.any(w_q <= 0):
        raise IndefiniteFormError(
            "denominator weight a + g rho_p not positive on the grid")
    a3_el = 0.5 * np.sum(a_q ** 3, axis=1)      # mean of a^3 per element
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


def classify(physics: Physics, grid: PGrid, n_max: int = 64,
             resonance_rtol: float = RESONANCE_RTOL) -> BifurcationPoint:
    """Locate lambda_* and classify it by scanning resonances.

    A mode n counts as resonant when |D(n, lambda_*)| < rtol * scale.
    Early exit once the dispersion gap has been growing (mode bifurcation
    values safely above lambda_*) for 3 consecutive n.  D0 and n = 2 up
    to 1 + _SCAN_BLOCK come from one ``_transfer`` product, and each
    later block of _SCAN_BLOCK n from one more, taken only when the scan
    reaches it; ``residuals`` holds exactly the n a scan of one n at a
    time would read.
    """
    lam_star, flow, coefficients = _lambda_star(physics, grid, 1)
    mode1 = shoot_mode(flow, physics, 1, coefficients=coefficients)
    residuals = {1: abs(_relative(flow, physics, mode1))}
    modes = [mode1]

    g_rho0 = physics.g * physics.rho0()

    def relative(ns):
        ends = _ends(coefficients, ns)
        return [D / scale for D, scale in (
            _mismatch_at(flow.lam, physics.sigma, g_rho0, n, end)
            for n, end in zip(ns, ends))]

    rel0, *rels = relative((0, *range(2, min(n_max, _SCAN_BLOCK + 1) + 1)))
    residuals[0] = abs(rel0)
    zero_resonant = residuals[0] < resonance_rtol

    resonant = []
    grow_streak = 0
    prev_gap = None
    for n in range(2, n_max + 1):
        if n - 2 == len(rels):
            rels += relative(range(n, min(n_max, n + _SCAN_BLOCK - 1) + 1))
        rel = rels[n - 2]
        residuals[n] = abs(rel)
        if abs(rel) < resonance_rtol:
            resonant.append(n)
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
            f"resonant wavenumbers {resonant} at lambda_*="
            f"{lam_star}: null space would exceed dimension two")

    if zero_resonant:
        classification, n2 = "ZeroMode", 0
        modes.append(shoot_zero_mode(flow, physics, coefficients)[0])
    elif resonant:
        n2 = resonant[0]
        classification = "Double"
        modes.append(shoot_mode(flow, physics, n2, coefficients=coefficients))
    else:
        classification, n2 = "Simple", None

    return BifurcationPoint(lambda_star=lam_star, flow=flow,
                            modes=tuple(modes), classification=classification,
                            n2=n2, residuals=residuals,
                            resonance_rtol=resonance_rtol)


def _irrotational_double_seed(physics, n2):
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
    lam_s = brentq(lambda lam: lam - g_rho * t(1, lam), 1e-12, LAMBDA_CAP,
                   xtol=1e-14, rtol=8.9e-16)
    lo = lam_s * (1.0 + 1e-9)
    if f(lo) >= 0:
        raise RootNotFoundError("no seed bracket for the double point")
    hi = lo
    while f(hi) < 0:
        hi *= 1.5
        if hi > LAMBDA_CAP:
            raise RootNotFoundError("no seed bracket for the double point")
    lam_d = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return sigma_of(lam_d), lam_d


def find_double_sigma(physics: Physics, grid: PGrid, n2: int):
    """Surface tension and parameter of an exact double bifurcation point.

    2-d Newton (finite-difference Jacobian) on
    (D(1, lambda; sigma), D(n2, lambda; sigma)) = 0 relative to their
    scales, seeded from the constant-density closed forms, until both are
    below 1e-12 (at most 40 steps).  The end points of modes 1 and n2 at
    each lambda come from one ``_transfer`` product.  Returns (sigma_d,
    lambda_d).
    """
    if n2 < 2:
        raise ValueError("n2 must be >= 2")
    sigma, lam = _irrotational_double_seed(physics, n2)
    g_rho0 = physics.g * physics.rho0()

    def shots(lam_):
        # neither the flow nor the end points depend on sigma
        flow = solve_laminar(physics, lam_, grid)
        coefficients = shot_coefficients(flow, physics)
        return flow, _ends(coefficients, (1, n2))

    def F(sigma_, flow, ends):
        # _dispersion_at, its product shared by every sigma at one lambda
        rel = []
        for n, end in zip((1, n2), ends):
            D, scale = _mismatch_at(flow.lam, sigma_, g_rho0, n, end)
            rel.append(D / scale)
        return np.array(rel)

    x = np.array([sigma, lam])
    for _ in range(40):
        at_lam = shots(x[1])
        r = F(x[0], *at_lam)
        if np.max(np.abs(r)) < 1e-12:
            return float(x[0]), float(x[1])
        steps = [1e-7 * max(1.0, abs(v)) for v in x]
        J = np.column_stack([
            (F(x[0] + steps[0], *at_lam) - r) / steps[0],
            (F(x[0], *shots(x[1] + steps[1])) - r) / steps[1]])
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
    return np.array([find_lambda_star(replace(physics, sigma=s), grid)
                     for s in sigmas])
