"""Reduced bifurcation-equation coefficients and local branch germs.

Near a bifurcation point lambda_* with null modes
phi_i = M_i(p) cos(n_i q), the projected height-equation operator expands
as

    f_i(xi; lambda) = (lambda - lambda_*) xi_i Psi_ii
                      + [quadratic Phi terms, resonant only when n2 = 2 n1]
                      + xi_i^3 Theta_iiii + xi_i xi_j^2 Theta_iijj + h.o.t.

All coefficients here are the actual Taylor coefficients of the projected
operator (verified against finite-difference probes of the full nonlinear
residual).  Quadratic and cubic coefficients are assembled programmatically
from the second and third variations of the interior/boundary operators:
each variation is a sum of separable terms (p-profile) x (trig product),
the q-integral of the trig product is evaluated exactly, and the p-integral
by composite Simpson on the shared grid.

The weighted pairing used throughout is

    (phi, (A, B))_Y = iint_R a^3 phi A dq dp + (1/2) int_T a^2 phi B dq,

with a = H_p^{-1} frozen at lambda_*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import ShapeError, SingularSystemError
from .laminar import LaminarFlow, _given_data
from .profiles import Physics, quad, simpson_weights
from .spectral import EigenMode

NONDEG_RTOL = 1e-8
ROOT_DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class CoefficientSet:
    """Bifurcation-equation coefficients for the mode pair (n1, n2).

    The reduced system on each side (sign s = +1 for lambda > lambda_*) is

        s th1 Psi11 + 2 th1 th2 Phi112 + th1^3 Theta1111 + th1 th2^2 Theta1122 = 0
        s th2 Psi22 + th1^2 Phi211     + th2^3 Theta2222 + th1^2 th2 Theta2211 = 0

    i.e. Theta1122/Theta2211 are stored as the full coefficients of the
    mixed cubic monomials (three equal symmetric tensor entries summed).
    """

    n1: int
    n2: int
    psi11: float
    psi22: float
    phi112: float
    phi121: float
    phi211: float
    theta1111: float
    theta2222: float
    theta1122: float
    theta2211: float
    normalization: str
    nd1: bool = field(default=False)
    nd2: bool = field(default=False)
    regular_value: bool = field(default=False)

    def with_flags(self):
        nd1, nd2, regular = check_nondegeneracy(self)
        return replace(self, nd1=nd1, nd2=nd2, regular_value=regular)


@dataclass(frozen=True)
class BranchGerm:
    """First-order tangent of a local branch: kind, side and theta-root."""

    kind: str               # "pure" or "mixed"
    n: int | None           # wavenumber for pure germs
    side: str               # "plus" (lambda > lambda_*) or "minus"
    theta: tuple            # (theta1, theta2)
    scaling_exponent: float  # amplitude ~ |lambda - lambda_*|^exponent


# --- exact integrals of trigonometric products over a period ------------

@lru_cache(maxsize=1024)
def _trig_product_integral(factors: tuple) -> float:
    """int_0^{2pi} prod_k trig_k(n_k q) dq, trig in {"c","s"}, exactly.

    Products of cosines/sines expand into complex exponentials; only the
    zero-wavenumber coefficient survives the integral.  ``factors`` is a
    tuple of (kind, n) pairs; a coefficient set asks for few distinct
    ones, many times each, so each is expanded once.
    """
    coeffs = {0: 1.0 + 0.0j}
    for kind, n in factors:
        new = {}
        if kind == "c":
            parts = ((n, 0.5 + 0.0j), (-n, 0.5 + 0.0j))
        else:
            parts = ((n, -0.5j), (-n, 0.5j))
        for wav, c in coeffs.items():
            for dw, dc in parts:
                key = wav + dw
                new[key] = new.get(key, 0.0j) + c * dc
        coeffs = new
    return 2.0 * np.pi * coeffs.get(0, 0.0j).real


# --- separable representation of mode derivatives -----------------------

def _mode_fields(mode: EigenMode) -> dict:
    """{derivative: (p-profile, (trig kind, wavenumber))} of M cos(nq)."""
    n = mode.n
    return {"0": (mode.M, ("c", n)),
            "p": (mode.Mp, ("c", n)),
            "pp": (mode.Mpp, ("c", n)),
            "q": (-n * mode.M, ("s", n)),
            "qq": (-n * n * mode.M, ("c", n)),
            "pq": (-n * mode.Mp, ("s", n))}


class _FormAssembler:
    """Accumulates separable terms of a multilinear variation and pairs
    them with a test mode under the weighted inner product."""

    def __init__(self, flow: LaminarFlow):
        self.flow = flow
        self.interior = []      # (p-array, (trig factors))
        self.top = []           # (scalar at p=0, (trig factors))
        # id(mode) -> (mode, _mode_fields(mode)); holding the mode keeps
        # its id from being reused while the assembler lives
        self._fields = {}

    def _field(self, mode, deriv):
        entry = self._fields.get(id(mode))
        if entry is None:
            entry = self._fields[id(mode)] = (mode, _mode_fields(mode))
        return entry[1][deriv]

    def add_interior(self, coef, *parts):
        # left to right, as np.prod(stacked, axis=0) multiplies
        prof, trigs = None, []
        for mode, deriv in parts:
            arr, trig = self._field(mode, deriv)
            prof = arr if prof is None else prof * arr
            trigs.append(trig)
        self.interior.append((coef * prof, tuple(trigs)))

    def add_top(self, coef, *parts):
        val = coef
        trigs = []
        for mode, deriv in parts:
            arr, trig = self._field(mode, deriv)
            val = val * arr[-1]
            trigs.append(trig)
        self.top.append((val, tuple(trigs)))

    def pair_with(self, test: EigenMode) -> float:
        flow = self.flow
        a = flow.a
        w = simpson_weights(flow.grid.N_p, flow.grid.h)
        weight = a ** 3 * test.M
        total = 0.0
        for prof, trigs in self.interior:
            qint = _trig_product_integral((("c", test.n),) + trigs)
            if qint != 0.0:
                total += qint * float(w @ (weight * prof))
        a_top = a[-1]
        for val, trigs in self.top:
            qint = _trig_product_integral((("c", test.n),) + trigs)
            if qint != 0.0:
                total += 0.5 * qint * a_top ** 2 * test.M[-1] * val
        return total


def _second_variation(flow, physics, A: EigenMode, B: EigenMode):
    """D^2 G at the laminar state in directions (A, B), d(A) = d(B) = 0."""
    asm = _FormAssembler(flow)
    Hp = flow.Hp
    Hpp = flow.Hpp(physics)
    g = physics.g
    given = _given_data(physics.rho, physics.beta, flow.grid)
    rho_p, beta = given.rho_p, given.beta
    Y = flow.Y

    asm.add_interior(2.0 * Hpp, (A, "q"), (B, "q"))
    asm.add_interior(2.0 * Hp, (A, "qq"), (B, "p"))
    asm.add_interior(2.0 * Hp, (B, "qq"), (A, "p"))
    asm.add_interior(-2.0 * Hp, (A, "q"), (B, "pq"))
    asm.add_interior(-2.0 * Hp, (B, "q"), (A, "pq"))
    asm.add_interior(-3.0 * g * rho_p * Hp ** 2, (A, "0"), (B, "p"))
    asm.add_interior(-3.0 * g * rho_p * Hp ** 2, (B, "0"), (A, "p"))
    asm.add_interior(-6.0 * g * rho_p * Y * Hp, (A, "p"), (B, "p"))
    asm.add_interior(6.0 * Hp * beta, (A, "p"), (B, "p"))

    g_rho0 = g * physics.rho0()
    sigma = physics.sigma
    venttsel = 2.0 * g_rho0 * flow.H[-1] - flow.Q      # equals -lambda
    Hp0 = Hp[-1]
    asm.add_top(2.0, (A, "q"), (B, "q"))
    asm.add_top(2.0 * venttsel, (A, "p"), (B, "p"))
    asm.add_top(2.0 * Hp0 * 2.0 * g_rho0, (A, "p"), (B, "0"))
    asm.add_top(-2.0 * Hp0 * 2.0 * sigma, (A, "p"), (B, "qq"))
    asm.add_top(2.0 * Hp0 * 2.0 * g_rho0, (B, "p"), (A, "0"))
    asm.add_top(-2.0 * Hp0 * 2.0 * sigma, (B, "p"), (A, "qq"))
    return asm


def _third_variation(flow, physics, A, B, C):
    """D^3 G at the laminar state in directions (A, B, C)."""
    asm = _FormAssembler(flow)
    p = flow.grid.nodes
    Hp = flow.Hp
    g = physics.g
    given = _given_data(physics.rho, physics.beta, flow.grid)
    rho_p, beta = given.rho_p, given.beta
    Y = flow.Y
    modes = (A, B, C)

    # distinct unordered pairs with the remaining slot:
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        X, W, Z = modes[i], modes[j], modes[k]
        asm.add_interior(2.0 * np.ones_like(p), (X, "q"), (W, "q"), (Z, "pp"))
        asm.add_interior(2.0 * np.ones_like(p), (Z, "qq"), (X, "p"), (W, "p"))
        asm.add_interior(-6.0 * g * rho_p * Hp, (Z, "0"), (X, "p"), (W, "p"))
    for perm in permutations(range(3)):
        X, W, Z = modes[perm[0]], modes[perm[1]], modes[perm[2]]
        asm.add_interior(-2.0 * np.ones_like(p), (X, "q"), (W, "p"), (Z, "pq"))
    asm.add_interior(-6.0 * g * rho_p * Y, (A, "p"), (B, "p"), (C, "p"))
    asm.add_interior(6.0 * beta, (A, "p"), (B, "p"), (C, "p"))

    g_rho0 = g * physics.rho0()
    sigma = physics.sigma
    Hp0 = Hp[-1]
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        X, W, Z = modes[i], modes[j], modes[k]
        asm.add_top(-4.0 * sigma, (X, "p"), (W, "p"), (Z, "qq"))
        asm.add_top(4.0 * g_rho0, (X, "p"), (W, "p"), (Z, "0"))
        asm.add_top(6.0 * sigma * Hp0 ** 2, (Z, "qq"), (X, "q"), (W, "q"))
    return asm


# --- the coefficients ----------------------------------------------------

def compute_Psi(flow: LaminarFlow, physics: Physics, mode: EigenMode,
                mode_j: EigenMode | None = None) -> float:
    """Psi_ij: the (lambda - lambda_*) xi_j coefficient of the projection.

    Off-diagonal entries vanish by orthogonality of distinct cosines; the
    diagonal is the quadrature

      Psi_ii = pi [ int n^2 a^{-1} (1+Gdot) M^2
                    - 3 int (1+Gdot) a^{-1} beta(-p) M M'
                    - 3 g int Ydot a rho_p M M'
                    + 3 g int Y (1+Gdot) a^{-1} rho_p M M'
                    + (3/2) g int (1+Gdot) a^{-2} rho_p M^2
                    - (1/2)(2 g rho(0)/lam M^2 + sqrt(lam) M M'
                           + 2 sigma n^2 / lam M^2)|_{p=0} ].

    The surface-tension boundary term carries the factor M^2 (confirmed by
    the constant-density closed form and by finite-difference probes).
    """
    if mode_j is not None and mode_j.n != mode.n:
        return 0.0
    if mode.M.shape != flow.H.shape:
        raise ShapeError("mode and flow live on different grids")
    grid = flow.grid
    a = flow.a
    lam = flow.lam
    n = mode.n
    M, Mp = mode.M, mode.Mp
    g = physics.g
    given = _given_data(physics.rho, physics.beta, grid)
    rho_p, beta = given.rho_p, given.beta
    one_plus_Gdot = 1.0 + flow.Gdot

    integrand = (n * n / a * one_plus_Gdot * M ** 2
                 - 3.0 * one_plus_Gdot / a * beta * M * Mp
                 - 3.0 * g * flow.Ydot * a * rho_p * M * Mp
                 + 3.0 * g * flow.Y * one_plus_Gdot / a * rho_p * M * Mp
                 + 1.5 * g * one_plus_Gdot / a ** 2 * rho_p * M ** 2)
    boundary = 0.5 * (2.0 * g * physics.rho0() / lam * M[-1] ** 2
                      + np.sqrt(lam) * M[-1] * Mp[-1]
                      + 2.0 * physics.sigma * n * n / lam * M[-1] ** 2)
    return float(np.pi * (quad(grid, integrand) - boundary))


def compute_Phi(flow: LaminarFlow, physics: Physics, mode1: EigenMode,
                mode2: EigenMode):
    """(Phi112, Phi121, Phi211); identically zero unless n2 = 2 n1.

    Phi211 is the t1^2 coefficient of the projection onto phi_2 and
    Phi112 = Phi121 is half the t1 t2 coefficient of the projection onto
    phi_1, so the reduced quadratic terms read 2 th1 th2 Phi112 and
    th1^2 Phi211.
    """
    if mode1.lam != mode2.lam:
        raise ShapeError("modes must share lambda")
    if mode2.n != 2 * mode1.n:
        return 0.0, 0.0, 0.0
    phi211 = 0.5 * _second_variation(
        flow, physics, mode1, mode1).pair_with(mode2)
    phi112 = 0.5 * _second_variation(
        flow, physics, mode1, mode2).pair_with(mode1)
    return float(phi112), float(phi112), float(phi211)


def theta_entry(flow: LaminarFlow, physics: Physics, test: EigenMode,
                directions) -> float:
    """Symmetric tensor entry (1/6)(phi_i, D^3 G[phi_j, phi_k, phi_l])_Y."""
    A, B, C = directions
    return float(_third_variation(flow, physics, A, B, C)
                 .pair_with(test) / 6.0)


def compute_Theta(flow: LaminarFlow, physics: Physics, mode_i: EigenMode,
                  mode_j: EigenMode) -> float:
    """Theta_iiii (i = j) or the full mixed coefficient Theta_iijj (i != j).

    Theta_iiii multiplies th_i^3 in the reduced system; the mixed value
    multiplies th_i th_j^2 and equals three times the symmetric tensor
    entry.  Odd-parity entries vanish through the exact trig integrals.
    """
    if mode_i.n == mode_j.n:
        return theta_entry(flow, physics, mode_i, (mode_i, mode_i, mode_i))
    return 3.0 * theta_entry(flow, physics, mode_i, (mode_i, mode_j, mode_j))


def coefficient_set(flow: LaminarFlow, physics: Physics, mode1: EigenMode,
                    mode2: EigenMode | None = None,
                    normalization: str = "shooting") -> CoefficientSet:
    """Assemble all stored coefficients for the pair (mode1, mode2).

    Without mode2 (a simple point) only Psi11 and Theta1111 are computed;
    n2 = 0 and every other coefficient and flag is zero or false.
    """
    m1 = mode1.renormalized(normalization)
    psi11 = compute_Psi(flow, physics, m1)
    theta1111 = compute_Theta(flow, physics, m1, m1)
    if mode2 is None:
        return CoefficientSet(
            n1=m1.n, n2=0, psi11=psi11, psi22=0.0, phi112=0.0, phi121=0.0,
            phi211=0.0, theta1111=theta1111, theta2222=0.0, theta1122=0.0,
            theta2211=0.0, normalization=normalization).with_flags()
    m2 = mode2.renormalized(normalization)
    psi22 = compute_Psi(flow, physics, m2)
    phi112, phi121, phi211 = compute_Phi(flow, physics, m1, m2)
    cs = CoefficientSet(
        n1=m1.n, n2=m2.n, psi11=psi11, psi22=psi22,
        phi112=phi112, phi121=phi121, phi211=phi211,
        theta1111=theta1111,
        theta2222=compute_Theta(flow, physics, m2, m2),
        theta1122=compute_Theta(flow, physics, m1, m2),
        theta2211=compute_Theta(flow, physics, m2, m1),
        normalization=normalization)
    return cs.with_flags()


def _differs(x, y):
    return abs(x - y) > NONDEG_RTOL * max(abs(x), abs(y), 1e-300)


def check_nondegeneracy(coeffs: CoefficientSet):
    """(nd1, nd2, regular_value) flags at relative tolerance 1e-8."""
    t11, t22 = coeffs.theta1111, coeffs.theta2222
    t12, t21 = coeffs.theta1122, coeffs.theta2211
    p1, p2 = coeffs.psi11, coeffs.psi22
    nd1 = coeffs.n2 >= 3
    regular = _differs(t11 * p2, t21 * p1) and _differs(t22 * p1, t12 * p2)
    nd2 = (_differs(t11 * t22, 0.0) and _differs(t11 * t22, t12 * t21)
           and regular)
    return nd1, nd2, regular


def _reduced_residual(coeffs: CoefficientSet, side: str, th):
    s = 1.0 if side == "plus" else -1.0
    th1, th2 = th
    r1 = (s * th1 * coeffs.psi11 + 2.0 * th1 * th2 * coeffs.phi112
          + th1 ** 3 * coeffs.theta1111 + th1 * th2 ** 2 * coeffs.theta1122)
    r2 = (s * th2 * coeffs.psi22 + th1 ** 2 * coeffs.phi211
          + th2 ** 3 * coeffs.theta2222 + th1 ** 2 * th2 * coeffs.theta2211)
    return np.array([r1, r2])


def _reduced_jacobian(coeffs: CoefficientSet, side: str, th):
    s = 1.0 if side == "plus" else -1.0
    th1, th2 = th
    j11 = (s * coeffs.psi11 + 2.0 * th2 * coeffs.phi112
           + 3.0 * th1 ** 2 * coeffs.theta1111 + th2 ** 2 * coeffs.theta1122)
    j12 = 2.0 * th1 * coeffs.phi112 + 2.0 * th1 * th2 * coeffs.theta1122
    j21 = 2.0 * th1 * coeffs.phi211 + 2.0 * th1 * th2 * coeffs.theta2211
    j22 = (s * coeffs.psi22 + 3.0 * th2 ** 2 * coeffs.theta2222
           + th1 ** 2 * coeffs.theta2211)
    return np.array([[j11, j12], [j21, j22]])


def _pure_germs(psi, theta, n, slot, signs=(+1.0, -1.0)):
    """Pitchfork germs of mode n alone, theta in slot 0 or 1: on the side
    of sign(Theta) with |theta| = sqrt|Psi/Theta|, or 1 when Theta = 0."""
    side = "plus" if theta > 0 else "minus"
    mag = np.sqrt(abs(psi / theta)) if theta != 0.0 else 1.0
    thetas = [(sgn * mag, 0.0) if slot == 0 else (0.0, sgn * mag)
              for sgn in signs]
    return [BranchGerm(kind="pure", n=n, side=side, theta=th,
                       scaling_exponent=0.5) for th in thetas]


def predict_branches(coeffs: CoefficientSet):
    """Local branch germs from the reduced equation; the case follows
    from the wavenumbers of the coefficient set.

    Simple case (n2 = 0): the two germs of the n1 pitchfork.  Quadratic
    case (n2 = 2 n1): two mixed germs per side iff Phi112 Phi211 > 0, plus
    the pure-n2 pitchfork germ.  Cubic case (any other n2, Phi = 0): pure
    pitchforks on the side given by the sign of the corresponding Theta
    diagonal; mixed roots from the 2x2 linear system
    A (th1^2, th2^2)^T = -+ (Psi11, Psi22)^T, emitted only when both
    squares are positive.
    """
    if coeffs.n2 == 0:
        return _pure_germs(coeffs.psi11, coeffs.theta1111, coeffs.n1, 0)
    germs = []
    if coeffs.n2 != 2 * coeffs.n1:
        for idx, (psi, theta, n) in enumerate((
                (coeffs.psi11, coeffs.theta1111, coeffs.n1),
                (coeffs.psi22, coeffs.theta2222, coeffs.n2))):
            if theta == 0.0:
                raise SingularSystemError("vanishing Theta diagonal")
            germs += _pure_germs(psi, theta, n, idx)
        A = np.array([[coeffs.theta1111, coeffs.theta1122],
                      [coeffs.theta2211, coeffs.theta2222]])
        det = np.linalg.det(A)
        if abs(det) <= NONDEG_RTOL * max(abs(coeffs.theta1111 * coeffs.theta2222),
                                         abs(coeffs.theta1122 * coeffs.theta2211),
                                         1e-300):
            raise SingularSystemError("mixed-root matrix is singular")
        for side, s in (("plus", 1.0), ("minus", -1.0)):
            rhs = -s * np.array([coeffs.psi11, coeffs.psi22])
            sq = np.linalg.solve(A, rhs)
            if sq[0] > 0 and sq[1] > 0:
                r1, r2 = np.sqrt(sq)
                for s1 in (+1.0, -1.0):
                    for s2 in (+1.0, -1.0):
                        germs.append(BranchGerm(
                            kind="mixed", n=None, side=side,
                            theta=(s1 * r1, s2 * r2), scaling_exponent=0.5))
        return germs

    if coeffs.phi112 == 0.0 or coeffs.phi211 == 0.0:
        raise SingularSystemError("quadratic case requires nonzero Phi")
    if coeffs.phi112 * coeffs.phi211 > 0:
        sq = coeffs.psi11 * coeffs.psi22 / (2.0 * coeffs.phi112
                                            * coeffs.phi211)
        r1 = np.sqrt(sq)
        for side, s in (("plus", 1.0), ("minus", -1.0)):
            th2 = -s * coeffs.psi11 / (2.0 * coeffs.phi112)
            for s1 in (+1.0, -1.0):
                germs.append(BranchGerm(kind="mixed", n=None, side=side,
                                        theta=(s1 * r1, th2),
                                        scaling_exponent=1.0))
    # The pure-n2 branch always exists (restriction to the n2-periodic
    # subspace); its pitchfork data come from the cubic diagonal.
    germs += _pure_germs(coeffs.psi22, coeffs.theta2222, coeffs.n2, 1,
                         signs=(+1.0,))
    return germs


def oracle_roots(coeffs: CoefficientSet, side: str):
    """Independent multi-start Newton root finder for the cubic reduced
    system; returns the deduplicated nontrivial roots.

    Each axis of the 21 x 21 start grid spans three times its own
    pure-root magnitude: mixed roots can sit on a far smaller scale in one
    component than the larger pure root (Double(4): 0.04 against 1.07).
    All starts iterate together as arrays with a closed-form 2 x 2 step.
    A start stops once converged, or when its step is not finite (a
    singular Jacobian divides by a zero determinant); then it goes on to
    the residual filter.  A start still iterating after 60 steps is
    dropped.
    """
    mags = [np.sqrt(abs(psi / theta)) if theta != 0.0 else 0.0
            for psi, theta in ((coeffs.psi11, coeffs.theta1111),
                               (coeffs.psi22, coeffs.theta2222))]
    box = 3.0 * max(mags) or 3.0          # also the deduplication scale
    # an axis without a pure root falls back to the larger box
    starts1, starts2 = [np.linspace(-half, half, 21)
                        for half in (3.0 * m or box for m in mags)]
    # flattened in the (s1, s2) start order: s1 outer, s2 inner
    th1, th2 = [a.ravel() for a in np.meshgrid(starts1, starts2,
                                               indexing="ij")]
    scale = max(1.0, abs(coeffs.psi11))
    near = ROOT_DEDUP_TOL * max(1.0, box)
    active = np.ones(th1.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(60):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            t1, t2 = th1[idx], th2[idx]
            r1, r2 = _reduced_residual(coeffs, side, (t1, t2))
            (j11, j12), (j21, j22) = _reduced_jacobian(coeffs, side, (t1, t2))
            det = j11 * j22 - j12 * j21
            step1 = (j12 * r2 - j22 * r1) / det
            step2 = (j21 * r1 - j11 * r2) / det
            stop = ((np.maximum(np.abs(r1), np.abs(r2)) < 1e-13 * scale)
                    | ~(np.isfinite(step1) & np.isfinite(step2)))
            active[idx[stop]] = False
            go = ~stop
            th1[idx[go]] = t1[go] + step1[go]
            th2[idx[go]] = t2[go] + step2[go]
        res = np.max(np.abs(_reduced_residual(coeffs, side, (th1, th2))),
                     axis=0)
    keep = (~active & np.isfinite(th1) & np.isfinite(th2)
            & ~(res > 1e-10 * scale)
            & ~(np.hypot(th1, th2) < near))             # trivial roots
    return sorted(_distinct(th1[keep], th2[keep], near))


def _distinct(th1, th2, near):
    """The candidates, in order, that lie at least ``near`` from every
    earlier one kept.

    The first candidate left is kept, and every candidate nearer than
    ``near`` to it is dropped in one array call.  A dropped candidate is
    near a root kept before it, and the next one left is near none, so
    this keeps what a candidate-by-candidate check against the roots so
    far keeps, in the same order.
    """
    roots = []
    while th1.size:
        t1, t2 = th1[0], th2[0]
        roots.append((float(t1), float(t2)))
        far = ~(np.hypot(th1 - t1, th2 - t2) < near)
        far[0] = False                  # kept, whatever near is
        th1, th2 = th1[far], th2[far]
    return roots


def coefficients_to_dict(coeffs: CoefficientSet, germs=None) -> dict:
    """JSON-ready report of coefficients, flags, and germs."""
    out = {
        "n1": coeffs.n1, "n2": coeffs.n2,
        "psi11": coeffs.psi11, "psi22": coeffs.psi22,
        "phi": {"phi112": coeffs.phi112, "phi121": coeffs.phi121,
                "phi211": coeffs.phi211},
        "theta": {"theta1111": coeffs.theta1111,
                  "theta2222": coeffs.theta2222,
                  "theta1122": coeffs.theta1122,
                  "theta2211": coeffs.theta2211},
        "normalization": coeffs.normalization,
        "flags": {"nd1": coeffs.nd1, "nd2": coeffs.nd2,
                  "regular_value": coeffs.regular_value},
    }
    if germs is not None:
        out["germs"] = [
            {"kind": g.kind, "n": g.n, "side": g.side,
             "theta": list(g.theta), "scaling": g.scaling_exponent}
            for g in germs]
    return out
