"""The one-parameter family of laminar (q-independent) flows.

A laminar stream solution H(.; lambda) is produced by the Picard iteration
on the implicit pair

    H_p(p) = (lambda + G(p))^(-1/2),
    G(p)   = 2 B(p) + 2 g int_p^0 (H(r) - H(0)) rho_p(r) dr,

valid for lambda above the admissibility floor.  For constant rho the
coupling term vanishes and a single pass is exact (G = 2B).  The module
also computes the lambda-derivatives (Ydot, Gdot, Qdot) by their own
integral fixed point, the energy parameter Q(lambda), and the threshold
quantities epsilon_0, lambda_0, lambda_c, sigma_c together with the
explicit sufficient size condition for local bifurcation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, IterationFailureError, NoMinimumError,
                     UndefinedQuantityError)
from .profiles import (PGrid, Physics, ProfileFn, b_min, build_B,
                       cumquad_from_left, cumquad_to_zero, quad)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
LAMBDA0_TOL = 1e-12
ROOT_TOL = 1e-10
LAMBDA_CAP = 1e6
HOMOGENEOUS_FLOOR = 1e-6


@dataclass(frozen=True)
class LaminarFlow:
    """A converged laminar flow and its lambda-derivatives on a p-grid."""

    lam: float
    grid: PGrid
    H: np.ndarray          # height above the bed, H(p0) = 0
    Hp: np.ndarray         # H_p = (lam + G)^(-1/2)
    G: np.ndarray
    Q: float               # Q = lam + 2 g rho(0) H(0)
    Ydot: np.ndarray
    Gdot: np.ndarray
    Qdot: float
    iterations: int
    converged: bool

    @property
    def a(self):
        """a = H_p^(-1) = (lam + G)^(1/2)."""
        return 1.0 / self.Hp

    @property
    def Y(self):
        """Y = H - d(H); for laminar flows d(H) = H(0)."""
        return self.H - self.H[-1]

    def Hpp(self, physics: Physics):
        """H_pp from the laminar ODE: g H_p^3 Y rho_p - H_p^3 beta(-p)."""
        p = self.grid.nodes
        return self.Hp ** 3 * (physics.g * physics.rho_p(p) * self.Y
                               - physics.beta_at(p))


def epsilon0(physics: Physics, grid: PGrid) -> float:
    """The admissibility margin epsilon_0.

    epsilon_0^(3/2) is the max of 2 g |rho'|_inf p0^2 e^|p0|,
    (2 g |rho'|_inf)^3, (4 |rho'|_inf)^3 and 8 g |p0| rho(0).
    """
    g, p0 = physics.g, physics.p0
    sup = physics.rho_p_sup(grid)
    entries = (
        2.0 * g * sup * p0 ** 2 * np.exp(abs(p0)),
        (2.0 * g * sup) ** 3,
        (4.0 * sup) ** 3,
        8.0 * g * abs(p0) * physics.rho0(),
    )
    return float(max(entries) ** (2.0 / 3.0))


@lru_cache(maxsize=256)
def _given_data(rho: ProfileFn, beta: ProfileFn, grid: PGrid):
    """Per-(rho, beta, grid) immutable precomputation shared by every
    solve: 2B on the nodes, B_min, rho_p and beta(-p) samples, and
    homogeneity (rho_p vanishes on the grid to 1e-13 relative to
    max |rho|).  Keyed on the profiles only, so any sigma, g or c hits."""
    B = build_B(beta, grid)
    p = grid.nodes
    rho_p = rho.deriv(p)
    scale = max(1.0, float(np.max(np.abs(rho.eval(p)))))
    homogeneous = float(np.max(np.abs(rho_p))) <= 1e-13 * scale
    return (2.0 * B.eval(p), b_min(B), rho_p, beta.eval(-p), homogeneous)


def _floor_margin(physics: Physics, grid: PGrid) -> float:
    """epsilon_0 for genuinely stratified rho; for rho_p == 0 the full
    epsilon_0 is not needed and a small positive margin is used instead,
    matching the homogeneous search domain lambda > -2 B_min."""
    if _given_data(physics.rho, physics.beta, grid)[4]:
        return HOMOGENEOUS_FLOOR
    return epsilon0(physics, grid)


def lambda_floor(physics: Physics, grid: PGrid) -> float:
    """Lower end of the admissible lambda range: -2 B_min plus the
    ``_floor_margin``."""
    return existence_floor(physics, grid) + _floor_margin(physics, grid)


def existence_floor(physics: Physics, grid: PGrid) -> float:
    """-2 B_min: the laminar family exists for every lambda above this."""
    return -2.0 * _given_data(physics.rho, physics.beta, grid)[1]


def solve_laminar(physics: Physics, lam: float, grid: PGrid,
                  enforce_floor: bool = True) -> LaminarFlow:
    """Construct H(.; lambda) by Picard iteration on (H, G).

    Raises DomainError below the floor and IterationFailureError if the
    sup-norm increment of G fails to drop under DEFAULT_TOL within
    DEFAULT_MAX_ITER iterations (both read at every call).  With
    ``enforce_floor`` false only the existence threshold -2 B_min is
    required: the threshold searches for lambda_0 / lambda_c probe that
    range, where the contraction still holds in practice and divergence is
    caught by the iteration guard.
    """
    floor = (lambda_floor(physics, grid) if enforce_floor
             else existence_floor(physics, grid))
    if lam <= floor:
        raise DomainError(
            f"lambda={lam} not above the admissible floor {floor}")
    twoB, _, rho_p, _, homogeneous = _given_data(physics.rho, physics.beta,
                                                 grid)
    g = physics.g

    G = twoB.copy()
    H = np.zeros_like(twoB)
    iterations = 0
    converged = False
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        arg = lam + G
        if np.any(arg <= 0):
            raise IterationFailureError(
                "lambda + G became nonpositive during iteration",
                residual=float(np.min(arg)), iterations=iterations)
        Hp = arg ** -0.5
        H = cumquad_from_left(grid, Hp)
        if homogeneous:
            converged = True
            break
        G_new = twoB + 2.0 * g * cumquad_to_zero(grid, (H - H[-1]) * rho_p)
        diff = float(np.max(np.abs(G_new - G)))
        G = G_new
        if diff < DEFAULT_TOL:
            converged = True
            break
    if not converged:
        raise IterationFailureError(
            "laminar fixed point did not converge in "
            f"{DEFAULT_MAX_ITER} iterations",
            residual=diff, iterations=iterations)

    Hp = (lam + G) ** -0.5
    H = cumquad_from_left(grid, Hp)
    Q = lam + 2.0 * g * physics.rho0() * H[-1]
    Ydot, Gdot, Qdot = _lambda_derivatives(physics, lam, grid, G, homogeneous)
    return LaminarFlow(lam=lam, grid=grid, H=H, Hp=Hp, G=G, Q=Q,
                       Ydot=Ydot, Gdot=Gdot, Qdot=Qdot,
                       iterations=iterations, converged=True)


def _lambda_derivatives(physics, lam, grid, G, homogeneous):
    _, _, rho_p, _, _ = _given_data(physics.rho, physics.beta, grid)
    g = physics.g
    base = (lam + G) ** -1.5
    Gdot = np.zeros_like(G)
    Ydot = 0.5 * cumquad_to_zero(grid, base)
    if not homogeneous:
        for _ in range(DEFAULT_MAX_ITER):
            Ydot = 0.5 * cumquad_to_zero(grid, (1.0 + Gdot) * base)
            Gdot_new = 2.0 * g * cumquad_to_zero(grid, Ydot * rho_p)
            diff = float(np.max(np.abs(Gdot_new - Gdot)))
            Gdot = Gdot_new
            if diff < DEFAULT_TOL:
                break
        else:
            raise IterationFailureError(
                "lambda-derivative fixed point did not converge",
                residual=diff, iterations=DEFAULT_MAX_ITER)
        Ydot = 0.5 * cumquad_to_zero(grid, (1.0 + Gdot) * base)
    Qdot = 1.0 - 2.0 * g * physics.rho0() * Ydot[0]
    return Ydot, Gdot, float(Qdot)


def _qdot_at(physics, grid, lam):
    return solve_laminar(physics, lam, grid, enforce_floor=False).Qdot


def _expand_bracket(f, lo):
    """Geometric expansion from lo until f changes sign; returns (a, b)."""
    fa = f(lo)
    if fa > 0:
        return None
    hi = max(2.0 * abs(lo), lo + 1.0)
    while hi <= LAMBDA_CAP:
        if f(hi) > 0:
            return lo, hi
        lo = hi
        hi *= 2.0
    return None


def _bisect(f, a, b, tol):
    """Shrink the bracket [a, b] of an increasing f's sign change to
    relative width tol; returns its midpoint."""
    while b - a > tol * max(1.0, abs(a)):
        mid = 0.5 * (a + b)
        if f(mid) >= 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def find_lambda0(physics: Physics, grid: PGrid) -> float:
    """Unique minimizer of Q(lambda).

    The bracket is expanded multiplicatively until Qdot changes sign, then
    the minimizer is pinned by bisection on the monotone Qdot (convexity of
    Q); a derivative-free interval search on Q itself would stall at the
    sqrt(eps) flat-minimum floor, short of the required accuracy.
    Raises NoMinimumError when g = 0 (Q(lambda) = lambda is monotone).
    """
    if physics.g == 0:
        raise NoMinimumError("Q(lambda) = lambda has no interior minimum for g = 0")
    floor = existence_floor(physics, grid)
    lo = floor + 1e-6 * max(1.0, abs(floor))

    def qdot(lam):
        return _qdot_at(physics, grid, lam)

    bracket = _expand_bracket(qdot, lo)
    if bracket is None:
        raise NoMinimumError("Qdot never changes sign up to the lambda cap")
    return _bisect(qdot, *bracket, LAMBDA0_TOL)


def find_lambda_c(physics: Physics, grid: PGrid) -> float:
    """Threshold lambda_c above which the linearized null space is simple.

    Stratified rho: smallest lambda >= lambda_0 where
    4 Ydot(p0; lambda) = 1 / (g rho(0) + g |rho_p|_inf |p0|), by bisection
    on the decreasing map lambda -> Ydot(p0; lambda).  Constant rho: the
    equivalent characterization int H_p^3 dp = 1 / (g rho(0)), whose root
    coincides with lambda_0.
    """
    if physics.g == 0:
        raise UndefinedQuantityError("lambda_c undefined for g = 0")
    lam0 = find_lambda0(physics, grid)
    if _given_data(physics.rho, physics.beta, grid)[4]:
        def fvalue(lam):
            flow = solve_laminar(physics, lam, grid, enforce_floor=False)
            return 1.0 / (physics.g * physics.rho0()) - quad(grid, flow.Hp ** 3)
    else:
        target = 1.0 / (physics.g * physics.rho0()
                        + physics.g * physics.rho_p_sup(grid) * abs(physics.p0))

        def fvalue(lam):
            return target - 4.0 * solve_laminar(
                physics, lam, grid, enforce_floor=False).Ydot[0]

    f0 = fvalue(lam0)
    if f0 >= 0:
        return lam0
    bracket = _expand_bracket(fvalue, lam0)
    if bracket is None:
        raise UndefinedQuantityError("lambda_c not found below the lambda cap")
    return _bisect(fvalue, *bracket, ROOT_TOL)


def sigma_c(physics: Physics, grid: PGrid) -> float:
    """Critical surface tension separating simple from multiple bifurcation.

    sigma_c = (g rho(0))^2 int (H_p^{-1} + g rho_p) (int_{p0}^p H_p^3)^2 dp
    with the flow evaluated at lambda_c.
    """
    if physics.g == 0:
        raise UndefinedQuantityError("sigma_c undefined for g = 0")
    lam_c = find_lambda_c(physics, grid)
    flow = solve_laminar(physics, lam_c, grid, enforce_floor=False)
    p = grid.nodes
    inner = cumquad_from_left(grid, flow.Hp ** 3)
    integrand = (flow.a + physics.g * physics.rho_p(p)) * inner ** 2
    return float((physics.g * physics.rho0()) ** 2 * quad(grid, integrand))


def check_size_condition(physics: Physics, grid: PGrid):
    """Explicit sufficient condition for local bifurcation.

    margin = (g rho(0) + sigma) p0^2
             - int { (2B - 2B_min + 2 eps0)^(3/2)
                     + (p - p0)^2 [ (2B - 2B_min + 2 eps0)^(1/2)
                                    + g rho'(p) ] } dp

    (period 2 pi, so the 4 pi^2 / L^2 prefactor is 1).  Returns
    (satisfied, margin).  eps0 is the ``_floor_margin`` of the
    admissibility floor.
    """
    twoB, bmin, rho_p, _, _ = _given_data(physics.rho, physics.beta, grid)
    p = grid.nodes
    shifted = twoB - 2.0 * bmin + 2.0 * _floor_margin(physics, grid)
    integrand = (shifted ** 1.5
                 + (p - physics.p0) ** 2 * (np.sqrt(shifted)
                                            + physics.g * rho_p))
    lhs = (physics.g * physics.rho0() + physics.sigma) * physics.p0 ** 2
    margin = lhs - quad(grid, integrand)
    return bool(margin > 0), float(margin)


def flow_to_csv(flow: LaminarFlow) -> str:
    """CSV emission: p, H, Hp, G, Ydot, Gdot at 17 significant digits."""
    row = ",".join(["%.16e"] * 6)
    columns = (flow.grid.nodes, flow.H, flow.Hp, flow.G, flow.Ydot, flow.Gdot)
    lines = ["p,H,Hp,G,Ydot,Gdot"]
    lines += [row % tuple(values)
              for values in np.column_stack(columns).tolist()]
    return "\n".join(lines) + "\n"
