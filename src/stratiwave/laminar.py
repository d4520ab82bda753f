"""The one-parameter family of laminar (q-independent) flows.

A laminar stream solution H(.; lambda) is produced by the Picard iteration
on the implicit pair

    H_p(p) = (lambda + G(p))^(-1/2),
    G(p)   = 2 B(p) + 2 g int_p^0 (H(r) - H(0)) rho_p(r) dr,

valid for lambda above the admissibility floor.  For constant rho the
coupling term vanishes and a single pass is exact (G = 2B).  The module
also computes the lambda-derivatives (Ydot, Gdot, Qdot) by their integral
fixed point on the same Picard loop, on a flow's first read of one, the
energy parameter Q(lambda), the threshold quantities epsilon_0, lambda_0,
lambda_c (= lambda_0 for constant rho), sigma_c, the explicit sufficient
size condition for local bifurcation, and the one lambda-root search,
``_smallest_root``, behind lambda_0, lambda_c and both lambda_*, which
evaluates each lambda once and hands back what it computed at the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from .errors import (DomainError, IterationFailureError, NoMinimumError,
                     UndefinedQuantityError)
from .piecewise import _evaluate, _hermite, _locate, _pchip_slopes
from .profiles import (PGrid, Physics, ProfileFn, b_min, build_B,
                       cumquad_from_left, cumquad_to_zero, quad)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
LAMBDA_CAP = 1e6
HOMOGENEOUS_FLOOR = 1e-6


class _OnFirstRead:
    """A ``LaminarFlow`` field that, when not given, is computed on its
    first read: the lambda-derivatives run a fixed point of their own,
    which only a flow whose Ydot, Gdot or Qdot is read needs."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, flow, owner=None):
        if flow is None:
            return None                 # the dataclass default
        if flow.__dict__[self.key] is None:
            flow._derive()
        return flow.__dict__[self.key]

    def __set__(self, flow, value):
        flow.__dict__[self.key] = value


@dataclass(frozen=True)
class LaminarFlow:
    """A converged laminar flow and its lambda-derivatives on a p-grid.

    ``solve_laminar`` leaves Ydot, Gdot and Qdot to their first read, which
    computes all three from the stored G with the flow's ``physics``; a
    flow that a root search evaluates and discards never runs their fixed
    point.
    """

    lam: float
    grid: PGrid
    H: np.ndarray          # height above the bed, H(p0) = 0
    Hp: np.ndarray         # H_p = (lam + G)^(-1/2)
    G: np.ndarray
    Q: float               # Q = lam + 2 g rho(0) H(0)
    iterations: int
    converged: bool
    Ydot: np.ndarray = _OnFirstRead()
    Gdot: np.ndarray = _OnFirstRead()
    Qdot: float = _OnFirstRead()
    physics: Physics | None = field(default=None, repr=False, compare=False)

    def _derive(self):
        derived = _lambda_derivatives(self.physics, self.lam, self.grid,
                                      self.G)
        for name, value in zip(("_Ydot", "_Gdot", "_Qdot"), derived):
            self.__dict__[name] = value

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
        given = _given_data(physics.rho, physics.beta, self.grid)
        return self.Hp ** 3 * (physics.g * given.rho_p * self.Y - given.beta)


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


class _Given(NamedTuple):
    twoB: np.ndarray             # 2B at the nodes
    b_min: float
    rho_p: np.ndarray            # at the nodes
    rho_p_half: np.ndarray       # at the grid's half_nodes
    beta: np.ndarray             # beta(-p) at the nodes
    homogeneous: bool
    stations: np.ndarray         # (1, 2 N_p + 1): nodes, then half_nodes
    intervals: np.ndarray        # each station's interval of the nodes


@lru_cache(maxsize=256)
def _given_data(rho: ProfileFn, beta: ProfileFn, grid: PGrid) -> _Given:
    """Per-(rho, beta, grid) immutable precomputation shared by every
    solve, shot and height residual: 2B on the nodes, B_min, rho_p at the
    nodes and at the shooting march's half-step stations, beta(-p) at the
    nodes, homogeneity (rho_p vanishes on the grid to 1e-13 relative
    to max |rho|), and the march's stations with the interval of the
    nodes each lies in (node k in interval k, the last node in N_p - 1,
    half step k in k), located once here.  Keyed on the profiles only,
    so any sigma, g or c hits."""
    B = build_B(beta, grid)
    p = grid.nodes
    rho_p = rho.deriv(p)
    scale = max(1.0, float(np.max(np.abs(rho.eval(p)))))
    homogeneous = float(np.max(np.abs(rho_p))) <= 1e-13 * scale
    stations = np.concatenate([p, grid.half_nodes])[None, :]
    given = _Given(twoB=2.0 * B.eval(p), b_min=b_min(B), rho_p=rho_p,
                   rho_p_half=rho.deriv(grid.half_nodes), beta=beta.eval(-p),
                   homogeneous=homogeneous, stations=stations,
                   intervals=_locate(p[None, :], stations))
    for samples in (given.twoB, given.rho_p, given.rho_p_half, given.beta,
                    given.stations, given.intervals):
        samples.flags.writeable = False     # every caller shares them
    return given


class _GSamples(NamedTuple):
    stations: np.ndarray         # G at the nodes, then at the half nodes
    slopes: np.ndarray           # G' at the nodes


def _pchip_samples(given: _Given, G) -> _GSamples:
    """The PCHIP of G, as scipy's PchipInterpolator and its derivative
    would evaluate it, at the shooting march's stations; its slope at the
    nodes."""
    nodes = G.size
    x = given.stations[:, :nodes]
    row = G[None, :]
    pchip = _hermite(x, row, _pchip_slopes(x, row))
    intervals = given.intervals
    return _GSamples(
        _evaluate(x, pchip, given.stations, intervals=intervals)[0],
        _evaluate(x, pchip, x, derivative=True,
                  intervals=intervals[:, :nodes])[0])


@lru_cache(maxsize=256)
def _twoB_samples(rho: ProfileFn, beta: ProfileFn, grid: PGrid) -> _GSamples:
    """``_pchip_samples`` of G = 2B.  A homogeneous rho has G = 2B at
    every lambda (see ``solve_laminar``), so these are all its flows'."""
    given = _given_data(rho, beta, grid)
    samples = _pchip_samples(given, given.twoB)
    for values in samples:
        values.flags.writeable = False
    return samples


def _floor_margin(physics: Physics, grid: PGrid) -> float:
    """epsilon_0 for genuinely stratified rho; for rho_p == 0 the full
    epsilon_0 is not needed and a small positive margin is used instead,
    matching the homogeneous search domain lambda > -2 B_min."""
    if _given_data(physics.rho, physics.beta, grid).homogeneous:
        return HOMOGENEOUS_FLOOR
    return epsilon0(physics, grid)


def lambda_floor(physics: Physics, grid: PGrid) -> float:
    """Lower end of the admissible lambda range: -2 B_min plus the
    ``_floor_margin``."""
    return existence_floor(physics, grid) + _floor_margin(physics, grid)


def existence_floor(physics: Physics, grid: PGrid) -> float:
    """-2 B_min: the laminar family exists for every lambda above this."""
    return -2.0 * _given_data(physics.rho, physics.beta, grid).b_min


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
    given = _given_data(physics.rho, physics.beta, grid)
    twoB, rho_p, g = given.twoB, given.rho_p, physics.g

    def heights(G, iterations):             # (H_p, H) of the pass with G
        arg = lam + G
        if np.any(arg <= 0):
            raise IterationFailureError(
                "lambda + G became nonpositive during iteration",
                residual=float(np.min(arg)), iterations=iterations)
        Hp = arg ** -0.5
        return Hp, cumquad_from_left(grid, Hp)

    def step(G, iterations):
        H = heights(G, iterations)[1]
        return twoB + 2.0 * g * cumquad_to_zero(grid, (H - H[-1]) * rho_p)

    G, iterations = twoB.copy(), 1
    if not given.homogeneous:
        G, iterations = _fixed_point(
            step, G, "laminar fixed point did not converge in "
            f"{DEFAULT_MAX_ITER} iterations")
    Hp, H = heights(G, iterations)
    Q = lam + 2.0 * g * physics.rho0() * H[-1]
    return LaminarFlow(lam=lam, grid=grid, H=H, Hp=Hp, G=G, Q=Q,
                       iterations=iterations, converged=True,
                       physics=physics)


def _fixed_point(step, x, failure: str):
    """(x, k): Picard passes x <- step(x, k), k = 1, 2, ..., until the
    sup-norm increment drops under DEFAULT_TOL, in DEFAULT_MAX_ITER passes
    or IterationFailureError(failure)."""
    for k in range(1, DEFAULT_MAX_ITER + 1):
        x_new = step(x, k)
        diff = float(np.max(np.abs(x_new - x)))
        x = x_new
        if diff < DEFAULT_TOL:
            return x, k
    raise IterationFailureError(failure, residual=diff, iterations=k)


def _lambda_derivatives(physics, lam, grid, G):
    """(Ydot, Gdot, Qdot) of the flow with this G, by their integral
    fixed point; ``LaminarFlow`` runs it on the first read of one."""
    given = _given_data(physics.rho, physics.beta, grid)
    g, rho_p = physics.g, given.rho_p
    base = (lam + G) ** -1.5

    def ydot(Gdot):
        return 0.5 * cumquad_to_zero(grid, (1.0 + Gdot) * base)

    Gdot = np.zeros_like(G)
    if not given.homogeneous:
        Gdot, _ = _fixed_point(
            lambda x, _: 2.0 * g * cumquad_to_zero(grid, ydot(x) * rho_p),
            Gdot, "lambda-derivative fixed point did not converge")
    Ydot = ydot(Gdot)
    Qdot = 1.0 - 2.0 * g * physics.rho0() * Ydot[0]
    return Ydot, Gdot, float(Qdot)


def _first_admissible(floor: float) -> float:
    """The lowest lambda a scan evaluates: just above the laminar floor."""
    return floor + 1e-8 * max(1.0, abs(floor))


def _scan_samples(floor: float, cap: float) -> list:
    """The root scan's fixed lambda samples, up to ``cap``: the first
    admissible lambda, then each next one at twice the distance above the
    floor, or at twice the value when that is larger."""
    xs = [_first_admissible(floor)]
    while True:
        x = max(xs[-1] * 2.0, floor + 2.0 * (xs[-1] - floor))
        if x > cap:
            return xs
        xs.append(x)


def _smallest_root(evaluate, floor: float, cap: float):
    """Smallest sign change of f(lambda) above ``floor``: the laminar
    floor, or lambda_0 for lambda_c.

    ``evaluate(lam)``, called at most once per lambda, returns a tuple led
    by f(lam) and then what the caller needs at the root (the flow, the
    shot coefficients).  f is read at ``_scan_samples`` only until the
    first sample whose sign differs from f's at the first one is known:
    gallop over the sample index from the first sample at floor + 1 or
    above, up or down, then bisect.  Brent refines [that sample's
    predecessor, that sample].  The search rests on f changing sign once
    on the samples, as D / scale does (see ``spectral.dispersion``); then
    its bracket is the one a walk up every sample would find.  Returns
    (root, the tuple evaluated there), the first sample being the root
    when f vanishes there, or None when f keeps its sign up to ``cap``;
    no other evaluation outlives the call."""
    seen = {}

    def f(lam):
        if lam not in seen:
            seen[lam] = evaluate(lam)
        return seen[lam][0]

    xs = _scan_samples(floor, cap)
    f0 = f(xs[0])
    if f0 == 0.0:
        return xs[0], seen[xs[0]]
    last = len(xs) - 1
    if last == 0:
        return None

    def flipped(k):
        return np.sign(f(xs[k])) != np.sign(f0)

    start = max(1, next((k for k, x in enumerate(xs) if x >= floor + 1.0),
                        last))
    # lo is a sample index known unflipped, hi one known flipped
    step = 1
    if flipped(start):
        lo, hi = start - 1, start
        while lo > 0 and flipped(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, 0)
    else:
        lo, hi = start, min(start + 1, last)
        while not flipped(hi):
            if hi == last:
                return None
            lo, step = hi, 2 * step
            hi = min(lo + step, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if flipped(mid):
            hi = mid
        else:
            lo = mid
    root = brentq(f, xs[lo], xs[hi], xtol=1e-14, rtol=8.9e-16, maxiter=200)
    record = seen.pop(root)
    # brentq's wrapper of f sits in a reference cycle until the next
    # garbage collection; drop the other evaluations now
    seen.clear()
    return root, record


def _flow_root(physics, grid, value, floor, failure):
    """(root, flow there) of ``_smallest_root`` on value(flow) over flows
    solved to the existence floor; ``failure`` when there is no root."""
    def evaluate(lam):
        flow = solve_laminar(physics, lam, grid, enforce_floor=False)
        return value(flow), flow

    found = _smallest_root(evaluate, floor, LAMBDA_CAP)
    if found is None:
        raise failure
    return float(found[0]), found[1][1]


def _lambda0(physics, grid):
    """(lambda_0, the flow there) of ``find_lambda0``."""
    if physics.g == 0:
        raise NoMinimumError(
            "Q(lambda) = lambda has no interior minimum for g = 0")
    return _flow_root(physics, grid, lambda flow: flow.Qdot,
                      existence_floor(physics, grid), NoMinimumError(
                          "Qdot never changes sign up to the lambda cap"))


def find_lambda0(physics: Physics, grid: PGrid) -> float:
    """Unique minimizer of Q(lambda): the root of the increasing Qdot (Q
    is convex) above the existence floor, by ``_smallest_root`` with one
    laminar solve per lambda; a derivative-free search on Q itself would
    stall at the sqrt(eps) flat-minimum floor.  Raises NoMinimumError
    when g = 0 (Q = lambda is monotone) or Qdot keeps its sign up to the
    lambda cap."""
    return _lambda0(physics, grid)[0]


def find_lambda_c(physics: Physics, grid: PGrid) -> float:
    """Threshold lambda_c above which the linearized null space is simple.

    Stratified rho: smallest lambda >= lambda_0 where the decreasing
    4 Ydot(p0; lambda) = 1 / (g rho(0) + g |rho_p|_inf |p0|), by
    ``_smallest_root`` above lambda_0, read at lambda_0 itself off the
    flow the lambda_0 search solved there: one laminar solve per lambda.
    Constant rho: the characterization int H_p^3 dp = 1 / (g rho(0)) is
    Qdot = 1 - 2 g rho(0) Ydot(p0) = 0: lambda_0.
    """
    if physics.g == 0:
        raise UndefinedQuantityError("lambda_c undefined for g = 0")
    lam0, flow0 = _lambda0(physics, grid)
    target = 1.0 / (physics.g * physics.rho0()
                    + physics.g * physics.rho_p_sup(grid) * abs(physics.p0))

    def fvalue(flow):
        return target - 4.0 * flow.Ydot[0]

    if (_given_data(physics.rho, physics.beta, grid).homogeneous
            or fvalue(flow0) >= 0):
        return lam0
    return _flow_root(physics, grid, fvalue, lam0, UndefinedQuantityError(
        "lambda_c not found below the lambda cap"))[0]


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
    given = _given_data(physics.rho, physics.beta, grid)
    twoB, bmin, rho_p = given.twoB, given.b_min, given.rho_p
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
