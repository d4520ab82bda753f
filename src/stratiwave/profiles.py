"""Profile functions, physical data, and quadrature on the streamline grid.

The streamline coordinate p lives in [p0, 0] with p0 < 0.  Two given
functions drive the whole problem:

* rho(p)  -- streamline density, positive and nonincreasing in p
             (stable stratification: rho_p <= 0), defined on [p0, 0];
* beta(s) -- Bernoulli function, defined on s in [0, |p0|]; everywhere it
             enters the height equation it is evaluated as beta(-p).

Profiles are either polynomials (coefficients in ascending powers) or
sampled tables interpolated by ``piecewise``'s monotone cubic (PCHIP), so
that a monotone rho stays monotone.  B(p) = int_0^p beta(-s) ds is a table
profile on the grid: exact for polynomial beta, else the exact integral of
the PCHIP through beta(-p) on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .piecewise import _evaluate, _hermite, _pchip_slopes

_DOMAIN_SLACK = 1e-12


@dataclass(frozen=True)
class ProfileFn:
    """A scalar function on a closed interval, polynomial or tabulated.

    kind = "poly":  ``coeffs`` in ascending powers; domain (lo, hi).
    kind = "table": strictly increasing ``nodes`` from lo to hi (within the
    evaluation slack) with ``values``; monotone cubic (PCHIP) interpolation,
    so the derivative exists everywhere (one-sided at the endpoints).
    """

    kind: str
    lo: float
    hi: float
    coeffs: tuple = ()
    nodes: tuple = ()
    values: tuple = ()
    _pchip: tuple = field(default=None, repr=False, compare=False)

    @staticmethod
    def poly(coeffs, lo, hi) -> "ProfileFn":
        if lo >= hi:
            raise DomainError(f"empty profile domain [{lo}, {hi}]")
        return ProfileFn(kind="poly", lo=float(lo), hi=float(hi),
                         coeffs=tuple(float(c) for c in coeffs))

    @staticmethod
    def table(nodes, values, lo=None, hi=None) -> "ProfileFn":
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
            raise DomainError("table profile needs matching 1-d nodes/values")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("table nodes must be strictly increasing")
        lo = float(nodes[0]) if lo is None else float(lo)
        hi = float(nodes[-1]) if hi is None else float(hi)
        slack = _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
        if abs(nodes[0] - lo) > slack or abs(nodes[-1] - hi) > slack:
            raise DomainError("table nodes must cover the domain endpoints")
        x, y = nodes[None, :], values[None, :]
        return ProfileFn(kind="table", lo=lo, hi=hi,
                         nodes=tuple(nodes), values=tuple(values),
                         _pchip=(x, _hermite(x, y, _pchip_slopes(x, y))))

    def _check_domain(self, p):
        p = np.asarray(p, dtype=float)
        slack = _DOMAIN_SLACK * max(1.0, abs(self.lo), abs(self.hi))
        if np.any(p < self.lo - slack) or np.any(p > self.hi + slack):
            raise DomainError(
                f"profile evaluated at p={p} outside [{self.lo}, {self.hi}]")
        return p

    def eval(self, p):
        """Value of the profile at p (scalar or array), p in [lo, hi]."""
        p = self._check_domain(p)
        if self.kind == "poly":
            out = np.polynomial.polynomial.polyval(p, np.asarray(self.coeffs))
        else:
            out = _evaluate(*self._pchip, np.reshape(p, (1, -1))).reshape(
                np.shape(p))
        return float(out) if np.ndim(out) == 0 else out

    def deriv(self, p):
        """First derivative at p (one-sided at the endpoints)."""
        p = self._check_domain(p)
        if self.kind == "poly":
            dc = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
            out = np.polynomial.polynomial.polyval(p, dc) if dc.size else np.zeros_like(p)
        else:
            out = _evaluate(*self._pchip, np.reshape(p, (1, -1)),
                            derivative=True).reshape(np.shape(p))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PGrid:
    """Uniform grid on [p0, 0]: nodes p_k = p0 + k |p0| / N_p, k = 0..N_p.

    N_p must be even and >= 8 so composite Simpson applies.
    """

    p0: float
    N_p: int

    def __post_init__(self):
        if self.p0 >= 0:
            raise DomainError("p0 must be negative")
        if self.N_p < 8 or self.N_p % 2 != 0:
            raise DomainError("N_p must be even and >= 8")

    @property
    def nodes(self):
        return np.linspace(self.p0, 0.0, self.N_p + 1)

    @property
    def h(self):
        return abs(self.p0) / self.N_p


@dataclass(frozen=True)
class Physics:
    """Given data of the problem.

    g >= 0 gravitational constant, c > 0 wave speed, p0 < 0 relative
    pseudo-mass flux, sigma >= 0 surface tension, rho on [p0, 0] positive
    and nonincreasing, beta on [0, |p0|].
    """

    g: float
    c: float
    p0: float
    sigma: float
    rho: ProfileFn
    beta: ProfileFn

    def __post_init__(self):
        if self.p0 >= 0:
            raise DomainError("p0 must be negative")
        if self.c <= 0:
            raise DomainError("wave speed c must be positive")
        if self.sigma < 0:
            raise DomainError("surface tension sigma must be nonnegative")
        if self.g < 0:
            raise DomainError("gravitational constant g must be nonnegative")
        probe = np.linspace(self.p0, 0.0, 101)
        if np.any(self.rho.eval(probe) <= 0):
            raise DomainError("rho must be positive on [p0, 0]")
        if np.any(self.rho.deriv(probe) > 1e-12):
            raise DomainError("rho must be nonincreasing on [p0, 0]")

    def rho0(self) -> float:
        return _rho0(self.rho)

    def rho_p(self, p):
        return self.rho.deriv(p)

    def beta_at(self, p):
        """beta evaluated at -p, the form appearing in the height equation."""
        return self.beta.eval(-np.asarray(p, dtype=float))

    def rho_p_sup(self, grid: PGrid) -> float:
        """max |rho_p| over the grid nodes (the L^inf norm used in thresholds)."""
        return _rho_p_sup(self.rho, grid)


# Profile scalars that every dispersion value, residual and floor reads:
# sampled once per profile (and grid), not once per call.
@lru_cache(maxsize=256)
def _rho0(rho: ProfileFn) -> float:
    return float(rho.eval(0.0))


@lru_cache(maxsize=256)
def _rho_p_sup(rho: ProfileFn, grid: PGrid) -> float:
    return float(np.max(np.abs(rho.deriv(grid.nodes))))


def _shape_error(grid, samples):
    from .errors import ShapeError
    return ShapeError(
        f"expected {grid.N_p + 1} samples on the grid, got {np.shape(samples)}")


def quad(grid: PGrid, samples) -> float:
    """Composite Simpson integral of node samples over [p0, 0]."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.N_p + 1,):
        raise _shape_error(grid, samples)
    w = simpson_weights(grid.N_p, grid.h)
    return float(w @ samples)


def simpson_weights(n: int, h: float):
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def cumquad_from_left(grid: PGrid, samples):
    """Cumulative integral F(p_k) = int_{p0}^{p_k} f, fourth order.

    Each cell [p_i, p_{i+1}] is integrated with the cubic through the four
    nearest nodes (clamped at the ends), so the cumulative sums inherit
    O(h^4) accuracy on smooth integrands.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.N_p + 1,):
        raise _shape_error(grid, f)
    h = grid.h
    n = grid.N_p
    # Integral over [x_i, x_{i+1}] from cubic on nodes (i-1, i, i+1, i+2):
    #   h/24 * (-f_{i-1} + 13 f_i + 13 f_{i+1} - f_{i+2})
    # End cells use the one-sided cubic:
    #   h/24 * (9 f_0 + 19 f_1 - 5 f_2 + f_3)
    # (PGrid guarantees N_p >= 8, so every cell has its four nodes)
    inc = np.empty(n)
    inc[0] = h / 24.0 * (9*f[0] + 19*f[1] - 5*f[2] + f[3])
    inc[-1] = h / 24.0 * (f[-4] - 5*f[-3] + 19*f[-2] + 9*f[-1])
    inc[1:-1] = h / 24.0 * (-f[:-3] + 13*f[1:-2] + 13*f[2:-1] - f[3:])
    out = np.zeros(n + 1)
    np.cumsum(inc, out=out[1:])
    return out


def cumquad_to_zero(grid: PGrid, samples):
    """Cumulative integral G(p_k) = int_{p_k}^{0} f, fourth order."""
    full = cumquad_from_left(grid, samples)
    return full[-1] - full


def build_B(beta: ProfileFn, grid: PGrid) -> ProfileFn:
    """B(p) = int_0^p beta(-s) ds as a table profile on the grid.

    B(0) = 0 and B'(p) = beta(-p).  The integral of the profile
    representation is taken exactly (polynomial antiderivative, or the
    antiderivative of the PCHIP of beta(-p) on the grid for tables).
    """
    p = grid.nodes
    if beta.kind == "poly":
        # int_0^p beta(-s) ds has a closed form for polynomial beta.
        c = np.asarray(beta.coeffs)
        flip = c * (-1.0) ** np.arange(c.size)      # coefficients of beta(-s)
        ic = np.polynomial.polynomial.polyint(flip)
        vals = np.polynomial.polynomial.polyval(p, ic)
    else:
        # scipy's PPoly.antiderivative of beta(-p)'s PCHIP: piece i adds
        # c3 s, c2/2 s^2, c1/3 s^3, c0/4 s^4 (s^k a running product) in
        # this order to piece i - 1's end value: one cumsum over the terms
        x, y = p[None, :], beta.eval(-p)[None, :]
        c = np.array(_hermite(x, y, _pchip_slopes(x, y)))[::-1, 0, :-1].T
        s = np.repeat(np.diff(p)[:, None], 4, axis=1)
        terms = c / np.arange(1.0, 5.0) * np.cumprod(s, axis=1)
        anti = np.cumsum(np.append(0.0, terms))[::4]
        vals = anti - anti[-1]
    return ProfileFn.table(p, vals)


def b_min(B: ProfileFn) -> float:
    """Minimum of the table profile B over its domain, on an 8-fold refined
    node set plus endpoints."""
    fine = np.linspace(B.lo, B.hi, 8 * (len(B.nodes) - 1) + 1)
    return float(np.min(B.eval(fine)))
