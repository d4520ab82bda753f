import copy
from dataclasses import replace

import numpy as np
import pytest

from stratiwave import profiles as pr
from stratiwave import spectral as sp


def make_physics(g=1.0, c=1.0, p0=-1.0, sigma=1.0, rho_coeffs=(1.0,),
                 beta_coeffs=(0.0,)):
    rho = pr.ProfileFn.poly(rho_coeffs, p0, 0.0)
    beta = pr.ProfileFn.poly(beta_coeffs, 0.0, abs(p0))
    return pr.Physics(g=g, c=c, p0=p0, sigma=sigma, rho=rho, beta=beta)


@pytest.fixture(scope="session")
def t0():
    """Constant density, zero Bernoulli function, unit gravity and flux."""
    return make_physics()


@pytest.fixture(scope="session")
def grid128():
    return pr.PGrid(-1.0, 128)


@pytest.fixture(scope="session")
def grid64():
    return pr.PGrid(-1.0, 64)


@pytest.fixture(scope="session")
def stratified():
    """Gently stratified column: rho = 1 - p/10."""
    return make_physics(sigma=10.0, rho_coeffs=(1.0, -0.1))


@pytest.fixture(scope="session")
def double3(t0, grid64):
    """The n2 = 3 double bifurcation point of the constant-density case:
    the physics at its surface tension, the grid, the classified point and
    the laminar flow there."""
    sigma_d, lam_d = sp.find_double_sigma(t0, grid64, 3)
    physics = replace(t0, sigma=sigma_d)
    bp = sp.classify(physics, grid64)
    return physics, grid64, bp, bp.flow


def irrotational_lambda_star(n, sigma, g=1.0, rho0=1.0, p0=-1.0):
    """Scalar-bisection oracle for the constant-density dispersion root."""
    from scipy.optimize import brentq
    P = abs(p0)

    def f(lam):
        return lam - ((n * n * sigma + g * rho0) / n) * np.tanh(
            n * P / np.sqrt(lam))

    return brentq(f, 1e-10, 1e4, xtol=1e-15, rtol=8.9e-16)


def sigma_for_root(n, lam, g=1.0, rho0=1.0, p0=-1.0):
    """Surface tension making (n, lam) a constant-density dispersion root."""
    P = abs(p0)
    return (lam * n / np.tanh(n * P / np.sqrt(lam)) - g * rho0) / n ** 2


def at_sigma(physics, sigma):
    """A copy of ``physics`` at surface tension sigma, negative included.

    The constant-density closed forms hold for any sigma, and the n = 1
    root at lambda = 0.8 needs sigma = -0.0088, which ``Physics`` rejects
    as given data; only that check is skipped, for the coefficient
    oracles, which read sigma and nothing that depends on it.
    """
    out = copy.copy(physics)
    object.__setattr__(out, "sigma", sigma)
    return out
