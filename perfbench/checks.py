"""Correctness checks that do not reuse the program's numerics.

Each function is either a closed form written here (the constant-density
dispersion relation) or a property the method must have (pitchfork shape,
convergence order under grid refinement).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def dispersion_gap(lam, n, sigma, g=1.0, rho0=1.0, p0=-1.0):
    """lam - ((n^2 sigma + g rho0)/n) tanh(n |p0| / sqrt(lam)), relative.

    Zero exactly at the constant-density bifurcation values of mode n.
    """
    rhs = ((n * n * sigma + g * rho0) / n) * math.tanh(
        n * abs(p0) / math.sqrt(lam))
    return (lam - rhs) / lam


def constant_density_lambda_star(sigma, n=1, g=1.0, rho0=1.0, p0=-1.0):
    """Scalar brentq root of the constant-density dispersion relation."""
    return brentq(lambda lam: dispersion_gap(lam, n, sigma, g, rho0, p0),
                  1e-10, 1e4, xtol=1e-15, rtol=8.9e-16)


def pitchfork_fit(amplitude, Q):
    """Least-squares Q = Q0 + k a^2; returns (Q0, misfit / Q span)."""
    a2 = np.asarray(amplitude) ** 2
    Q = np.asarray(Q)
    k, Q0 = np.polyfit(a2, Q, 1)
    misfit = float(np.max(np.abs(Q - (Q0 + k * a2))))
    return float(Q0), misfit / float(np.ptp(Q))


def convergence_orders(errors):
    """Worst observed order log2(e_N / e_2N) along a refinement sequence."""
    return min(math.log2(errors[i] / errors[i + 1])
               for i in range(len(errors) - 1))


def roots_match(predicted, oracle, tol):
    """Same number of roots, each oracle root within tol of a prediction."""
    if len(predicted) != len(oracle):
        return False
    return all(min(math.hypot(r[0] - p[0], r[1] - p[1]) for p in predicted)
               <= tol for r in oracle)
