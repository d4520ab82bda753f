"""stratiwave: steady periodic stratified capillary-gravity water waves.

Subpackages mirror the pipeline: profiles (given data and quadrature),
piecewise (row-wise piecewise cubics, rounding as scipy's),
laminar (the trivial solution family), spectral (linearized eigenproblem
and dispersion), bifurc (reduced bifurcation equation and germs),
heightsolver (full nonlinear solve and pseudo-arclength continuation),
eulerian (reconstruction to physical variables and residual oracles),
cli (configuration, subcommands, artifacts).
"""

from . import (bifurc, errors, eulerian, heightsolver, laminar, piecewise,
               profiles, spectral)

__all__ = ["bifurc", "errors", "eulerian", "heightsolver", "laminar",
           "piecewise", "profiles", "spectral"]
__version__ = "0.1.0"
