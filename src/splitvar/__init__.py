"""Variational problems with split anisotropic growth on the square.

The package discretizes the energy J[w] = sum over cells of
f1(grad_1 w) + f2(grad_2 w), with f1 of linear growth and f2 superlinear,
solves the regularized problems along a vanishing-delta continuation, and
evaluates the relaxed energy of discontinuous candidates, dual lower
bounds, and interior integrability diagnostics.

The public API is the ``__all__`` of each module, in the order below; the
lists are disjoint, so no star import shadows another.
"""

from . import densities, diagnostics, duality, energy, grid, solve
from .densities import *
from .grid import *
from .energy import *
from .solve import *
from .duality import *
from .diagnostics import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *densities.__all__,
    *grid.__all__,
    *energy.__all__,
    *solve.__all__,
    *duality.__all__,
    *diagnostics.__all__,
]
