"""Hot grid kernels: cell-centered gradients, nodal scatter, Hessian products.

The conjugate-gradient inner loop of the solver spends most of its time in
these array passes.  All kernels are single-threaded numpy slicing with
pairwise summation, so results are bitwise deterministic.

``grid`` and ``solve`` look the public names up on this module at each call,
so a wrapper installed on the module (``perfbench/tracer.py``) sees every
call; ``hessvec`` composes the private functions directly, so a Hessian
product is not also counted as a gradient evaluation.
"""

from __future__ import annotations

import numpy as np


def _numpy_cell_gradient(values: np.ndarray, h1: float, h2: float):
    """Cell-centered gradient of a nodal field.

    Component 1 averages the two rows of forward x1-differences of each cell,
    component 2 the two columns of forward x2-differences; exact for affine
    nodal data.
    """
    d1 = (values[1:, :] - values[:-1, :]) / h1
    d2 = (values[:, 1:] - values[:, :-1]) / h2
    g1 = 0.5 * (d1[:, :-1] + d1[:, 1:])
    g2 = 0.5 * (d2[:-1, :] + d2[1:, :])
    return g1, g2


def _numpy_scatter_adjoint(t1: np.ndarray, t2: np.ndarray, h1: float, h2: float):
    """Adjoint of the cell gradient scaled by the cell area h1*h2.

    Satisfies <gradient(phi), (t1,t2)>_cells * h1*h2 = <phi, scatter>_nodes
    for every nodal field phi.
    """
    n1, n2 = t1.shape
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
    a = (0.5 * h2) * t1
    b = (0.5 * h1) * t2
    # each component accumulates on its own so constant fields telescope to
    # exact nodal zeros instead of leaving mixed-term rounding dust
    out[:-1, :-1] -= a
    out[1:, :-1] += a
    out[:-1, 1:] -= a
    out[1:, 1:] += a
    out[:-1, :-1] -= b
    out[1:, :-1] -= b
    out[:-1, 1:] += b
    out[1:, 1:] += b
    return out


def _numpy_scatter_diag(w1: np.ndarray, w2: np.ndarray, h1: float, h2: float):
    """Diagonal of scatter_adjoint((w1,w2) * cell_gradient(.)).

    Entries are sums of squared stencil weights times the per-cell
    curvatures w1, w2 (both >= 0).  The solver no longer uses it (its CG is
    preconditioned by a fast sine transform); perfbench/tracer.py still
    looks it up by name.
    """
    n1, n2 = w1.shape
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
    c = (0.25 * h2 / h1) * w1 + (0.25 * h1 / h2) * w2
    out[:-1, :-1] += c
    out[1:, :-1] += c
    out[:-1, 1:] += c
    out[1:, 1:] += c
    return out


def _numpy_hessvec(v: np.ndarray, w1: np.ndarray, w2: np.ndarray, h1: float, h2: float):
    """Nodal Hessian-vector product with per-cell curvatures (w1, w2)."""
    g1, g2 = _numpy_cell_gradient(v, h1, h2)
    return _numpy_scatter_adjoint(w1 * g1, w2 * g2, h1, h2)


cell_gradient = _numpy_cell_gradient
scatter_adjoint = _numpy_scatter_adjoint
scatter_diag = _numpy_scatter_diag
hessvec = _numpy_hessvec
