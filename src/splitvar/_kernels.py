"""Hot grid kernels: cell-centered gradients, nodal scatter, Hessian products.

The conjugate-gradient inner loop of the solver spends most of its time in
these array passes.  Every kernel is elementwise numpy arithmetic on slices
and sums no array, so no summation order or thread count moves its bits.

``grid`` and ``solve`` look the public names up on this module at each call,
so a wrapper installed on the module (``perfbench/tracer.py``) sees every
call.  ``hessvec`` is fused and calls no other kernel, so a Hessian product
is not also counted as a gradient evaluation.

Nodal arrays are (n1+1) x (n2+1) with the Dirichlet ring; ``hessvec``
returns only the (n1-1) x (n2-1) interior, the unknowns of the solver.
"""

from __future__ import annotations

import numpy as np


def cell_gradient(values: np.ndarray, h1: float, h2: float):
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


def scatter_adjoint(t1: np.ndarray, t2: np.ndarray, h1: float, h2: float):
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


def scatter_diag(k1: np.ndarray, k2: np.ndarray):
    """Diagonal of scatter_adjoint((w1,w2) * cell_gradient(.)), from the cell
    weights k1, k2 of ``hessvec``.  The solver does not use it;
    perfbench/tracer.py looks it up by name."""
    n1, n2 = k1.shape
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
    c = k1 + k2
    out[:-1, :-1] += c
    out[1:, :-1] += c
    out[:-1, 1:] += c
    out[1:, 1:] += c
    return out


def hessvec(v: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Interior of the nodal Hessian product H v = h1 h2 G^T W G v.

    ``v`` is a full nodal array, ``k1 = w1 h2 / (4 h1)`` and
    ``k2 = w2 h1 / (4 h2)`` the cell weights of the curvatures (w1, w2), from
    ``solve._DeltaProblem``.  With the pair sums s = v[:, 1:] + v[:, :-1]
    (along x2) and t = v[1:] + v[:-1] (along x1), the cell gradient is

        g1 = (s[1:] - s[:-1]) / (2 h1),    g2 = (t[:, 1:] - t[:, :-1]) / (2 h2),

    and ``scatter_adjoint`` sends (w1 g1, w2 g2) to the nodes with weights
    h2/2 and h1/2: cell (i, j) adds -q1 - q2 to node (i, j), q1 - q2 to node
    (i+1, j), -q1 + q2 to node (i, j+1) and q1 + q2 to node (i+1, j+1), where

        q1 = (h2/2) w1 g1 = k1 (s[1:] - s[:-1]),
        q2 = (h1/2) w2 g2 = k2 (t[:, 1:] - t[:, :-1]).

    With A = q1 + q2 and B = q1 - q2, interior node (i+1, j+1) collects A of
    cell (i, j), -A of cell (i+1, j+1), B of cell (i, j+1) and -B of cell
    (i+1, j), that is A[:-1, :-1] - A[1:, 1:] + B[:-1, 1:] - B[1:, :-1].
    That is eleven array passes in place of the twenty-two of
    ``scatter_adjoint`` composed with ``cell_gradient``; the two agree up
    to rounding.

    Each pair sum is released once it is differenced, q1 and q2 are scaled
    in place, and B overwrites q1 once A is formed.  So at most three
    temporaries are alive at once, the result included (q1, t and q2; then
    q1, q2 and A; then B, A and the result), against seven when s, t, q1,
    q2, A and B are all kept until the result is formed.
    """
    s = v[:, 1:] + v[:, :-1]
    q1 = s[1:] - s[:-1]
    del s
    q1 *= k1
    t = v[1:] + v[:-1]
    q2 = t[:, 1:] - t[:, :-1]
    del t
    q2 *= k2
    a = q1 + q2
    b = np.subtract(q1, q2, out=q1)
    del q2
    out = a[:-1, :-1] - a[1:, 1:]
    out += b[:-1, 1:]
    out -= b[1:, :-1]
    return out
