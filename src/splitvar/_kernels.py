"""Hot grid kernels: cell-centered gradients, nodal scatter, Hessian products.

The conjugate-gradient inner loop of the solver spends nearly all of its time
in these three array passes, so they come in two interchangeable flavours:
numba-jitted loops (default when numba imports) and pure-numpy slicing.
Set ``SPLITVAR_NUMBA=0`` in the environment to force the numpy path.
``benchmarks/bench_kernels.py`` compares the two.

All kernels are single-threaded and use numpy's pairwise summation (or a
fixed loop order under numba), so results are bitwise deterministic.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    _NUMBA_IMPORTED = True
except ImportError:  # pragma: no cover - exercised only without numba
    _NUMBA_IMPORTED = False

USE_NUMBA = _NUMBA_IMPORTED and os.environ.get("SPLITVAR_NUMBA", "1").lower() not in (
    "0",
    "false",
    "no",
)


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if _NUMBA_IMPORTED:

    @njit(cache=True)
    def _numba_cell_gradient(values, h1, h2):  # pragma: no cover - thin jit twin
        n1 = values.shape[0] - 1
        n2 = values.shape[1] - 1
        g1 = np.empty((n1, n2), dtype=np.float64)
        g2 = np.empty((n1, n2), dtype=np.float64)
        for i in range(n1):
            for j in range(n2):
                g1[i, j] = 0.5 * (
                    (values[i + 1, j] - values[i, j])
                    + (values[i + 1, j + 1] - values[i, j + 1])
                ) / h1
                g2[i, j] = 0.5 * (
                    (values[i, j + 1] - values[i, j])
                    + (values[i + 1, j + 1] - values[i + 1, j])
                ) / h2
        return g1, g2

    @njit(cache=True)
    def _numba_scatter_adjoint(t1, t2, h1, h2):  # pragma: no cover
        # gather per node instead of scattering per cell: the two terms of
        # each cell-column (component 1) and cell-row (component 2) pair are
        # subtracted directly, so tensor-structured fields cancel to exact
        # zeros just like the numpy twin's slice ordering
        n1, n2 = t1.shape
        w1 = 0.5 * h2
        w2 = 0.5 * h1
        out = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                s = 0.0
                if j > 0:
                    col = 0.0
                    if i > 0:
                        col += w1 * t1[i - 1, j - 1]
                    if i < n1:
                        col -= w1 * t1[i, j - 1]
                    s += col
                if j < n2:
                    col = 0.0
                    if i > 0:
                        col += w1 * t1[i - 1, j]
                    if i < n1:
                        col -= w1 * t1[i, j]
                    s += col
                r = 0.0
                if i > 0:
                    row = 0.0
                    if j > 0:
                        row += w2 * t2[i - 1, j - 1]
                    if j < n2:
                        row -= w2 * t2[i - 1, j]
                    r += row
                if i < n1:
                    row = 0.0
                    if j > 0:
                        row += w2 * t2[i, j - 1]
                    if j < n2:
                        row -= w2 * t2[i, j]
                    r += row
                out[i, j] = s + r
        return out

    @njit(cache=True)
    def _numba_scatter_diag(w1, w2, h1, h2):  # pragma: no cover
        n1, n2 = w1.shape
        out = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
        for i in range(n1):
            for j in range(n2):
                c = 0.25 * h2 / h1 * w1[i, j] + 0.25 * h1 / h2 * w2[i, j]
                out[i, j] += c
                out[i + 1, j] += c
                out[i, j + 1] += c
                out[i + 1, j + 1] += c
        return out

    @njit(cache=True)
    def _numba_hessvec(v, w1, w2, h1, h2):  # pragma: no cover
        n1 = v.shape[0] - 1
        n2 = v.shape[1] - 1
        o1 = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
        o2 = np.zeros((n1 + 1, n2 + 1), dtype=np.float64)
        for i in range(n1):
            for j in range(n2):
                g1 = 0.5 * (
                    (v[i + 1, j] - v[i, j]) + (v[i + 1, j + 1] - v[i, j + 1])
                ) / h1
                g2 = 0.5 * (
                    (v[i, j + 1] - v[i, j]) + (v[i + 1, j + 1] - v[i + 1, j])
                ) / h2
                a = 0.5 * h2 * w1[i, j] * g1
                b = 0.5 * h1 * w2[i, j] * g2
                o1[i, j] -= a
                o1[i + 1, j] += a
                o1[i, j + 1] -= a
                o1[i + 1, j + 1] += a
                o2[i, j] -= b
                o2[i + 1, j] -= b
                o2[i, j + 1] += b
                o2[i + 1, j + 1] += b
        return o1 + o2


if USE_NUMBA:
    cell_gradient = _numba_cell_gradient
    scatter_adjoint = _numba_scatter_adjoint
    scatter_diag = _numba_scatter_diag
    hessvec = _numba_hessvec
else:
    cell_gradient = _numpy_cell_gradient
    scatter_adjoint = _numpy_scatter_adjoint
    scatter_diag = _numpy_scatter_diag
    hessvec = _numpy_hessvec
