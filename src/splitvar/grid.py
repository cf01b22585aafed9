"""Uniform tensor grids on (-1,1)^2, discrete gradients, and serialization.

Nodal fields live on the (n1+1) x (n2+1) lattice, gradient fields per cell.
The discrete gradient is the bilinear cell-center scheme: each component
averages the two forward differences of the cell in its direction, which is
exact for affine nodal data.  ``divergence_residual`` is its adjoint scaled
by the cell area, so the discrete Euler residual of an energy equals the
divergence residual of its stress field by construction.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import _kernels

__all__ = [
    "Grid",
    "GridFunction",
    "CellField2",
    "gradient",
    "divergence_residual",
    "zero_ring",
    "apply_dirichlet",
    "save_csv",
    "load_csv",
    "save_vsgf",
    "load_vsgf",
]

VSGF_MAGIC = b"VSGF"


@dataclass(frozen=True)
class Grid:
    """n1 x n2 cells on (-1,1)^2; spacings are exactly 2/n1 and 2/n2."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError(f"need at least 2 cells per axis, got {self.n1}x{self.n2}")

    @property
    def h1(self) -> float:
        return 2.0 / self.n1

    @property
    def h2(self) -> float:
        return 2.0 / self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.n1 + 1, self.n2 + 1)

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """1D node coordinates along each axis."""
        x1 = -1.0 + 2.0 * np.arange(self.n1 + 1) / self.n1
        x2 = -1.0 + 2.0 * np.arange(self.n2 + 1) / self.n2
        return x1, x2

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """1D cell-center coordinates along each axis."""
        x1 = -1.0 + (2.0 * np.arange(self.n1) + 1.0) / self.n1
        x2 = -1.0 + (2.0 * np.arange(self.n2) + 1.0) / self.n2
        return x1, x2

    def interior_mask(self) -> np.ndarray:
        """Boolean nodal mask, True strictly inside the boundary ring."""
        m = np.zeros(self.node_shape, dtype=bool)
        m[1:-1, 1:-1] = True
        return m


@dataclass
class GridFunction:
    """Nodal scalar field with an optional Dirichlet-locked boundary mask."""

    grid: Grid
    values: np.ndarray
    boundary_mask: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.node_shape:
            raise ValueError(
                f"values shape {self.values.shape} != node shape {self.grid.node_shape}"
            )
        if self.boundary_mask is not None:
            self.boundary_mask = np.asarray(self.boundary_mask, dtype=bool)
            if self.boundary_mask.shape != self.grid.node_shape:
                raise ValueError("boundary mask shape mismatch")

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        x1, x2 = grid.node_coords()
        vals = fn(x1[:, None], x2[None, :])
        return cls(grid, np.broadcast_to(vals, grid.node_shape).astype(np.float64).copy())

    def copy(self) -> "GridFunction":
        mask = None if self.boundary_mask is None else self.boundary_mask.copy()
        return GridFunction(self.grid, self.values.copy(), mask)


@dataclass
class CellField2:
    """Two-component field on cell centers (a discrete gradient or stress)."""

    grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        self.comp1 = np.asarray(self.comp1, dtype=np.float64)
        self.comp2 = np.asarray(self.comp2, dtype=np.float64)
        shape = (self.grid.n1, self.grid.n2)
        if self.comp1.shape != shape or self.comp2.shape != shape:
            raise ValueError(f"cell field components must have shape {shape}")


def gradient(u: GridFunction) -> CellField2:
    """Cell-centered discrete gradient; exact for affine nodal data."""
    g1, g2 = _kernels.cell_gradient(u.values, u.grid.h1, u.grid.h2)
    return CellField2(u.grid, g1, g2)


def divergence_residual(tau: CellField2) -> np.ndarray:
    """Discrete weak divergence of a cell field against nodal test functions.

    Returns the nodal array r with r = 0 on the boundary ring and
    <gradient(phi), tau>_cells * h1*h2 = <phi, r>_nodes for every nodal phi
    supported on interior nodes.  Constant fields have zero residual.
    """
    g = tau.grid
    return zero_ring(_kernels.scatter_adjoint(tau.comp1, tau.comp2, g.h1, g.h2))


def zero_ring(arr: np.ndarray) -> np.ndarray:
    """Zero the boundary ring of a nodal array in place and return it."""
    arr[[0, -1], :] = 0.0
    arr[:, [0, -1]] = 0.0
    return arr


def apply_dirichlet(
    u: GridFunction, data: Union[Callable, np.ndarray, "GridFunction"]
) -> GridFunction:
    """Overwrite the boundary ring with Dirichlet data and lock it.

    ``data`` may be a callable (x1, x2) -> values, a full nodal array, or
    another GridFunction; only the ring is read.  Idempotent.
    """
    g = u.grid
    out = u.copy()
    if callable(data) and not isinstance(data, GridFunction):
        x1, x2 = g.node_coords()
        full = np.broadcast_to(data(x1[:, None], x2[None, :]), g.node_shape)
    elif isinstance(data, GridFunction):
        full = data.values
    else:
        full = np.asarray(data, dtype=np.float64)
        if full.shape != g.node_shape:
            raise ValueError("Dirichlet data array must have the full nodal shape")
    ring = ~g.interior_mask()
    out.values[ring] = full[ring]
    out.boundary_mask = ring
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_csv(u: GridFunction, path: str) -> None:
    """Write nodes as x1,x2,value rows (row-major in the x1 index)."""
    x1, x2 = u.grid.node_coords()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for i in range(u.grid.n1 + 1):
            for j in range(u.grid.n2 + 1):
                # plain-float repr: shortest round-trip digits, no numpy tags
                writer.writerow(
                    [repr(float(x1[i])), repr(float(x2[j])), repr(float(u.values[i, j]))]
                )


def load_csv(path: str) -> GridFunction:
    """Inverse of save_csv; the grid is inferred from the coordinate columns."""
    xs1, xs2, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header] != ["x1", "x2", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for row in reader:
            xs1.append(float(row[0]))
            xs2.append(float(row[1]))
            vals.append(float(row[2]))
    u1 = sorted(set(xs1))
    u2 = sorted(set(xs2))
    n1, n2 = len(u1) - 1, len(u2) - 1
    if (n1 + 1) * (n2 + 1) != len(vals):
        raise ValueError("CSV rows do not form a complete tensor grid")
    grid = Grid(n1, n2)
    values = np.empty(grid.node_shape)
    idx1 = {x: i for i, x in enumerate(u1)}
    idx2 = {x: j for j, x in enumerate(u2)}
    for a, b, v in zip(xs1, xs2, vals):
        values[idx1[a], idx2[b]] = v
    return GridFunction(grid, values)


def save_vsgf(u: GridFunction, path: str) -> None:
    """Binary format: magic 'VSGF', n1 and n2 as 4-byte little-endian unsigned
    integers, then (n1+1)*(n2+1) float64 nodal values row-major in the x1 index."""
    with open(path, "wb") as fh:
        fh.write(VSGF_MAGIC)
        fh.write(struct.pack("<II", u.grid.n1, u.grid.n2))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_vsgf(path: str) -> GridFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != VSGF_MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a VSGF file")
        n1, n2 = struct.unpack("<II", fh.read(8))
        payload = fh.read()
    expected = (n1 + 1) * (n2 + 1) * 8
    if len(payload) != expected:
        raise ValueError(f"payload has {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n1 + 1, n2 + 1).copy()
    return GridFunction(Grid(n1, n2), values)
