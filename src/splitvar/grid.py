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
import numbers
import struct
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels

__all__ = [
    "Grid",
    "GridFunction",
    "CellField2",
    "gradient",
    "divergence_residual",
    "write_csv",
    "save_csv",
    "load_csv",
    "save_vsgf",
    "load_vsgf",
]

VSGF_MAGIC = b"VSGF"
# cells that write_csv formats as floats
_FLOAT_TYPES = (float, np.floating)
# rows that write_csv formats and writes at a time, so its memory is bounded
_CSV_BLOCK_ROWS = 1024
# how far load_csv lets a coordinate lie from its node, in spacings
_NODE_TOL = 0.25
# _inset_mask's default inset per side, for the sweep and multi_start alike
INSET_MARGIN = 0.1


def _is_integer(value) -> bool:
    """The package's rule for a count or an index: an Integral (numpy's
    integers too) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid:
    """n1 x n2 cells on (-1,1)^2; spacings are exactly 2/n1 and 2/n2."""

    n1: int
    n2: int

    def __post_init__(self):
        if not (_is_integer(self.n1) and _is_integer(self.n2)):
            raise ValueError(f"grid sizes must be integers, got {self.n1!r} and {self.n2!r}")
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

    def integrate(self, cells) -> float:
        """Midpoint quadrature of a per-cell array: h1*h2 times its numpy
        (pairwise) sum.  The one rule for every area integral of the package."""
        return self.cell_area * float(np.sum(cells))

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


@dataclass(frozen=True)
class GridFunction:
    """Nodal scalar field on the (n1+1) x (n2+1) lattice.  Its values are
    finite, else ValueError, and read-only for the life of the field: every
    reader of a nodal field needs finite data, and a write after the check
    would undo it.

    The field takes the array it is given.  An ndarray that owns float64
    data is made read-only in place and kept, so the caller's own array is
    frozen along with the field, and a field built on another's values
    shares them.  Any other input (a view, a list, another dtype) is first
    copied into a new row-major float64 array.  A view of the kept array
    taken before the field was built stays writable, since numpy cannot
    revoke it, so a write through it reaches the field unchecked.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = self.values
        if not (
            isinstance(values, np.ndarray) and values.dtype == np.float64 and values.flags.owndata
        ):
            values = np.array(values, dtype=np.float64, order="C")
        if values.shape != self.grid.node_shape:
            raise ValueError(f"values shape {values.shape} != node shape {self.grid.node_shape}")
        if not np.isfinite(values).all():
            raise ValueError("nodal field holds a non-finite value")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild the field through the check above,
        # which would otherwise hand back writable values
        return (GridFunction, (self.grid, self.values))

    @classmethod
    def from_callable(cls, grid: Grid, fn: Callable) -> "GridFunction":
        x1, x2 = grid.node_coords()
        # a broadcast view, which the field copies into a row-major array
        return cls(grid, np.broadcast_to(fn(x1[:, None], x2[None, :]), grid.node_shape))


@dataclass(frozen=True)
class CellField2:
    """Two-component field on cell centers (a discrete gradient or stress).
    Its fields cannot be reassigned, but its arrays stay writable: the
    solver builds them as scratch, and a reader checks their values itself."""

    grid: Grid
    comp1: np.ndarray
    comp2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "comp1", np.asarray(self.comp1, dtype=np.float64))
        object.__setattr__(self, "comp2", np.asarray(self.comp2, dtype=np.float64))
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
    r = _kernels.scatter_adjoint(tau.comp1, tau.comp2, g.h1, g.h2)
    r[[0, -1], :] = 0.0
    r[:, [0, -1]] = 0.0
    return r


def _inset_mask(grid: Grid, margin: float = INSET_MARGIN) -> np.ndarray:
    """Cells whose centers lie in the window inset by ``margin`` of each side;
    a window that holds no cell center raises ValueError, since every
    integral over it would be a vacuous 0."""
    xc, yc = grid.cell_centers()
    inset = 1.0 - 2.0 * margin
    mask = (np.abs(xc)[:, None] <= inset) & (np.abs(yc)[None, :] <= inset)
    if not mask.any():
        raise ValueError(
            f"margin {margin:g} leaves no cell center of the {grid.n1}x{grid.n2} grid "
            "in the window"
        )
    return mask


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _format_column(col) -> list:
    """write_csv's cells for one column (or a block of one)."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        # tolist gives Python floats, so this is repr(float(v)) per cell
        return list(map(repr, col.tolist()))
    # a str cell (save_csv's preformatted coordinates) is its own str(v);
    # testing for it first spares the isinstance of most cells
    return [
        v if type(v) is str else repr(float(v)) if isinstance(v, _FLOAT_TYPES) else str(v)
        for v in col
    ]


def _csv_lines(rows, n_rows: int, n_cols: int) -> str:
    """CRLF-terminated lines of ``n_rows`` rows of ``n_cols`` str cells.

    A cell may hold no comma, double quote, CR or LF: the csv module would
    quote it, and no caller writes one.  Every other cell is written as
    the csv module writes it, so a count of the separators finds them all.
    """
    text = "\r\n".join(map(",".join, rows)) + "\r\n"
    if (
        '"' in text
        or text.count("\n") != n_rows
        or text.count("\r") != n_rows
        or text.count(",") != n_rows * (n_cols - 1)
    ):
        raise ValueError("a CSV cell holds a comma, a double quote or a line break")
    return text


def write_csv(dest, header, columns) -> None:
    """The one CSV writer of the package: a header row, then the columns,
    to ``dest``, a path or an open text stream (anything with ``write``,
    such as ``sys.stdout``), which is left open.

    Each column is a sequence of equal length and is formatted once, block by
    block.  Floats, numpy scalars included, are written as repr(float(v)),
    the shortest digits that round-trip, with no numpy tag; a float64
    ndarray column gets one repr pass over its ``tolist()``.  Any other cell (a
    label, a count, a preformatted string) is written as str(v).  Each block of
    rows is joined into one string; lines end in CRLF, the csv module's
    default, and the bytes are those of ``csv.writer`` (which would also
    quote the empty cell of a one-column row; no caller writes one column).
    A cell holding a comma, a double quote, CR or LF, which the csv module
    would quote, raises ValueError.
    """
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(col) != n_rows for col in columns):
        raise ValueError("CSV columns differ in length")
    header = list(header)
    with nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", newline="") as fh:
        fh.write(_csv_lines([header], 1, len(header)))
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = zip(*(_format_column(col[block]) for col in columns))
            fh.write(_csv_lines(rows, min(_CSV_BLOCK_ROWS, n_rows - start), len(columns)))


def save_csv(u: GridFunction, path: str) -> None:
    """Write nodes as x1,x2,value rows (row-major in the x1 index)."""
    # each coordinate formatted once per axis, as write_csv would format it
    x1, x2 = (list(map(repr, x.tolist())) for x in u.grid.node_coords())
    col1 = [a for a in x1 for _ in x2]
    write_csv(path, ["x1", "x2", "value"], [col1, x2 * len(x1), u.values.ravel()])


def load_csv(path: str) -> GridFunction:
    """Inverse of save_csv; the grid is inferred from the coordinate columns.

    The header must read x1,x2,value (spaces around a name are ignored).
    Each later line needs at least three numeric cells; LF or CRLF line
    ends, spaces around a cell, double-quoted cells, further columns, rows
    in any order and blank lines are accepted.  The n1+1 distinct x1 values
    and n2+1 distinct x2 values give the grid, and each row is placed at
    the uniform node nearest to its coordinates.

    A ValueError is raised for a short row, a cell that is not a float, a
    row count other than (n1+1)(n2+1), a coordinate farther than h/4 from
    its nearest node, a repeated node, or a value that is not finite (the
    rule of GridFunction).  The tolerance h/4 is under h/2,
    so the windows of neighbouring nodes are h/2 apart and a coordinate off
    the grid cannot pass as a node.  It still admits coordinates rounded by
    another writer: rounding to d significant digits moves a coordinate in
    [-1, 1] by at most 5·10^-d, which is under h/4 = 1/(2n) while
    n < 10^(d-1).  save_csv writes the nodes exactly.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if [c.strip() for c in header] != ["x1", "x2", "value"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        with warnings.catch_warnings():
            # a header alone is rejected below, as an incomplete grid
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(
                fh, delimiter=",", usecols=(0, 1, 2), ndmin=2, quotechar='"',
                comments=None,
            )
    n1, n2 = (len(set(body[:, k].tolist())) - 1 for k in (0, 1))
    if n1 < 2 or n2 < 2 or (n1 + 1) * (n2 + 1) != len(body):
        raise ValueError("CSV rows do not form a complete tensor grid")
    grid = Grid(n1, n2)
    index = []
    for k, (nodes, h) in enumerate(zip(grid.node_coords(), (grid.h1, grid.h2))):
        # the nearest uniform node, then its distance
        i = np.clip(np.rint((body[:, k] + 1.0) / h), 0, len(nodes) - 1).astype(np.intp)
        if not np.all(np.abs(body[:, k] - nodes[i]) <= _NODE_TOL * h):
            raise ValueError(f"x{k + 1} coordinates do not lie on a uniform grid")
        index.append(i)
    flat = index[0] * (n2 + 1) + index[1]
    if np.bincount(flat, minlength=len(body)).max() > 1:
        raise ValueError("CSV repeats a node")
    values = np.empty(grid.node_shape)
    np.put(values, flat, body[:, 2])
    return GridFunction(grid, values)


def save_vsgf(u: GridFunction, path: str) -> None:
    """Binary format: magic 'VSGF', n1 and n2 as 4-byte little-endian unsigned
    integers, then (n1+1)*(n2+1) float64 nodal values row-major in the x1 index."""
    with open(path, "wb") as fh:
        fh.write(VSGF_MAGIC)
        fh.write(struct.pack("<II", u.grid.n1, u.grid.n2))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def load_vsgf(path: str) -> GridFunction:
    """Inverse of save_vsgf; a non-finite value raises ValueError, as in GridFunction."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != VSGF_MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a VSGF file")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"header has {len(header)} bytes after the magic, expected 8")
        n1, n2 = struct.unpack("<II", header)
        payload = fh.read()
    expected = (n1 + 1) * (n2 + 1) * 8
    if len(payload) != expected:
        raise ValueError(f"payload has {len(payload)} bytes, expected {expected}")
    # a read-only view of the payload, which the field copies
    return GridFunction(Grid(n1, n2), np.frombuffer(payload, dtype="<f8").reshape(n1 + 1, n2 + 1))
