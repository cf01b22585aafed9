"""Discrete energies: the split functional, its regularization and the relaxed
functional on jump candidates.

All area integrals use midpoint quadrature on cell-centered gradient values
with weight h1*h2.  The relaxed functional prices interior jumps along
vertical grid lines at recession-slope times jump mass, and boundary
detachment on the two vertical sides the same way with trapezoid weights.
Each energy comes back as an ``EnergyBreakdown`` of its parts, and
``j_total`` sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .densities import DensityPair, regularizer
from .grid import CellField2, Grid, GridFunction, gradient

__all__ = [
    "EnergyOverflowError",
    "CandidateInvariantError",
    "EnergyBreakdown",
    "JumpSegment",
    "BVCandidate",
    "lift_to_candidate",
    "eval_J",
    "eval_J_delta",
    "eval_K",
]


# relative tolerance of the top and bottom trace match in eval_K
TRACE_TOL = 1e-10


class EnergyOverflowError(ArithmeticError):
    """A cell produced a non-finite energy value."""


class CandidateInvariantError(ValueError):
    """A jump candidate violates its structural or trace constraints."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Itemized energy values.

    ``j_total`` always equals j_f1 + j_f2 + k_singular + k_boundary +
    delta_term; j_f2, the superlinear penalty of the second gradient
    component, appears in both the plain and the relaxed functional.
    """

    j_f1: float
    j_f2: float
    k_singular: float = 0.0
    k_boundary: float = 0.0
    delta_term: float = 0.0

    @property
    def j_total(self) -> float:
        return self.j_f1 + self.j_f2 + self.k_singular + self.k_boundary + self.delta_term


def _cell_sums(
    g: CellField2, d: DensityPair, p_reg: Optional[float] = None
) -> tuple[float, float, float]:
    """(j_f1, j_f2, i_reg) of a cell gradient field: the area integrals of
    f1(comp1), f2(comp2) and, when ``p_reg`` is given, of the regularizer
    rho_p(comp1) = (1+comp1**2)**(p_reg/2) (else i_reg = 0.0).

    The one place the split energy is summed: the solver's line search and
    the certificates call it alike, so their J and J_delta agree bitwise.
    """
    w = g.grid.cell_area
    # overflow surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        j1 = w * float(np.sum(d.f1.eval(g.comp1)))
        j2 = w * float(np.sum(d.f2.eval(g.comp2)))
        i_reg = 0.0 if p_reg is None else w * float(np.sum(regularizer(g.comp1, p_reg)))
    if not math.isfinite(j1 + j2 + i_reg):
        raise EnergyOverflowError("non-finite cell energy")
    return j1, j2, i_reg


def eval_J(u: GridFunction, d: DensityPair) -> EnergyBreakdown:
    """Split energy of a nodal field: sum of f1(comp1) + f2(comp2) over cells."""
    j1, j2, _ = _cell_sums(gradient(u), d)
    return EnergyBreakdown(j_f1=j1, j_f2=j2)


def eval_J_delta(
    u: GridFunction, d: DensityPair, delta: float, p_reg: float
) -> EnergyBreakdown:
    """Regularized energy: adds delta * sum of rho_p(comp1) = (1+comp1**2)**(p_reg/2).

    The added term is linear in delta by construction (the delta-independent
    integral is formed first and scaled).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if p_reg < 2.0:
        raise ValueError(f"p_reg must be >= 2, got {p_reg}")
    j1, j2, i_reg = _cell_sums(gradient(u), d, p_reg)
    return EnergyBreakdown(j_f1=j1, j_f2=j2, delta_term=delta * i_reg)


# ---------------------------------------------------------------------------
# jump candidates and the relaxed functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpSegment:
    """Vertical jump along the grid line x1 = line_index, spanning the cells
    cell_start..cell_end-1 in the x2 direction, with constant height."""

    line_index: int
    cell_start: int
    cell_end: int
    height: float


@dataclass
class BVCandidate:
    """Piecewise-smooth candidate: a nodal part plus vertical jump segments.

    ``trace_left``/``trace_right`` are the candidate's boundary values on
    x1 = -1 and x1 = +1, derived from the smooth part and the jump heights of
    segments crossed on the way to the right edge.
    """

    smooth_part: GridFunction
    jumps: Sequence[JumpSegment] = field(default_factory=tuple)
    trace_left: np.ndarray = field(init=False)
    trace_right: np.ndarray = field(init=False)

    def __post_init__(self):
        g = self.smooth_part.grid
        for seg in self.jumps:
            if not (1 <= seg.line_index <= g.n1 - 1):
                raise CandidateInvariantError(
                    f"jump line index {seg.line_index} not an interior grid line"
                )
            if not (0 <= seg.cell_start < seg.cell_end <= g.n2):
                raise CandidateInvariantError(
                    f"bad jump cell range ({seg.cell_start}, {seg.cell_end})"
                )
            if not math.isfinite(seg.height):
                raise CandidateInvariantError("jump height must be finite")
        self.trace_left = self.smooth_part.values[0, :].copy()
        self.trace_right = self.smooth_part.values[-1, :].copy()
        for seg in self.jumps:
            self.trace_right[seg.cell_start : seg.cell_end + 1] += seg.height

    def edge_values(self, edge: str) -> np.ndarray:
        """Candidate trace along 'top' (x2=1) or 'bottom' (x2=-1), including
        the jump contribution of segments that reach that edge."""
        g = self.smooth_part.grid
        j = g.n2 if edge == "top" else 0
        vals = self.smooth_part.values[:, j].copy()
        for seg in self.jumps:
            reaches = seg.cell_end == g.n2 if edge == "top" else seg.cell_start == 0
            if reaches:
                vals[seg.line_index + 1 :] += seg.height
        return vals


def lift_to_candidate(u: GridFunction) -> BVCandidate:
    """Wrap a nodal field as a jump-free candidate (its own traces)."""
    return BVCandidate(smooth_part=u.copy())


def _resolve_boundary(u0, grid: Grid) -> np.ndarray:
    if isinstance(u0, GridFunction):
        if u0.grid != grid:
            raise ValueError("boundary data grid does not match the candidate grid")
        return u0.values
    arr = np.asarray(u0, dtype=np.float64)
    if arr.shape != grid.node_shape:
        raise ValueError("boundary data array must have full nodal shape")
    return arr


def _recession_of_sign(d: DensityPair, x: np.ndarray) -> np.ndarray:
    """f1 recession slope applied to the sign of x (one-homogeneous pricing)."""
    return np.where(x >= 0.0, d.f1.recession_plus, d.f1.recession_minus)


def eval_K(w: BVCandidate, d: DensityPair, u0) -> EnergyBreakdown:
    """Relaxed energy of a jump candidate.

    Absolutely continuous part from the smooth nodal field, interior jumps
    priced at recession-slope times jump mass, detachment from the boundary
    data on the two vertical sides priced the same way with trapezoid
    weights.  ``u0`` is a GridFunction or a full nodal array; only its ring
    is read.  The candidate's top and bottom traces (jump contributions
    included, nodes on jump lines excluded) must match the boundary data to
    TRACE_TOL relative.
    """
    g = w.smooth_part.grid
    u0_vals = _resolve_boundary(u0, g)

    # corner nodes are exempt: they have zero boundary measure and sit on the
    # lateral sides where detachment is priced rather than forbidden
    line_nodes = {seg.line_index for seg in w.jumps}
    for edge, j in (("bottom", 0), ("top", g.n2)):
        cand = w.edge_values(edge)
        ref = u0_vals[:, j]
        for i in range(1, g.n1):
            if i in line_nodes:
                continue
            scale = 1.0 + abs(ref[i])
            if abs(cand[i] - ref[i]) > TRACE_TOL * scale:
                raise CandidateInvariantError(
                    f"{edge} trace mismatches boundary data at node {i}: "
                    f"{float(cand[i])!r} vs {float(ref[i])!r}"
                )

    j1, j2, _ = _cell_sums(gradient(w.smooth_part), d)

    k_sing = 0.0
    for seg in w.jumps:
        length = (seg.cell_end - seg.cell_start) * g.h2
        slope = float(_recession_of_sign(d, seg.height))
        k_sing += slope * abs(seg.height) * length

    # trapezoid weights along each vertical side
    weights = np.full(g.n2 + 1, g.h2)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    k_bdry = 0.0
    for trace, col, nu1 in ((w.trace_left, 0, -1.0), (w.trace_right, g.n1, 1.0)):
        detach = (u0_vals[col, :] - trace) * nu1
        slopes = _recession_of_sign(d, detach)
        k_bdry += float(np.sum(slopes * np.abs(detach) * weights))

    return EnergyBreakdown(j_f1=j1, j_f2=j2, k_singular=k_sing, k_boundary=k_bdry)
