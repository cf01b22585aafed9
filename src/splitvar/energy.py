"""Discrete energies: the split functional, its regularization, the relaxed
functional on jump candidates, and the Luxemburg norm.

All area integrals use midpoint quadrature on cell-centered gradient values
with weight h1*h2.  The relaxed functional prices interior jumps along
vertical grid lines at recession-slope times jump mass, and boundary
detachment on the two vertical sides the same way with trapezoid weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .densities import DensityPair, NFunctionSpec, regularizer
from .grid import CellField2, Grid, GridFunction, gradient

__all__ = [
    "EnergyOverflowError",
    "CandidateInvariantError",
    "LuxemburgBracketError",
    "EnergyBreakdown",
    "JumpSegment",
    "BVCandidate",
    "lift_to_candidate",
    "eval_J",
    "eval_J_delta",
    "eval_E",
    "eval_K",
    "luxemburg_norm",
]


class EnergyOverflowError(ArithmeticError):
    """A cell produced a non-finite energy value."""


class CandidateInvariantError(ValueError):
    """A jump candidate violates its structural or trace constraints."""


class LuxemburgBracketError(ArithmeticError):
    """Luxemburg bisection bracket [1e-12, 1e12] failed to contain the norm."""


@dataclass(frozen=True)
class EnergyBreakdown:
    """Itemized energy values.

    ``j_total`` always equals j_f1 + j_f2 + k_singular + k_boundary +
    delta_term; ``e_part`` aliases j_f2 (the superlinear penalty of the
    second gradient component appears in both the plain and the relaxed
    functional).
    """

    j_f1: float
    j_f2: float
    k_singular: float = 0.0
    k_boundary: float = 0.0
    delta_term: float = 0.0

    @property
    def e_part(self) -> float:
        return self.j_f2

    @property
    def j_total(self) -> float:
        return self.j_f1 + self.j_f2 + self.k_singular + self.k_boundary + self.delta_term

    def to_dict(self) -> dict:
        return {
            "j_total": self.j_total,
            "j_f1": self.j_f1,
            "j_f2": self.j_f2,
            "k_singular": self.k_singular,
            "k_boundary": self.k_boundary,
            "e_part": self.e_part,
            "delta_term": self.delta_term,
        }


def _cell_sums(u: GridFunction, d: DensityPair) -> tuple[float, float, CellField2]:
    g = gradient(u)
    w = u.grid.cell_area
    # overflow surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        vals1 = np.asarray(d.f1.eval(g.comp1), dtype=np.float64)
        vals2 = np.asarray(d.f2.eval(g.comp2), dtype=np.float64)
    if not (np.all(np.isfinite(vals1)) and np.all(np.isfinite(vals2))):
        raise EnergyOverflowError("non-finite cell energy")
    return w * float(np.sum(vals1)), w * float(np.sum(vals2)), g


def eval_J(u: GridFunction, d: DensityPair) -> EnergyBreakdown:
    """Split energy of a nodal field: sum of f1(comp1) + f2(comp2) over cells."""
    j1, j2, _ = _cell_sums(u, d)
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
    j1, j2, g = _cell_sums(u, d)
    base = u.grid.cell_area * float(np.sum(regularizer(g.comp1, p_reg)))
    return EnergyBreakdown(j_f1=j1, j_f2=j2, delta_term=delta * base)


def eval_E(v_cells: np.ndarray, f2) -> float:
    """Superlinear penalty of a cell field over the full domain (area 4)."""
    v = np.asarray(v_cells, dtype=np.float64)
    weight = 4.0 / v.size
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f2.eval(v), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise EnergyOverflowError("non-finite cell energy")
    return weight * float(np.sum(vals))


def luxemburg_norm(v_cells: np.ndarray, a: NFunctionSpec) -> float:
    """Luxemburg norm inf{l > 0 : integral of A(|v|/l) <= 1} of a cell field.

    Bisection over l in [1e-12, 1e12] to relative width 1e-10; a gauge
    exceeding the bracket raises LuxemburgBracketError.
    """
    v = np.abs(np.asarray(v_cells, dtype=np.float64))
    if v.size == 0 or np.all(v == 0.0):
        return 0.0
    weight = 4.0 / v.size

    def excess(l: float) -> float:
        with np.errstate(over="ignore"):
            total = weight * float(np.sum(np.asarray(a.eval(v / l))))
        return total - 1.0

    lo, hi = 1e-12, 1e12
    if excess(hi) > 0.0:
        raise LuxemburgBracketError("norm exceeds the bracket cap 1e12")
    if excess(lo) <= 0.0:
        return lo
    while (hi - lo) > 1e-10 * hi:
        mid = math.sqrt(lo * hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


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
    x1 = -1 and x1 = +1; by default they accumulate the smooth part and the
    jump heights of segments crossed on the way to the right edge.
    """

    smooth_part: GridFunction
    jumps: Sequence[JumpSegment] = field(default_factory=tuple)
    trace_left: Optional[np.ndarray] = None
    trace_right: Optional[np.ndarray] = None

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
        if self.trace_left is None:
            self.trace_left = self.smooth_part.values[0, :].copy()
        else:
            self.trace_left = np.asarray(self.trace_left, dtype=np.float64)
        if self.trace_right is None:
            acc = self.smooth_part.values[-1, :].copy()
            for seg in self.jumps:
                acc[seg.cell_start : seg.cell_end + 1] += seg.height
            self.trace_right = acc
        else:
            self.trace_right = np.asarray(self.trace_right, dtype=np.float64)
        n2 = g.n2
        if self.trace_left.shape != (n2 + 1,) or self.trace_right.shape != (n2 + 1,):
            raise CandidateInvariantError("traces must have one value per edge node")

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
    if callable(u0):
        x1, x2 = grid.node_coords()
        return np.broadcast_to(u0(x1[:, None], x2[None, :]), grid.node_shape)
    arr = np.asarray(u0, dtype=np.float64)
    if arr.shape != grid.node_shape:
        raise ValueError("boundary data array must have full nodal shape")
    return arr


def _recession_of_sign(d: DensityPair, x: np.ndarray) -> np.ndarray:
    """f1 recession slope applied to the sign of x (one-homogeneous pricing)."""
    return np.where(x >= 0.0, d.f1.recession_plus, d.f1.recession_minus)


def eval_K(
    w: BVCandidate,
    d: DensityPair,
    u0,
    trace_tol: float = 1e-10,
) -> EnergyBreakdown:
    """Relaxed energy of a jump candidate.

    Absolutely continuous part from the smooth nodal field, interior jumps
    priced at recession-slope times jump mass, detachment from the boundary
    data on the two vertical sides priced the same way with trapezoid
    weights.  The candidate's top and bottom traces (jump contributions
    included, nodes on jump lines excluded) must match the boundary data.
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
            if abs(cand[i] - ref[i]) > trace_tol * scale:
                raise CandidateInvariantError(
                    f"{edge} trace mismatches boundary data at node {i}: "
                    f"{cand[i]!r} vs {ref[i]!r}"
                )

    j1, j2, _ = _cell_sums(w.smooth_part, d)

    k_sing = 0.0
    for seg in w.jumps:
        length = (seg.cell_end - seg.cell_start) * g.h2
        slope = d.f1.recession_plus if seg.height >= 0.0 else d.f1.recession_minus
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
