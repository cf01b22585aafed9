"""Discrete energies: the split functional, its regularization and the relaxed
functional on jump candidates.

All area integrals are ``Grid.integrate``'s midpoint quadrature on
cell-centered gradient values.  The relaxed functional prices interior
jumps along vertical grid lines at recession-slope times jump mass, and
boundary detachment on the two vertical sides the same way with trapezoid
weights.  A candidate's trace is one nodal ring, ``BVCandidate.boundary()``,
whose top and bottom edges must match the data and whose vertical sides
price detachment.  Each energy comes back as an ``EnergyBreakdown`` of its
parts, and ``j_total`` sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .densities import DensityPair, _positive_decreasing, _resolve_p_reg, regularizer
from .grid import CellField2, GridFunction, _is_integer, gradient

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
    integrate = g.grid.integrate
    # overflow surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        j1 = integrate(d.f1.eval(g.comp1))
        j2 = integrate(d.f2.eval(g.comp2))
        i_reg = 0.0 if p_reg is None else integrate(regularizer(g.comp1, p_reg))
    if not math.isfinite(j1 + j2 + i_reg):
        raise EnergyOverflowError("non-finite cell energy")
    return j1, j2, i_reg


def eval_J(u: GridFunction, d: DensityPair) -> EnergyBreakdown:
    """Split energy of a nodal field: sum of f1(comp1) + f2(comp2) over cells."""
    j1, j2, _ = _cell_sums(gradient(u), d)
    return EnergyBreakdown(j_f1=j1, j_f2=j2)


def eval_J_delta(
    u: GridFunction, d: DensityPair, delta: float, p_reg: Optional[float]
) -> EnergyBreakdown:
    """Regularized energy: adds delta * sum of rho_p(comp1) = (1+comp1**2)**(p_reg/2).

    The added term is linear in delta by construction (the delta-independent
    integral is formed first and scaled).  ``delta`` lies in (0, 1) and
    ``p_reg`` is None (f2's default) or finite and >= 2, the solver's rules
    (``_positive_decreasing``, ``_resolve_p_reg``).
    """
    _positive_decreasing((delta,), "delta", upper=1.0)
    j1, j2, i_reg = _cell_sums(gradient(u), d, _resolve_p_reg(d, p_reg))
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


@dataclass(frozen=True)
class BVCandidate:
    """Piecewise-smooth candidate: a nodal part plus vertical jump segments.

    The candidate is frozen, and ``jumps`` is stored as a tuple of the
    segments given (any iterable, read once) before they are checked, so the
    segments checked are the segments priced.  ``boundary()`` is the
    candidate's trace on the boundary ring: the smooth part plus the height
    of each segment on the side of its line toward x1 = +1, where the
    segment reaches that edge.
    """

    smooth_part: GridFunction
    jumps: Sequence[JumpSegment] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        g = self.smooth_part.grid
        for seg in self.jumps:
            indices = (seg.line_index, seg.cell_start, seg.cell_end)
            if not all(_is_integer(i) for i in indices):
                raise CandidateInvariantError(
                    f"jump indices must be integers, got {indices!r}"
                )
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

    def boundary(self) -> GridFunction:
        """A new nodal field: the smooth part, each segment's height added
        on the right edge at nodes cell_start..cell_end and on the bottom or
        top edge it reaches at nodes line_index+1..n1-1 (the right column is
        the right edge's, so no corner is raised twice)."""
        g = self.smooth_part.grid
        vals = self.smooth_part.values.copy()
        for seg in self.jumps:
            vals[-1, seg.cell_start : seg.cell_end + 1] += seg.height
            if seg.cell_start == 0:
                vals[seg.line_index + 1 : -1, 0] += seg.height
            if seg.cell_end == g.n2:
                vals[seg.line_index + 1 : -1, -1] += seg.height
        return GridFunction(g, vals)


def lift_to_candidate(u: GridFunction) -> BVCandidate:
    """Wrap a nodal field as a jump-free candidate (its own trace).  The
    candidate shares the field, whose values are read-only."""
    return BVCandidate(smooth_part=u)


def _recession_of_sign(d: DensityPair, x: np.ndarray) -> np.ndarray:
    """f1 recession slope applied to the sign of x (one-homogeneous pricing)."""
    return np.where(x >= 0.0, d.f1.recession_plus, d.f1.recession_minus)


def eval_K(w: BVCandidate, d: DensityPair, u0: GridFunction) -> EnergyBreakdown:
    """Relaxed energy of a jump candidate.

    Absolutely continuous part from the smooth nodal field, interior jumps
    priced at recession-slope times jump mass, detachment from the boundary
    data on the two vertical sides priced the same way with trapezoid
    weights.  ``u0`` is a GridFunction on the candidate's grid; only its
    ring is read.  The top and bottom edges of ``w.boundary()`` (nodes on
    jump lines and corners excluded) must match the boundary data to
    TRACE_TOL relative; the first mismatch, bottom edge before top, raises
    CandidateInvariantError.
    """
    g = w.smooth_part.grid
    if u0.grid != g:
        raise ValueError("boundary data grid does not match the candidate grid")
    u0_vals = u0.values
    ring = w.boundary().values

    # corner nodes are exempt: they have zero boundary measure and sit on the
    # lateral sides where detachment is priced rather than forbidden
    checked = np.ones(g.n1 + 1, dtype=bool)
    checked[[0, g.n1, *(seg.line_index for seg in w.jumps)]] = False
    # rows: the bottom edge, then the top edge
    cand, ref = ring[:, [0, g.n2]].T, u0_vals[:, [0, g.n2]].T
    bad = np.argwhere(checked & (np.abs(cand - ref) > TRACE_TOL * (1.0 + np.abs(ref))))
    if bad.size:
        row, i = bad[0]
        raise CandidateInvariantError(
            f"{('bottom', 'top')[row]} trace mismatches boundary data at node {i}: "
            f"{float(cand[row, i])!r} vs {float(ref[row, i])!r}"
        )

    # trapezoid weights along each vertical side
    weights = np.full(g.n2 + 1, g.h2)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    k_bdry = 0.0
    for col, nu1 in ((0, -1.0), (g.n1, 1.0)):
        detach = (u0_vals[col, :] - ring[col, :]) * nu1
        slopes = _recession_of_sign(d, detach)
        k_bdry += float(np.sum(slopes * np.abs(detach) * weights))
    # the ring is released before the cell gradient is formed
    del ring

    j1, j2, _ = _cell_sums(gradient(w.smooth_part), d)

    k_sing = 0.0
    for seg in w.jumps:
        length = (seg.cell_end - seg.cell_start) * g.h2
        slope = float(_recession_of_sign(d, seg.height))
        k_sing += slope * abs(seg.height) * length

    return EnergyBreakdown(j_f1=j1, j_f2=j2, k_singular=k_sing, k_boundary=k_bdry)
