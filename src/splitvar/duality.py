"""Dual quantities: stress fields, the dual objective, duality gaps, and the
pointwise conjugate-extremality check.

The dual objective evaluates the Lagrangian at the boundary-data field: for
a cell stress tau,

    R[tau] = sum over cells of h1*h2 * (tau . grad(u0) - f1*(tau_1) - f2*(tau_2)),

a certified lower bound on the primal energy whenever tau is discretely
divergence-free (residual below ``div_tol``); for nearly divergence-free
fields the reported bound degrades linearly in the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .densities import DensityPair, regularized_stress
from .energy import eval_J
from .grid import CellField2, GridFunction, divergence_residual, gradient

__all__ = [
    "DualReport",
    "stress",
    "eval_R",
    "duality_gap",
    "extremality_check",
]


@dataclass(frozen=True)
class DualReport:
    """Primal-dual certificate for one primal field and one stress field."""

    j_value: float
    r_value: float
    gap_absolute: float
    gap_relative: float
    div_residual_max: float
    certified: bool
    extremality_max_violation: float
    delta_stress_norm: float

    def to_dict(self) -> dict:
        return {
            "j": self.j_value,
            "r": self.r_value,
            "gap_abs": self.gap_absolute,
            "gap_rel": self.gap_relative,
            "div_residual": self.div_residual_max,
            "certified": self.certified,
            "extremality": self.extremality_max_violation,
            "delta_stress_norm": self.delta_stress_norm,
        }


def stress(
    u: GridFunction, d: DensityPair, delta: float, p_reg: float
) -> tuple[CellField2, CellField2, np.ndarray]:
    """Stress fields (sigma_delta, tau, x_delta) of a primal iterate: the
    ``regularized_stress`` of its cell gradient, with sigma_delta = tau +
    delta * (x_delta, 0) and tau = Df, as cell fields."""
    g = gradient(u)
    sigma1, t1, t2, x_delta = regularized_stress(d, g.comp1, g.comp2, delta, p_reg)
    return CellField2(u.grid, sigma1, t2), CellField2(u.grid, t1, t2), x_delta


def eval_R(
    tau: CellField2, d: DensityPair, u0: GridFunction, div_tol: float
) -> tuple[float, bool]:
    """Dual objective at a stress field, evaluated against the boundary field.

    Returns (r_value, certified).  ``certified`` means the discrete weak
    divergence stays below ``div_tol`` in the max norm, making r_value a
    lower bound for the primal energy up to residual_max * ||v - u0||_l1
    over admissible v.  Conjugate range errors (first component slope
    outside the recession interval) propagate.
    """
    g0 = gradient(u0)
    conj1 = np.asarray(d.conjugate_f1(tau.comp1), dtype=np.float64)
    conj2 = np.asarray(d.conjugate_f2(tau.comp2), dtype=np.float64)
    pairing = tau.comp1 * g0.comp1 + tau.comp2 * g0.comp2
    r_value = u0.grid.cell_area * float(np.sum(pairing - conj1 - conj2))
    res_max = float(np.max(np.abs(divergence_residual(tau))))
    return r_value, res_max <= div_tol


def extremality_check(u: GridFunction, sigma: CellField2, d: DensityPair) -> float:
    """Max relative violation of the pointwise conjugate extremality identity
    f(grad u) + f*(sigma) = sigma . grad u over cells."""
    g = gradient(u)
    lhs = (
        np.asarray(d.f1.eval(g.comp1))
        + np.asarray(d.f2.eval(g.comp2))
        + np.asarray(d.conjugate_f1(sigma.comp1))
        + np.asarray(d.conjugate_f2(sigma.comp2))
    )
    pairing = sigma.comp1 * g.comp1 + sigma.comp2 * g.comp2
    viol = np.abs(lhs - pairing) / (1.0 + np.abs(pairing))
    return float(np.max(viol))


def duality_gap(
    u: GridFunction,
    tau: CellField2,
    d: DensityPair,
    u0: Optional[GridFunction] = None,
    div_tol: float = 1e-6,
    delta: float = 0.0,
    p_reg: float = 2.0,
) -> DualReport:
    """Primal-dual gap report for a primal field and a stress candidate.

    ``u0`` defaults to ``u`` itself (whose ring carries the Dirichlet data
    after a solve).  The dual value and its divergence certificate use the
    supplied ``tau`` (typically the converged regularized stress), while the
    pointwise Fenchel-equality check always pairs u with Df(grad u), the
    stress the equality refers to.  ``delta``/``p_reg`` control the reported
    norm of the vanishing regularization stress delta * x_delta in the dual
    exponent p/(p-1).
    """
    if u0 is None:
        u0 = u
    j_value = eval_J(u, d).j_total
    r_value, certified = eval_R(tau, d, u0, div_tol)
    res_max = float(np.max(np.abs(divergence_residual(tau))))
    gap_abs = j_value - r_value
    gap_rel = gap_abs / (1.0 + abs(j_value))
    _, tau_young, x_delta = stress(u, d, delta, p_reg)
    extremality = extremality_check(u, tau_young, d)

    if delta > 0.0:
        q = p_reg / (p_reg - 1.0)
        norm_q = (
            u.grid.cell_area * float(np.sum(np.abs(delta * x_delta) ** q))
        ) ** (1.0 / q)
    else:
        norm_q = 0.0

    return DualReport(
        j_value=j_value,
        r_value=r_value,
        gap_absolute=gap_abs,
        gap_relative=gap_rel,
        div_residual_max=res_max,
        certified=certified,
        extremality_max_violation=extremality,
        delta_stress_norm=norm_q,
    )
