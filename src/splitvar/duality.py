"""Dual quantities: stress fields and the duality gap report, with its
pointwise conjugate-extremality check.

The dual objective evaluates the Lagrangian at the boundary-data field: for
a cell stress tau,

    R[tau] = sum over cells of h1*h2 * (tau . grad(u0) - f1*(tau_1) - f2*(tau_2)),

a certified lower bound on the primal energy whenever tau is discretely
divergence-free (residual below ``DIV_TOL``); for nearly divergence-free
fields the reported bound degrades linearly in the residual.  f1* is finite
only inside the recession slopes of f1, so ``duality_gap``, the one door to
R, certifies a scaled stress lambda*tau that lies inside them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import DensityPair, _resolve_p_reg, regularized_stress
from .energy import _cell_sums
from .grid import CellField2, GridFunction, divergence_residual, gradient

__all__ = [
    "DualReport",
    "stress",
    "duality_gap",
]

# max-norm bound on the discrete divergence residual of a certified stress
DIV_TOL = 1e-6
# weak duality R <= J holds while gap_absolute >= -WEAK_DUALITY_TOL * (1 + |J|)
WEAK_DUALITY_TOL = 1e-9

# golden-section steps of the stress-scale search (final bracket 0.618**60 ~ 3e-13)
SCALE_STEPS = 60


@dataclass(frozen=True)
class DualReport:
    """Primal-dual certificate for one primal field and one stress field;
    ``scale`` is the lambda of the certified stress lambda*tau."""

    j_value: float
    r_value: float
    gap_absolute: float
    gap_relative: float
    div_residual_max: float
    certified: bool
    extremality_max_violation: float
    delta_stress_norm: float
    scale: float

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
            "scale": self.scale,
        }


def _stress_inputs(d: DensityPair, delta: float, p_reg: Optional[float]) -> float:
    """``p_reg`` resolved by the solver's rule (``_resolve_p_reg``); then
    ``delta`` must be finite and >= 0, where 0 gives the plain stress Df."""
    p_reg = _resolve_p_reg(d, p_reg)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    return p_reg


def stress(
    u: GridFunction, d: DensityPair, delta: float, p_reg: Optional[float]
) -> tuple[CellField2, CellField2, np.ndarray]:
    """Stress fields (sigma_delta, tau, x_delta) of a primal iterate: the
    ``regularized_stress`` of its cell gradient, with sigma_delta = tau +
    delta * (x_delta, 0) and tau = Df, as cell fields.  ``delta`` and
    ``p_reg`` follow ``_stress_inputs``."""
    p_reg = _stress_inputs(d, delta, p_reg)
    g = gradient(u)
    sigma1, t1, t2, x_delta = regularized_stress(d, g.comp1, g.comp2, delta, p_reg)
    return CellField2(u.grid, sigma1, t2), CellField2(u.grid, t1, t2), x_delta


def _dual_value(tau: CellField2, d: DensityPair, g0: CellField2) -> float:
    conj1 = np.asarray(d.conjugate_f1(tau.comp1), dtype=np.float64)
    conj2 = np.asarray(d.conjugate_f2(tau.comp2), dtype=np.float64)
    pairing = tau.comp1 * g0.comp1 + tau.comp2 * g0.comp2
    return g0.grid.integrate(pairing - conj1 - conj2)


def _extremality(g: CellField2, sigma: CellField2, d: DensityPair) -> float:
    """Max relative violation over cells of the pointwise conjugate
    extremality identity f(g) + f*(sigma) = sigma . g."""
    lhs = (
        np.asarray(d.f1.eval(g.comp1))
        + np.asarray(d.f2.eval(g.comp2))
        + np.asarray(d.conjugate_f1(sigma.comp1))
        + np.asarray(d.conjugate_f2(sigma.comp2))
    )
    pairing = sigma.comp1 * g.comp1 + sigma.comp2 * g.comp2
    viol = np.abs(lhs - pairing) / (1.0 + np.abs(pairing))
    return float(np.max(viol))


def _golden_max(f: Callable[[float], float], a: float, b: float, steps: int):
    """Maximize a unimodal f on [a, b] by ``steps`` golden-section steps; returns
    the best point (x, f(x)) evaluated, strictly inside (a, b)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _certified_stress(tau: CellField2, d: DensityPair, g0: CellField2) -> tuple:
    """(lambda, lambda*tau), the scaled stress ``duality_gap`` certifies."""
    r_plus, r_minus = d.f1.recession_plus, d.f1.recession_minus
    hi, lo = float(np.max(tau.comp1)), float(np.min(tau.comp1))
    if -r_minus < lo and hi < r_plus:
        return 1.0, tau
    # one ratio is at least 1 here, so the reciprocal is finite
    lam_max = 1.0 / max(hi / r_plus, -lo / r_minus)

    def scaled(lam):
        return CellField2(tau.grid, lam * tau.comp1, lam * tau.comp2)

    lam, _ = _golden_max(lambda x: _dual_value(scaled(x), d, g0), 0.0, lam_max, SCALE_STEPS)
    return lam, scaled(lam)


def duality_gap(
    u: GridFunction,
    tau: CellField2,
    d: DensityPair,
    u0: Optional[GridFunction] = None,
    delta: float = 0.0,
    p_reg: Optional[float] = None,
) -> DualReport:
    """Primal-dual gap report for a primal field and a stress candidate.

    ``u0`` defaults to ``u`` itself (whose ring carries the Dirichlet data
    after a solve).  The dual value and its divergence certificate use the
    stress lambda*tau (typically tau is the converged regularized stress),
    while the pointwise Fenchel-equality check always pairs u with
    Df(grad u), the stress the equality refers to.  ``delta``/``p_reg``
    control the reported norm of the vanishing regularization stress
    delta * x_delta in the dual exponent p/(p-1), and follow the rule of
    ``stress`` (``_stress_inputs``).

    The scale lambda (``DualReport.scale``).  f1* is finite only on
    (-r_minus, r_plus), the recession slopes of f1, which tau_1 may leave.
    Every lambda in (0, lambda_max), lambda_max = min(r_plus / max tau_1^+,
    r_minus / max tau_1^-), puts lambda*tau_1 strictly inside.  The discrete
    divergence is linear, div(lambda*tau) = lambda div tau, so for every v
    with the ring of u0 Fenchel-Young cell by cell gives J[v] >= R(lambda) -
    lambda * residual_max * ||v - u0||_l1, where R(lambda) = lambda <tau,
    grad u0> - sum of f1*(lambda tau_1) + f2*(lambda tau_2).  R is concave
    in lambda (linear minus convex), so the tightest such bound is its
    maximum, found by ``SCALE_STEPS`` golden-section steps strictly inside
    (0, lambda_max).  If tau_1 lies strictly inside (-r_minus, r_plus),
    lambda = 1 and tau is certified as given.  The reported r, div_residual
    and certified refer to lambda*tau.  ``tau`` and ``u0`` must lie on the
    grid of ``u``, and ``tau`` (unlike a GridFunction, not finite by type)
    must hold finite values, else ValueError naming the argument: a nan or
    inf would give a nan or infinite report that certifies nothing.
    """
    p_reg = _stress_inputs(d, delta, p_reg)
    for name, arg in (("tau", tau), ("u0", u0)):
        if arg is not None and arg.grid != u.grid:
            raise ValueError(f"{name} grid does not match the grid of u")
    if not (np.isfinite(tau.comp1).all() and np.isfinite(tau.comp2).all()):
        raise ValueError("tau holds a non-finite value")
    # the cell gradients and the divergence residual are formed once each
    g = gradient(u)
    g0 = g if u0 is None else gradient(u0)
    j1, j2, _ = _cell_sums(g, d)
    j_value = j1 + j2
    scale, tau = _certified_stress(tau, d, g0)
    r_value = _dual_value(tau, d, g0)
    res_max = float(np.max(np.abs(divergence_residual(tau))))
    certified = res_max <= DIV_TOL
    gap_abs = j_value - r_value
    gap_rel = gap_abs / (1.0 + abs(j_value))
    _, t1, t2, x_delta = regularized_stress(d, g.comp1, g.comp2, delta, p_reg)
    extremality = _extremality(g, CellField2(u.grid, t1, t2), d)

    if delta > 0.0:
        q = p_reg / (p_reg - 1.0)
        norm_q = u.grid.integrate(np.abs(delta * x_delta) ** q) ** (1.0 / q)
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
        scale=scale,
    )
