"""Damped Newton solver for the regularized split energy, with warm-started
continuation along a decreasing regularization schedule and a seeded
multi-start uniqueness probe.

Unknowns are the interior nodal values; the boundary ring carries the
Dirichlet data.  Newton directions come from a conjugate-gradient solve on
the (matrix-free) discrete Hessian H = h1 h2 (G1^T W1 G1 + G2^T W2 G2),
with steepest descent as fallback and Armijo backtracking for global
descent.  CG is preconditioned by the exact inverse of H with the
curvatures W1, W2 replaced by their cell means, applied with a 2-D fast
sine transform (see ``_fst_preconditioner``).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .densities import (
    DensityPair,
    regularized_stress,
    regularizer,
    regularizer_second_deriv,
)
from .duality import stress
from .energy import EnergyOverflowError
from .grid import (
    CellField2,
    Grid,
    GridFunction,
    divergence_residual,
    gradient,
    zero_ring,
)

__all__ = [
    "NonConvexDetected",
    "ContinuationContractError",
    "SolveConfig",
    "DeltaRecord",
    "SolveReport",
    "minimize_J_delta",
    "continuation",
    "multi_start",
]

ARMIJO_FACTOR = 0.5
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
CURVATURE_FLOOR = -1e-10
# relative residual and iteration cap of each CG solve; with the
# fast-sine-transform preconditioner the largest count measured was 65
# Hessian products (step data at 256^2 down to delta = 1e-4)
CG_TOL = 1e-8
CG_MAXITER = 200


class NonConvexDetected(ArithmeticError):
    """A Hessian-vector product showed negative curvature beyond the floor."""


class ContinuationContractError(RuntimeError):
    """A monotonicity contract of the continuation run was violated."""


@dataclass
class SolveConfig:
    """Problem and solver parameters.

    ``u0`` is a full nodal field: its boundary ring is the Dirichlet data,
    its interior the initial guess.  ``delta_schedule`` must be strictly
    decreasing within (0, 1).  ``p_reg`` defaults to the power-growth
    exponent of f2 when that is at least 2, else to 2.
    """

    grid: Grid
    densities: DensityPair
    u0: GridFunction
    delta_schedule: Sequence[float]
    p_reg: Optional[float] = None
    tol_grad: float = 1e-10
    max_iter: int = 200
    seed: int = 0
    store_fields: bool = False

    def __post_init__(self):
        sched = tuple(float(x) for x in self.delta_schedule)
        if len(sched) == 0:
            raise ValueError("delta schedule must be nonempty")
        if any(not (0.0 < x < 1.0) for x in sched):
            raise ValueError(f"schedule values must lie in (0, 1): {sched}")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError(f"schedule must be strictly decreasing: {sched}")
        self.delta_schedule = sched
        if self.p_reg is None:
            p = getattr(self.densities.f2, "p", 2.0)
            self.p_reg = float(p) if p >= 2.0 else 2.0
        if self.p_reg < 2.0:
            raise ValueError(f"p_reg must be >= 2, got {self.p_reg}")
        if self.tol_grad <= 0.0:
            raise ValueError("tol_grad must be positive")
        if self.u0.grid != self.grid:
            raise ValueError("u0 grid does not match the config grid")
        # spot-check convexity of both densities
        probe = np.linspace(-100.0, 100.0, 41)
        if np.any(np.asarray(self.densities.f1.second_deriv(probe)) < -1e-12) or np.any(
            np.asarray(self.densities.f2.second_deriv(probe[probe != 0.0])) < -1e-12
        ):
            raise ValueError("densities must be convex")


@dataclass
class DeltaRecord:
    """Per-level continuation record."""

    delta: float
    j_value: float
    j_delta_value: float
    delta_term: float
    euler_residual_max: float
    iterations: int
    converged: bool
    flags: tuple = ()
    u: Optional[np.ndarray] = None


@dataclass
class SolveReport:
    records: list
    u_final: GridFunction
    stress_final: CellField2

    def to_dict(self) -> dict:
        return {
            "records": [
                {
                    "delta": r.delta,
                    "j_value": r.j_value,
                    "j_delta_value": r.j_delta_value,
                    "delta_term": r.delta_term,
                    "euler_residual_max": r.euler_residual_max,
                    "iterations": r.iterations,
                    "converged": r.converged,
                    "flags": list(r.flags),
                }
                for r in self.records
            ]
        }

    def write_records_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["delta", "j", "j_delta", "delta_term", "euler_residual", "iterations"]
            )
            for r in self.records:
                writer.writerow(
                    [
                        repr(r.delta),
                        repr(r.j_value),
                        repr(r.j_delta_value),
                        repr(r.delta_term),
                        repr(r.euler_residual_max),
                        r.iterations,
                    ]
                )


# ---------------------------------------------------------------------------
# inner Newton solver
# ---------------------------------------------------------------------------


class _DeltaProblem:
    """Energy, gradient, and Hessian products for one regularization level."""

    def __init__(self, grid: Grid, d: DensityPair, delta: float, p_reg: float):
        self.grid = grid
        self.d = d
        self.delta = delta
        self.p = p_reg
        self.area = grid.cell_area

    def split_energy(self, values: np.ndarray):
        """(j, delta_term, c1, c2) of a nodal field, raising
        EnergyOverflowError on a non-finite total."""
        c1, c2 = _kernels.cell_gradient(values, self.grid.h1, self.grid.h2)
        # overflow surfaces through the finiteness check below
        with np.errstate(over="ignore", invalid="ignore"):
            f1v = np.asarray(self.d.f1.eval(c1))
            f2v = np.asarray(self.d.f2.eval(c2))
            reg = regularizer(c1, self.p)
        j = self.area * (float(np.sum(f1v)) + float(np.sum(f2v)))
        delta_term = self.delta * self.area * float(np.sum(reg))
        if not math.isfinite(j + delta_term):
            raise EnergyOverflowError("non-finite energy during line search")
        return j, delta_term, c1, c2

    def residual(self, c1, c2) -> np.ndarray:
        """Energy gradient: the divergence residual of the regularized stress."""
        sigma1, _, tau2, _ = regularized_stress(self.d, c1, c2, self.delta, self.p)
        return divergence_residual(CellField2(self.grid, sigma1, tau2))

    def curvatures(self, c1, c2):
        reg2 = regularizer_second_deriv(c1, self.p)
        w1 = np.asarray(self.d.f1.second_deriv(c1)) + self.delta * reg2
        w2 = np.asarray(self.d.f2.second_deriv(c2))
        # superlinear curvature may vanish at isolated zeros (pure powers > 2)
        w2 = np.where(np.isfinite(w2), w2, 0.0)
        return w1, w2


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I along the last axis, y_k = 2 sum_i x_i sin(pi k i / n)
    with n = m + 1 for m entries, from the real FFT of the odd extension
    [0, x, 0, -x reversed].  Applied twice it is 2n times the identity."""
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    ext[..., 1 : m + 1] = x
    ext[..., m + 2 :] = -x[..., ::-1]
    return -np.fft.rfft(ext)[..., 1 : m + 1].imag


def _dst2_transposed(x: np.ndarray) -> np.ndarray:
    """2-D DST-I of x, returned transposed (each pass runs on the last axis)."""
    return _dst1(_dst1(x).T)


def _fst_preconditioner(w1: np.ndarray, w2: np.ndarray, h1: float, h2: float):
    """r -> z = Hbar^-1 r, the inverse of the Hessian with constant curvatures.

    On interior nodes with a zero ring, G1 = (D/h1) (x) A and G2 = A (x) (D/h2),
    where D takes forward differences and A averages neighbours, so with the
    cell means (wbar1, wbar2) of the curvatures

        Hbar = h1 h2 [wbar1 (D^T D / h1^2) (x) A^T A + wbar2 A^T A (x) (D^T D / h2^2)].

    D^T D = tridiag(-1, 2, -1) and A^T A = tridiag(1, 2, 1) / 4 share the sine
    eigenvectors sin(k pi i / n), k = 1 .. n-1, with eigenvalues 4 sin^2(t/2)
    and cos^2(t/2), t = k pi / n.  Hence Hbar = S Lambda S / (4 n1 n2), S the
    2-D DST-I (symmetric, S^2 = 4 n1 n2 I), with

        lambda(k1, k2) = h1 h2 [wbar1 4 sin^2(t1/2) / h1^2 cos^2(t2/2)
                                + wbar2 cos^2(t1/2) 4 sin^2(t2/2) / h2^2].

    The regularizer's curvature is at least p, so w1 >= delta p > 0, and
    w2 >= 0; every lambda is positive and the preconditioner is SPD even where
    w2 vanishes.  For constant curvatures it inverts the Hessian exactly.
    """
    n1, n2 = w1.shape
    t1 = np.arange(1, n1) * (math.pi / n1)
    t2 = np.arange(1, n2) * (math.pi / n2)
    wbar1 = float(np.mean(w1))
    wbar2 = float(np.mean(w2))
    lam = (h1 * h2) * (
        wbar1 * np.outer(4.0 * np.sin(0.5 * t1) ** 2 / h1**2, np.cos(0.5 * t2) ** 2)
        + wbar2 * np.outer(np.cos(0.5 * t1) ** 2, 4.0 * np.sin(0.5 * t2) ** 2 / h2**2)
    )
    # laid out like the transposed spectrum that _dst2_transposed returns
    scale_t = (1.0 / (4.0 * n1 * n2 * lam)).T

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.zeros_like(r)
        z[1:-1, 1:-1] = _dst2_transposed(_dst2_transposed(r[1:-1, 1:-1]) * scale_t)
        return z

    return apply


def _pcg(apply_h, b, precond):
    """Preconditioned CG on interior-supported nodal arrays, to relative
    residual CG_TOL within CG_MAXITER iterations.

    ``precond`` maps a residual r to z = M^-1 r with M symmetric positive
    definite and the ring of z zero (here ``_fst_preconditioner``).  Returns
    (x, converged); raises NonConvexDetected on negative curvature.
    """
    x = np.zeros_like(b)
    r = b.copy()
    b_norm = math.sqrt(float(np.sum(b * b)))
    if b_norm == 0.0:
        return x, True
    z = precond(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for _ in range(CG_MAXITER):
        hp = apply_h(p)
        php = float(np.sum(p * hp))
        pp = float(np.sum(p * p))
        if php < CURVATURE_FLOOR * pp:
            raise NonConvexDetected(
                f"negative curvature {php / max(pp, 1e-300):.3e} in CG"
            )
        if php <= 0.0:
            # flat direction: return current iterate, let the line search act
            return x, False
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        if math.sqrt(float(np.sum(r * r))) <= CG_TOL * b_norm:
            return x, True
        z = precond(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, False


def minimize_J_delta(
    cfg: SolveConfig, delta: float, warm_start: Optional[GridFunction] = None
):
    """Minimize the regularized energy at one level; returns (u, DeltaRecord).

    The Euler residual is the discrete weak divergence of the regularized
    stress, which coincides with the energy gradient by construction.
    Hitting the iteration cap or a stalled line search is reported through
    record flags (the best iterate is still returned); negative curvature
    raises NonConvexDetected.
    """
    grid = cfg.grid
    prob = _DeltaProblem(grid, cfg.densities, delta, cfg.p_reg)
    start = warm_start if warm_start is not None else cfg.u0
    values = start.values.copy()
    # re-impose the boundary data of the config
    ring = ~grid.interior_mask()
    values[ring] = cfg.u0.values[ring]

    flags = []
    steps = 0
    # (j, delta_term, c1, c2) of the current iterate, carried over from the
    # accepted line-search trial
    split = prob.split_energy(values)
    energy = split[0] + split[1]
    res_max = math.inf
    while steps < cfg.max_iter:
        _, _, c1, c2 = split
        g = prob.residual(c1, c2)
        res_max = float(np.max(np.abs(g)))
        if res_max <= cfg.tol_grad:
            break

        w1, w2 = prob.curvatures(c1, c2)
        precond = _fst_preconditioner(w1, w2, grid.h1, grid.h2)

        def apply_h(v):
            # looked up on the module at each call, so that a wrapped kernel
            # (perfbench/tracer.py) sees every product
            hv = _kernels.hessvec(v, w1, w2, grid.h1, grid.h2)
            return zero_ring(hv)

        d_dir, cg_ok = _pcg(apply_h, -g, precond)
        slope = float(np.sum(g * d_dir))
        if not cg_ok or slope >= 0.0:
            if "cg_fallback" not in flags:
                flags.append("cg_fallback")
            d_dir = -g
            slope = -float(np.sum(g * g))

        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = values + alpha * d_dir
            try:
                split_trial = prob.split_energy(trial)
            except ArithmeticError:
                alpha *= ARMIJO_FACTOR
                continue
            e_trial = split_trial[0] + split_trial[1]
            if e_trial <= energy + ARMIJO_SLOPE * alpha * slope:
                values = trial
                energy = e_trial
                split = split_trial
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if not accepted:
            flags.append("stalled")
            break
        steps += 1

    j, delta_term, c1, c2 = split
    if res_max > cfg.tol_grad and "stalled" not in flags:
        # the cap may have been hit right after an accepted step
        res_max = float(np.max(np.abs(prob.residual(c1, c2))))
        if res_max > cfg.tol_grad:
            flags.append("iteration_cap_exceeded")

    record = DeltaRecord(
        delta=delta,
        j_value=j,
        j_delta_value=j + delta_term,
        delta_term=delta_term,
        euler_residual_max=res_max,
        iterations=steps,
        converged=res_max <= cfg.tol_grad,
        flags=tuple(flags),
        u=values.copy() if cfg.store_fields else None,
    )
    u_out = GridFunction(grid, values, boundary_mask=ring)
    return u_out, record


def continuation(cfg: SolveConfig) -> SolveReport:
    """Warm-started sweep along the regularization schedule.

    Checks that the plain energy is nonincreasing along the schedule (slack
    1e-10 relative) and that the regularization term contracts at least by
    the schedule ratio times 1.1 between consecutive levels; violations
    raise ContinuationContractError.
    """
    records = []
    u = None
    for delta in cfg.delta_schedule:
        u, rec = minimize_J_delta(cfg, delta, warm_start=u)
        if rec.delta_term < delta * 4.0 * (1.0 - 1e-12):
            raise ContinuationContractError(
                "regularization term fell below its area lower bound"
            )
        if records:
            prev = records[-1]
            slack = 1e-10 * (1.0 + abs(prev.j_value))
            if rec.j_value > prev.j_value + slack:
                raise ContinuationContractError(
                    f"energy increased along the schedule at delta={delta:g}: "
                    f"{prev.j_value!r} -> {rec.j_value!r}"
                )
            ratio_cap = (rec.delta / prev.delta) * 1.1
            if rec.delta_term > prev.delta_term * ratio_cap:
                raise ContinuationContractError(
                    f"regularization term contracted too slowly at delta={delta:g}"
                )
        records.append(rec)

    stress_final, _, _ = stress(u, cfg.densities, cfg.delta_schedule[-1], cfg.p_reg)
    return SolveReport(records=records, u_final=u, stress_final=stress_final)


def multi_start(
    cfg: SolveConfig, n_starts: int, seeds: Optional[Sequence[int]] = None
) -> dict:
    """Uniqueness probe: rerun the continuation from seeded random interiors.

    Initial interiors are uniform on (-1, 1).  Returns the runs plus the
    maximum over interior cells (inset by 10% of each side) and start pairs
    of the 2-norm difference of the final discrete gradients.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    if seeds is None:
        seeds = [cfg.seed + k for k in range(n_starts)]
    if len(seeds) != n_starts:
        raise ValueError("seeds list length must equal n_starts")

    grid = cfg.grid
    reports = []
    grads = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        u_init = cfg.u0.copy()
        u_init.values[1:-1, 1:-1] = rng.uniform(
            -1.0, 1.0, size=(grid.n1 - 1, grid.n2 - 1)
        )
        run_cfg = replace(cfg, u0=u_init)
        report = continuation(run_cfg)
        reports.append(report)
        grads.append(gradient(report.u_final))

    xc, yc = grid.cell_centers()
    inset = 1.0 - 0.1 * 2.0
    mask = (np.abs(xc)[:, None] <= inset) & (np.abs(yc)[None, :] <= inset)
    worst = 0.0
    for a in range(n_starts):
        for b in range(a + 1, n_starts):
            d1 = grads[a].comp1 - grads[b].comp1
            d2 = grads[a].comp2 - grads[b].comp2
            norm = np.sqrt(d1 * d1 + d2 * d2)
            worst = max(worst, float(np.max(norm[mask])))
    return {"max_gradient_discrepancy": worst, "reports": reports, "seeds": list(seeds)}
