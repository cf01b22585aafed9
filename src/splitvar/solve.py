"""Damped inexact Newton solver for the regularized split energy, with
warm-started continuation along a decreasing regularization schedule and a
seeded multi-start uniqueness probe.

Unknowns are the interior nodal values; the boundary ring carries the
Dirichlet data.  Newton directions come from a conjugate-gradient solve on
the (matrix-free) discrete Hessian H = h1 h2 (G1^T W1 G1 + G2^T W2 G2),
with steepest descent as fallback and Armijo backtracking for global
descent.  CG works on (n1-1) x (n2-1) arrays of interior values: each
product copies its vector into the interior of one zero-ringed nodal buffer
per level, and ``_kernels.hessvec`` returns the interior of H v.  CG is
preconditioned by the exact inverse of H with the curvatures W1, W2
replaced by their means across x2, applied with a sine transform along x2
and one tridiagonal solve per sine mode along x1 (see
``_line_preconditioner``, one workspace per level, refactored in place at
each Newton step).

The Newton method is inexact (Dembo, Eisenstat & Steihaug, SIAM J. Numer.
Anal. 19, 1982): step k stops CG once the linear residual of its direction d
has ||H d + g_k||_2 <= max(eta_k ||g_k||_2, FORCING_FLOOR tol_grad).  The
forcing term eta_k is Eisenstat & Walker's choice 2 (SIAM J. Sci. Comput.
17, 1996), restarted on each level: eta_0 = FORCING_MAX = 0.1 and

    eta_k = min(FORCING_MAX, FORCING_GAMMA (||g_k|| / ||g_{k-1}||)^2),

with FORCING_GAMMA = 0.9.  EW's safeguard, which raises eta_k to
FORCING_GAMMA eta_{k-1}^2 whenever that exceeds 0.1, is omitted: with
eta_{k-1} <= FORCING_MAX = 0.1 it is at most 0.009 and never binds.  Early
steps, far from the minimizer, solve loosely; near it eta_k shrinks with the
square of the residual ratio, which keeps the local convergence quadratic.
The floor FORCING_FLOOR tol_grad (0.1 tol_grad) ends over-solving on the
last step and suffices to converge: max|r| <= ||r||_2, so the linear model
of the accepted step meets tol_grad with a factor of ten to spare.

Near a minimizer trial energies can differ from E by rounding only, and the
Armijo test then ranks steps by noise.  A trial that fails it with
|E_trial - E| <= ROUNDING_REL (1 + |E|) is accepted if it decreases ||g||_2,
Deuflhard's natural monotonicity test (Newton Methods for Nonlinear
Problems, 2004, section 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .densities import (
    DensityPair,
    _resolve_p_reg,
    regularized_stress,
    regularizer_second_deriv,
)
from .energy import _cell_sums
from .grid import (
    CellField2,
    Grid,
    GridFunction,
    _inset_mask,
    divergence_residual,
    gradient,
    write_csv,
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
# iteration cap of each CG solve; with the line preconditioner and the
# forcing terms below, the largest solve measured took 34 Hessian products
# (step data at 512^2 down to delta = 1e-4; 21 at 256^2)
CG_MAXITER = 200
# Eisenstat-Walker choice 2 forcing terms, and the floor of each CG
# tolerance as a fraction of tol_grad (see the module docstring)
FORCING_MAX = 0.1
FORCING_GAMMA = 0.9
FORCING_FLOOR = 0.1
# rounding allowance of continuation's contracts and the line search, relative
# to the energies; pairwise cell sums over 1e6 cells round below 1e-14
ROUNDING_REL = 1e-12


class NonConvexDetected(ArithmeticError):
    """A Hessian-vector product showed negative curvature beyond the floor."""


class ContinuationContractError(RuntimeError):
    """A continuation level did not converge, or two levels broke the
    schedule bound derived in ``continuation``."""


@dataclass
class SolveConfig:
    """Problem and solver parameters.

    ``u0`` is a full nodal field: its boundary ring is the Dirichlet data,
    its interior the initial guess.  ``delta_schedule`` must be strictly
    decreasing within (0, 1).  ``p_reg`` defaults to the power-growth
    exponent of f2 when that is at least 2, else to 2; ``duality_gap``
    resolves its default by the same helper.
    """

    grid: Grid
    densities: DensityPair
    u0: GridFunction
    delta_schedule: Sequence[float]
    p_reg: Optional[float] = None
    tol_grad: float = 1e-10
    max_iter: int = 200
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
        self.p_reg = _resolve_p_reg(self.densities, self.p_reg)
        if not (math.isfinite(self.p_reg) and self.p_reg >= 2.0):
            raise ValueError(f"p_reg must be finite and >= 2, got {self.p_reg}")
        if not (math.isfinite(self.tol_grad) and self.tol_grad > 0.0):
            raise ValueError(f"tol_grad must be finite and positive, got {self.tol_grad}")
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
        header = ["delta", "j", "j_delta", "delta_term", "euler_residual", "iterations"]
        rows = [
            (r.delta, r.j_value, r.j_delta_value, r.delta_term, r.euler_residual_max,
             r.iterations)
            for r in self.records
        ]
        write_csv(path, header, list(zip(*rows)))


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

    def split_energy(self, values: np.ndarray):
        """(j, delta_term, c1, c2) of a nodal field, summed by the certificates'
        ``energy._cell_sums``; raises EnergyOverflowError on a non-finite
        energy."""
        c1, c2 = _kernels.cell_gradient(values, self.grid.h1, self.grid.h2)
        j1, j2, i_reg = _cell_sums(CellField2(self.grid, c1, c2), self.d, self.p)
        return j1 + j2, self.delta * i_reg, c1, c2

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


def _dst1(x: np.ndarray, ext: np.ndarray, neg_out: Optional[np.ndarray] = None):
    """Unnormalized DST-I along the last axis, y_k = 2 sum_i x_i sin(pi k i / n)
    with n = m + 1 for m entries, from the real FFT of the odd extension
    [0, x, 0, -x reversed].  Applied twice it is 2n times the identity.
    ``ext`` is the buffer of the extension: last axis 2m + 2, zero in columns
    0 and m + 1, so that one buffer serves every transform of one shape.
    Returns a new array, or with ``neg_out`` writes -y there, with no
    temporary beyond the FFT's own, and returns ``neg_out``."""
    m = x.shape[-1]
    ext[..., 1 : m + 1] = x
    np.negative(x[..., ::-1], out=ext[..., m + 2 :])
    neg_y = np.fft.rfft(ext)[..., 1 : m + 1].imag
    if neg_out is None:
        return -neg_y
    neg_out[...] = neg_y
    return neg_out


def _line_preconditioner(grid: Grid) -> SimpleNamespace:
    """Workspace of r -> z = M^-1 r on (n1-1) x (n2-1) interior arrays, M the
    Hessian with w1, w2 replaced by their x2-means a(x1), b(x1).  On interior
    nodes with a zero ring, G1 = (D/h1) (x) A and G2 = A (x) (D/h2), D forward
    differences and A neighbour averages, so

        M = h1 h2 [K1(a) (x) A^T A + A^T diag(b) A (x) D^T D / h2^2],
        K1(a) = D^T diag(a) D / h1^2.

    A^T A = tridiag(1, 2, 1) / 4 and D^T D = tridiag(-1, 2, -1) have the sine
    eigenvectors, eigenvalues cos^2(t/2) and 4 sin^2(t/2), t = k pi / n2, so
    the DST-I S along x2 (S^2 = 2 n2 I) gives M^-1 r = [T^-1 (r S)] S / (2 n2)
    with T_k = h1 h2 [cos^2(t/2) K1(a) + 4 sin^2(t/2) / h2^2 A^T diag(b) A]
    tridiagonal in x1 for each mode k (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970).  All T_k are factored as L D L^T at once, with 2 n2 folded
    into a and b; an apply is a DST, a forward and a backward sweep, a DST,
    and both DSTs share one odd-extension buffer.  Since a >= delta p > 0
    (the regularizer) and b >= 0, every T_k is SPD; where w1 and w2 vary only
    in x1, M is the Hessian.

    One workspace serves one ``minimize_J_delta`` level.  It allocates the
    sine tables, the extension buffer, the sweep array y and the factors L
    and D^-1 once; ``factor(w1, w2)`` refactors them in place at each Newton
    step, with T's off-diagonal held in y until the next apply overwrites
    it, and ``apply(r)`` returns a new array.  The first DST of an apply
    writes -(r S) straight into y, and the factor stores -D^-1 in place of
    D^-1.  Negation commutes with rounding, so the two sign flips cancel
    exactly and z is bitwise the unfolded product.
    """
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    t2 = np.arange(1, n2) * (math.pi / n2)
    cos2, sin2 = np.cos(0.5 * t2) ** 2, 4.0 * np.sin(0.5 * t2) ** 2 / h2**2
    ext = np.zeros((n1 - 1, 2 * n2))
    y = np.empty((n1 - 1, n2 - 1))
    lower = np.empty((n1 - 2, n2 - 1))
    inv_diag = np.empty_like(y)
    off = y[:-1]
    # one view per row, shared by the factor's loop and the sweeps
    y_rows, low_rows, d_rows = list(y), list(lower), list(inv_diag)
    factor_rows = list(zip(y_rows, d_rows, low_rows, d_rows[1:]))
    sweep_rows = list(zip(y_rows[1:], low_rows, y_rows))

    def factor(w1: np.ndarray, w2: np.ndarray) -> None:
        a = (2.0 * n2 * h2 / h1) * np.mean(w1, axis=1)
        b = (0.5 * n2 * h1 * h2) * np.mean(w2, axis=1)
        # interior node m along x1 lies between cells m and m + 1; the
        # diagonal is eliminated in the buffer of its inverse
        diag = np.multiply.outer(a[:-1] + a[1:], cos2, out=inv_diag)
        diag += np.outer(b[:-1] + b[1:], sin2)
        np.multiply.outer(-a[1:-1], cos2, out=off)
        off[...] += np.outer(b[1:-1], sin2)
        for o, d, low, d_next in factor_rows:
            np.divide(o, d, out=low)
            d_next -= low * o
        np.divide(-1.0, diag, out=inv_diag)

    def apply(r: np.ndarray) -> np.ndarray:
        _dst1(r, ext, neg_out=y)
        for row, low, prev in sweep_rows:
            row -= low * prev
        y[...] *= inv_diag
        for prev, low, row in reversed(sweep_rows):
            row -= low * prev
        return _dst1(y, ext)

    return SimpleNamespace(factor=factor, apply=apply)


def _pcg(apply_h, b, precond, tol):
    """Preconditioned CG on interior arrays, from x = 0 to the first iterate
    whose residual b - H x has 2-norm at most ``tol``, within CG_MAXITER
    iterations.

    ``tol`` is absolute; the Newton loop passes the inexact-Newton tolerance
    max(eta_k ||g_k||_2, FORCING_FLOOR tol_grad) of the module docstring, so
    the linear solve is only as accurate as the outer Newton step needs.
    ``precond`` maps a residual r to a new array z = M^-1 r with M symmetric
    positive definite (here the ``apply`` of ``_line_preconditioner``).
    Returns (x, converged); raises NonConvexDetected on negative curvature.
    The search direction is updated in place, and ||p||^2 is formed only
    when p^T H p <= 0, since the curvature floor below is negative.

    The curvature floor is needed: H = G^T W G is positive semidefinite only
    where W >= 0 at every cell gradient.  The built-in densities have
    W >= 0 by their closed-form curvatures, but a spec passed in through the
    Python API need not: ``SolveConfig`` spot-checks curvature at 41 points
    of [-100, 100] only, so a density that is non-convex between them
    reaches this solve.
    """
    x = np.zeros_like(b)
    r = b.copy()
    if math.sqrt(float(np.vdot(b, b))) <= tol:
        return x, True
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    for _ in range(CG_MAXITER):
        hp = apply_h(p)
        php = float(np.vdot(p, hp))
        if php <= 0.0:
            pp = float(np.vdot(p, p))
            if php < CURVATURE_FLOOR * pp:
                raise NonConvexDetected(
                    f"negative curvature {php / max(pp, 1e-300):.3e} in CG"
                )
            # flat direction: return current iterate, let the line search act
            return x, False
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        if math.sqrt(float(np.vdot(r, r))) <= tol:
            return x, True
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, False


def _forcing_term(g_norm, g_norm_prev):
    """Eisenstat-Walker choice 2 forcing term of a Newton step from the
    gradient 2-norms of this step and the previous one (None on the first
    step of a level), without the safeguard (see the module docstring)."""
    if g_norm_prev is None:
        return FORCING_MAX
    return min(FORCING_MAX, FORCING_GAMMA * (g_norm / g_norm_prev) ** 2)


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
    # the ring carries the Dirichlet data of the config, the interior the start
    values = cfg.u0.values.copy()
    values[1:-1, 1:-1] = start.values[1:-1, 1:-1]

    precond = _line_preconditioner(grid)
    # CG's vectors are interior arrays; the ring of this buffer stays zero
    padded = np.zeros(grid.node_shape)

    def apply_h(v):
        padded[1:-1, 1:-1] = v
        # k1, k2 are the current Newton step's; hessvec is looked up on the
        # module at each call, so that a wrapped kernel (perfbench/tracer.py)
        # sees every product
        return _kernels.hessvec(padded, k1, k2)

    flags = []
    steps = 0
    # (j, delta_term, c1, c2) of the current iterate, carried over from the
    # accepted line-search trial
    split = prob.split_energy(values)
    energy = split[0] + split[1]
    g_norm_prev = None
    while True:
        _, _, c1, c2 = split
        g = prob.residual(c1, c2)
        res_max = float(np.max(np.abs(g)))
        if res_max <= cfg.tol_grad:
            break
        if steps >= cfg.max_iter:
            flags.append("iteration_cap_exceeded")
            break
        g_norm = math.sqrt(float(np.sum(g * g)))
        eta = _forcing_term(g_norm, g_norm_prev)
        g_norm_prev = g_norm

        w1, w2 = prob.curvatures(c1, c2)
        precond.factor(w1, w2)
        # hessvec's weights, scaled in place once factor has read the means
        k1 = np.multiply(w1, 0.25 * grid.h2 / grid.h1, out=w1)
        k2 = np.multiply(w2, 0.25 * grid.h1 / grid.h2, out=w2)
        minus_g = -g[1:-1, 1:-1]
        cg_tol = max(eta * g_norm, FORCING_FLOOR * cfg.tol_grad)
        # release the last step's direction before CG allocates its vectors
        d_dir = None
        d_dir, cg_ok = _pcg(apply_h, minus_g, precond.apply, cg_tol)
        slope = -float(np.vdot(minus_g, d_dir))
        if not cg_ok or slope >= 0.0:
            if "cg_fallback" not in flags:
                flags.append("cg_fallback")
            d_dir = minus_g
            slope = -float(np.sum(g * g))

        alpha = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = values.copy()
            trial[1:-1, 1:-1] += alpha * d_dir
            try:
                split_trial = prob.split_energy(trial)
            except ArithmeticError:
                alpha *= ARMIJO_FACTOR
                continue
            e_trial = split_trial[0] + split_trial[1]
            descent = e_trial <= energy + ARMIJO_SLOPE * alpha * slope
            if not descent and abs(e_trial - energy) <= ROUNDING_REL * (1.0 + abs(energy)):
                # a tie to rounding (module docstring): compare ||g||_2
                g_trial = prob.residual(split_trial[2], split_trial[3])
                descent = math.sqrt(float(np.sum(g_trial * g_trial))) < g_norm
            if descent:
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

    j, delta_term, _, _ = split
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
    return GridFunction(grid, values), record


def continuation(cfg: SolveConfig) -> SolveReport:
    """Warm-started sweep along the regularization schedule.

    Each level must converge (Euler residual at most tol_grad; a level
    flagged ``iteration_cap_exceeded`` or ``stalled`` does not), and each
    pair of consecutive levels must satisfy the two-sided schedule bound
    below; a violation raises ContinuationContractError.

    Let u, u' be the iterates at delta > delta', J, J' their split energies
    and I, I' their regularizer integrals (delta_term = delta I).  J_delta is
    convex in the interior nodal values, and all iterates share the boundary
    ring, so an iterate u with Euler residual g (the gradient of J_delta at
    u) satisfies, for every v with the same ring,

        J_delta(v) >= J_delta(u) + <g, v - u> >= J_delta(u) - max|g| ||v - u||_1.

    On converged levels max|g| <= tol_grad.  Applying this at delta from u to
    v = u', and at delta' from u' to v = u, gives with s = tol_grad ||u' - u||_1

        J + delta I <= J' + delta I' + s,    J' + delta' I' <= J + delta' I + s,

    that is

        delta' (I' - I) - s <= J - J' <= delta (I' - I) + s.

    For exact minimizers (s = 0) this says I' >= I and J' <= J: the plain
    energy does not increase and the regularizer integral does not decrease
    as delta shrinks; with slack, the two ends meet only if
    (delta - delta') (I' - I) >= -2 s.  The check adds ROUNDING_REL times the
    size of the energies to s for the rounding of their cell sums.  Since
    rho_p >= 1 and the domain has area 4, also I >= 4.
    """
    records = []
    u = None
    for delta in cfg.delta_schedule:
        u_prev = u
        u, rec = minimize_J_delta(cfg, delta, warm_start=u)
        if not rec.converged:
            raise ContinuationContractError(
                f"level delta={delta:g} did not converge (flags {list(rec.flags)}): "
                f"Euler residual {rec.euler_residual_max!r} > tol_grad {cfg.tol_grad!r}"
            )
        if rec.delta_term < delta * 4.0 * (1.0 - ROUNDING_REL):
            raise ContinuationContractError(
                "regularization term fell below its area lower bound"
            )
        if records:
            prev = records[-1]
            i_prev, i_next = prev.delta_term / prev.delta, rec.delta_term / delta
            size = 1.0 + abs(prev.j_value) + abs(rec.j_value)
            size += prev.delta * max(i_prev, i_next)
            slack = cfg.tol_grad * float(np.sum(np.abs(u.values - u_prev.values)))
            slack += ROUNDING_REL * size
            drop = prev.j_value - rec.j_value
            lo = delta * (i_next - i_prev) - slack
            hi = prev.delta * (i_next - i_prev) + slack
            if not lo <= drop <= hi:
                raise ContinuationContractError(
                    f"schedule bound violated at delta={delta:g}: "
                    f"J - J' = {drop!r} outside [{lo!r}, {hi!r}]"
                )
        records.append(rec)
    return SolveReport(records=records, u_final=u)


def multi_start(
    cfg: SolveConfig, n_starts: int, seeds: Optional[Sequence[int]] = None
) -> dict:
    """Uniqueness probe: rerun the continuation from seeded random interiors.

    Initial interiors are uniform on (-1, 1), drawn with ``seeds`` (by
    default 0, ..., n_starts - 1).  Returns the runs plus the
    maximum over interior cells (inset by 10% of each side) and start pairs
    of the 2-norm difference of the final discrete gradients.
    """
    if n_starts < 2:
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    if seeds is None:
        seeds = range(n_starts)
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

    mask = _inset_mask(grid, 0.1)
    worst = 0.0
    for a in range(n_starts):
        for b in range(a + 1, n_starts):
            d1 = grads[a].comp1 - grads[b].comp1
            d2 = grads[a].comp2 - grads[b].comp2
            norm = np.sqrt(d1 * d1 + d2 * d2)
            worst = max(worst, float(np.max(norm[mask])))
    return {"max_gradient_discrepancy": worst, "reports": reports, "seeds": list(seeds)}
