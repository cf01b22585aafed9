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
and one tridiagonal solve per sine mode along x1, each line eliminated from
both ends toward its middle node (see ``_line_preconditioner``, one
workspace per level, refactored in place at each Newton step).

A level holds nothing of a Newton step past that step.  Between steps it
keeps the iterate with its split energy and cell gradient, the padded buffer
and the workspace; within a step, the cell gradient, the residual, CG's
products and preconditioned residuals are each released at their last read.
So a level's heap peaks inside CG, at about 17 nodal arrays (see
``test_newton_level_peak_memory``).

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

Every inner product and squared norm of the solver, in CG, the line search
and the tie-break, is one reduction, ``_dot``: numpy's own einsum loop,
never BLAS.  A threaded BLAS ``ddot`` splits long vectors across its threads
and sums their parts in an order that depends on how many there are, so
the iterates, and every file written from them, would differ from one
machine to the next; with ``_dot`` they are the same bits whatever the
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .densities import (
    DensityPair,
    _positive_decreasing,
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
    _is_integer,
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


@dataclass(frozen=True)
class SolveConfig:
    """Problem and solver parameters, frozen once checked.

    ``u0`` is a full nodal field: its boundary ring is the Dirichlet data,
    its interior the initial guess.  ``delta_schedule`` must be strictly
    decreasing within (0, 1) (``_positive_decreasing``).  ``p_reg``
    defaults to the power-growth exponent of f2 when that is at least 2,
    else to 2, and must be finite and >= 2 (``_resolve_p_reg``, the rule of
    ``eval_J_delta``, ``stress`` and ``duality_gap`` too).  Both are stored
    as checked; ``dataclasses.replace`` checks a changed copy again.
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
        schedule = _positive_decreasing(self.delta_schedule, "delta schedule", upper=1.0)
        object.__setattr__(self, "delta_schedule", schedule)
        object.__setattr__(self, "p_reg", _resolve_p_reg(self.densities, self.p_reg))
        if not (math.isfinite(self.tol_grad) and self.tol_grad > 0.0):
            raise ValueError(f"tol_grad must be finite and positive, got {self.tol_grad}")
        if not (_is_integer(self.max_iter) and self.max_iter >= 0):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
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
    """Per-level continuation record.  With ``store_fields``, ``u`` is the
    read-only nodal array of the field the level returned, not a copy."""

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
        """Each record's fields but its stored field ``u``, flags as a list."""
        keys = [f.name for f in fields(DeltaRecord) if f.name != "u"]
        return {"records": [{**{k: getattr(r, k) for k in keys}, "flags": list(r.flags)}
                            for r in self.records]}

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
        # f2'' is +inf at 0 for a pure power 1 < p < 2; that point's curvature
        # is taken as 0 (for p > 2 it is a finite 0 already)
        w2 = np.where(np.isfinite(w2), w2, 0.0)
        return w1, w2


def _stacked(blocks):
    """(rows, block) for each of a sequence of arrays whose rows, stacked in
    order, make one array: ``rows`` is the slice of that array ``block``
    holds."""
    first = 0
    for block in blocks:
        yield slice(first, first + len(block)), block
        first += len(block)


def _dst1(
    x: Sequence[np.ndarray], ext: np.ndarray, out: Optional[Sequence[np.ndarray]] = None
):
    """Unnormalized DST-I along the last axis, y_k = sum_i x_i sin(pi k i / n)
    with n = m + 1 for m entries: minus the imaginary part of the real FFT of
    the zero-tailed row [0, x, 0, ..., 0] of length 2n.  Applied twice it is
    n/2 times the identity.  ``ext`` is the buffer of those rows, last axis
    2n and zero outside columns 1..m; only those columns are written, so one
    buffer serves every transform of one shape.  ``x`` is a sequence of
    arrays whose rows, stacked in order (``_stacked``), are the rows to
    transform, and ``out``, if given, one that the rows of y are written to
    in the same way; without it y is returned in a new array.  No temporary
    is made beyond the FFT's own."""
    n = ext.shape[-1] // 2
    for rows, block in _stacked(x):
        ext[rows, 1:n] = block
    y = np.fft.rfft(ext)[:, 1:n].imag
    if out is None:
        return np.negative(y)
    for rows, block in _stacked(out):
        np.negative(y[rows], out=block)


def _line_preconditioner(grid: Grid) -> SimpleNamespace:
    """Workspace of r -> z = M^-1 r on (n1-1) x (n2-1) interior arrays, M the
    Hessian with w1, w2 replaced by their x2-means a(x1), b(x1).  On interior
    nodes with a zero ring, G1 = (D/h1) (x) A and G2 = A (x) (D/h2), D forward
    differences and A neighbour averages, so

        M = h1 h2 [K1(a) (x) A^T A + A^T diag(b) A (x) D^T D / h2^2],
        K1(a) = D^T diag(a) D / h1^2.

    A^T A = tridiag(1, 2, 1) / 4 and D^T D = tridiag(-1, 2, -1) have the sine
    eigenvectors, eigenvalues cos^2(t/2) and 4 sin^2(t/2), t = k pi / n2, so
    the DST-I S along x2 (S^2 = (n2/2) I) gives M^-1 r = [T^-1 (r S)] S / (n2/2)
    with T_k = h1 h2 [cos^2(t/2) K1(a) + 4 sin^2(t/2) / h2^2 A^T diag(b) A]
    tridiagonal in x1 for each mode k (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970); n2/2 is folded into a and b.  Since a >= delta p > 0 (the
    regularizer) and b >= 0, every T_k is SPD; where w1 and w2 vary only in
    x1, M is the Hessian.

    All T_k are factored at once, each line of N = n1 - 1 nodes from both
    ends toward its middle node h = floor(N / 2) (van der Vorst's "burn at
    both ends", Parallel Comput. 5, 1987; a twisted factorization in
    Meurant's terms, SIAM J. Matrix Anal. Appl. 13, 1992): T_k = L D L^T
    with L unit lower bidiagonal above the middle node and unit upper
    bidiagonal below it.  The h nodes on each side of the middle are paired
    by their distance from it.  The workspace arrays hold each pair in one
    (2, n2-1) block, the top node first, and the middle node in a last row,
    so every numpy call of the factor and of both sweeps steps both ends of
    every line at once: about N / 2 steps where a one-ended elimination
    takes N - 1.  Every pivot is positive because T_k is SPD: the top end's
    are ratios of leading principal minors, the bottom end's of trailing
    ones, and the middle one is 1 / (T_k^-1)_hh.  When N is even the bottom
    end is one node short, and an identity row coupled to nothing pads it.
    No DST and no diagonal or off-diagonal of ``factor`` is written to its
    rows, so its right side and off-diagonal in y stay 0 and its D^-1 stays
    1; its multiplier in L is 0, and the sweeps leave its row of y at 0.

    One workspace serves one ``minimize_J_delta`` level.  It allocates the
    sine tables, the zero-tailed buffer of the DSTs, the sweep array y and
    the factors L and D^-1 once; ``factor(w1, w2)`` refactors them in place
    at each Newton step, with T's off-diagonal held in y until the next
    apply overwrites it, and ``apply(r)`` returns a new array.  The first DST
    of an apply writes r S straight into y and the second reads y, both
    through the same two strided blocks of rows that put y in x1 order.
    """
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    t2 = np.arange(1, n2) * (math.pi / n2)
    cos2, sin2 = np.cos(0.5 * t2) ** 2, 4.0 * np.sin(0.5 * t2) ** 2 / h2**2
    h = (n1 - 1) // 2
    ext = np.zeros((n1 - 1, 2 * n2))
    # row 2i holds the node i from the top, row 2i + 1 the node i from the
    # bottom, and the last row the middle node h; when n1 - 1 is even, node
    # 0 from the bottom is the pad, which keeps the 0 and 1 it starts with
    y = np.zeros((2 * h + 1, n2 - 1))
    inv_diag = np.ones_like(y)
    lower = np.empty((h, 2, n2 - 1))
    mid, d_mid = y[-1], inv_diag[-1]

    def in_x1_order(rows):
        # nodes 0..h, then nodes h + 1..n1 - 2 (the pad left out)
        return rows[0::2], rows[-2::-2][: n1 - 2 - h]

    y_x1, d_x1 = in_x1_order(y), in_x1_order(inv_diag)
    # T's off-diagonal j couples nodes j and j + 1, and is held in the row of
    # whichever of the two lies farther from the middle
    off_x1 = (y_x1[0][:-1], y_x1[1])
    # one view per row pair, shared by the factor's loop and the sweeps
    y_pairs, d_pairs = (list(a[:-1].reshape(lower.shape)) for a in (y, inv_diag))
    low_pairs = list(lower)
    factor_rows = list(zip(y_pairs, d_pairs, low_pairs, d_pairs[1:]))
    sweep_rows = list(zip(y_pairs[1:], low_pairs, y_pairs))
    # both ends step into the middle node last, one after the other; a line
    # of one node has no ends
    for o, d, low in zip(y_pairs[-1:], d_pairs[-1:], low_pairs[-1:]):
        factor_rows += zip(o, d, low, (d_mid, d_mid))
        sweep_rows += zip((mid, mid), low, o)

    def factor(w1: np.ndarray, w2: np.ndarray) -> None:
        a = (0.5 * n2 * h2 / h1) * np.mean(w1, axis=1)
        b = (0.125 * n2 * h1 * h2) * np.mean(w2, axis=1)
        # interior node j along x1 lies between cells j and j + 1
        diag = np.multiply.outer(a[:-1] + a[1:], cos2)
        diag += np.outer(b[:-1] + b[1:], sin2)
        off = np.multiply.outer(-a[1:-1], cos2)
        off += np.outer(b[1:-1], sin2)
        for rows, block in _stacked(d_x1):
            block[...] = diag[rows]
        for rows, block in _stacked(off_x1):
            block[...] = off[rows]
        # the diagonal is eliminated in the buffer of its inverse
        for o, d, low, d_next in factor_rows:
            np.divide(o, d, out=low)
            d_next -= low * o
        np.divide(1.0, inv_diag, out=inv_diag)

    def apply(r: np.ndarray) -> np.ndarray:
        _dst1([r], ext, out=y_x1)
        for row, low, prev in sweep_rows:
            row -= low * prev
        y[...] *= inv_diag
        for prev, low, row in reversed(sweep_rows):
            row -= low * prev
        return _dst1(y_x1, ext)

    return SimpleNamespace(factor=factor, apply=apply)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product of two arrays of one 2-D shape, summed in an order that
    no thread count changes (see the module docstring).  ``optimize`` stays
    False: the optimized path may hand the contraction to BLAS."""
    return float(np.einsum("ij,ij->", x, y))


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
    Its inner products are ``_dot``'s (see the module docstring).  The
    search direction is updated in place, and ||p||^2 is formed only
    when p^T H p <= 0, since the curvature floor below is negative.

    Between iterations only x, r and p are kept: the product H p is released
    once r is updated, and z = M^-1 r once p is updated (the first p is the
    first z's array), so neither is alive while the next one is formed.

    The curvature floor is needed: H = G^T W G is positive semidefinite only
    where W >= 0 at every cell gradient.  The built-in densities have
    W >= 0 by their closed-form curvatures, but a spec passed in through the
    Python API need not: ``SolveConfig`` spot-checks curvature at 41 points
    of [-100, 100] only, so a density that is non-convex between them
    reaches this solve.
    """
    x = np.zeros_like(b)
    r = b.copy()
    if math.sqrt(_dot(b, b)) <= tol:
        return x, True
    p = precond(r)
    rz = _dot(r, p)
    for _ in range(CG_MAXITER):
        hp = apply_h(p)
        php = _dot(p, hp)
        if php <= 0.0:
            pp = _dot(p, p)
            if php < CURVATURE_FLOOR * pp:
                raise NonConvexDetected(
                    f"negative curvature {php / max(pp, 1e-300):.3e} in CG"
                )
            # flat direction: return current iterate, let the line search act
            return x, False
        alpha = rz / php
        x += alpha * p
        r -= alpha * hp
        del hp
        if math.sqrt(_dot(r, r)) <= tol:
            return x, True
        z = precond(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        del z
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
    raises NonConvexDetected.  A delta outside (0, 1), the schedule's rule,
    and a warm start off the config grid raise ValueError before any array
    work.
    """
    _positive_decreasing((delta,), "delta", upper=1.0)
    if warm_start is not None and warm_start.grid != cfg.grid:
        raise ValueError("warm_start grid does not match the config grid")
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
    # the iterate's split energy and cell gradient; after the first, each is
    # the accepted line-search trial's, and so is its residual g when the
    # rounding tie-break formed it (else None)
    j, delta_term, c1, c2 = prob.split_energy(values)
    energy = j + delta_term
    g_norm_prev = None
    g = None
    while True:
        if g is None:
            g = prob.residual(c1, c2)
        res_max = float(np.max(np.abs(g)))
        if res_max <= cfg.tol_grad:
            break
        if steps >= cfg.max_iter:
            flags.append("iteration_cap_exceeded")
            break
        g_sq = _dot(g, g)
        g_norm = math.sqrt(g_sq)
        eta = _forcing_term(g_norm, g_norm_prev)
        g_norm_prev = g_norm

        # the curvatures w1, w2; once factor has read their means they are
        # scaled in place into hessvec's weights
        k1, k2 = prob.curvatures(c1, c2)
        del c1, c2
        precond.factor(k1, k2)
        k1 *= 0.25 * grid.h2 / grid.h1
        k2 *= 0.25 * grid.h1 / grid.h2
        minus_g = -g[1:-1, 1:-1]
        del g
        cg_tol = max(eta * g_norm, FORCING_FLOOR * cfg.tol_grad)
        d_dir, cg_ok = _pcg(apply_h, minus_g, precond.apply, cg_tol)
        slope = -_dot(minus_g, d_dir)
        if not cg_ok or slope >= 0.0:
            if "cg_fallback" not in flags:
                flags.append("cg_fallback")
            d_dir = minus_g
            slope = -g_sq

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
            g_trial = None
            if not descent and abs(e_trial - energy) <= ROUNDING_REL * (1.0 + abs(energy)):
                # a tie to rounding (module docstring): compare ||g||_2
                g_trial = prob.residual(split_trial[2], split_trial[3])
                descent = math.sqrt(_dot(g_trial, g_trial)) < g_norm
            if descent:
                values = trial
                energy = e_trial
                j, delta_term, c1, c2 = split_trial
                g = g_trial
                accepted = True
                break
            alpha *= ARMIJO_FACTOR
        if not accepted:
            flags.append("stalled")
            break
        steps += 1
        # nothing of this step outlives it but the accepted iterate, its
        # split energy, its cell gradient and the tie-break's residual
        k1 = k2 = minus_g = d_dir = trial = split_trial = g_trial = None

    u = GridFunction(grid, values)
    record = DeltaRecord(
        delta=delta,
        j_value=j,
        j_delta_value=j + delta_term,
        delta_term=delta_term,
        euler_residual_max=res_max,
        iterations=steps,
        converged=res_max <= cfg.tol_grad,
        flags=tuple(flags),
        u=u.values if cfg.store_fields else None,
    )
    return u, record


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


def multi_start(cfg: SolveConfig, n_starts: int) -> dict:
    """Uniqueness probe: rerun the continuation from seeded random interiors.

    Initial interiors are uniform on (-1, 1), drawn with the seeds 0, ...,
    n_starts - 1.  Returns the runs and their seeds plus the maximum over
    interior cells (``_inset_mask``'s default window) and start pairs of
    the 2-norm difference of the final discrete gradients.  ``n_starts``
    must be an integer >= 2.
    """
    if not (_is_integer(n_starts) and n_starts >= 2):
        raise ValueError(f"need at least 2 starts, got {n_starts}")
    seeds = range(n_starts)

    grid = cfg.grid
    reports = []
    grads = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        values = cfg.u0.values.copy()
        values[1:-1, 1:-1] = rng.uniform(-1.0, 1.0, size=(grid.n1 - 1, grid.n2 - 1))
        run_cfg = replace(cfg, u0=GridFunction(grid, values))
        report = continuation(run_cfg)
        reports.append(report)
        grads.append(gradient(report.u_final))

    mask = _inset_mask(grid)
    worst = 0.0
    for a in range(n_starts):
        for b in range(a + 1, n_starts):
            d1 = grads[a].comp1 - grads[b].comp1
            d2 = grads[a].comp2 - grads[b].comp2
            norm = np.sqrt(d1 * d1 + d2 * d2)
            worst = max(worst, float(np.max(norm[mask])))
    return {"max_gradient_discrepancy": worst, "reports": reports, "seeds": list(seeds)}
