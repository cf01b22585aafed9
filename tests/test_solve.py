import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import splitvar
from splitvar import _kernels, solve
from splitvar import (
    ContinuationContractError,
    Grid,
    GridFunction,
    NonConvexDetected,
    SolveConfig,
    continuation,
    divergence_residual,
    eval_J_delta,
    gradient,
    minimize_J_delta,
    multi_start,
    stress,
)
from tests.conftest import affine_field

AFFINE_J = 20.0 - 8.0 * math.sqrt(3.0)  # 4*(Phi_1.5(2) + f2(-1)) in closed form


def tanh_config(pair, n=16, **kw):
    g = Grid(n, n)
    u0 = GridFunction.from_callable(g, lambda x, y: np.tanh(3.0 * x) + 0.2 * y)
    return SolveConfig(
        grid=g, densities=pair, u0=u0, delta_schedule=[1e-1, 1e-2, 1e-3], **kw
    )


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_schedule_validation(pair_std):
    g = Grid(4, 4)
    u0 = affine_field(g, 1.0, 0.0)

    def build(schedule):
        return SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=schedule)

    with pytest.raises(ValueError):
        build([])
    with pytest.raises(ValueError):
        build([1e-1, 1e-1])
    with pytest.raises(ValueError):
        build([1e-2, 1e-1])
    with pytest.raises(ValueError):
        build([1.5])
    with pytest.raises(ValueError):
        build([0.0])


def test_config_p_reg_and_tol_validation(pair_std):
    g = Grid(4, 4)
    u0 = affine_field(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1], p_reg=1.5)
    with pytest.raises(ValueError):
        SolveConfig(
            grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1], tol_grad=0.0
        )


@pytest.mark.parametrize("max_iter", [-1, 2.0, 2.5, "3", None, True, False])
def test_config_rejects_max_iter_not_a_count(pair_std, max_iter):
    # a cap below 0 is a bad input, not a level that failed to converge
    g = Grid(4, 4)
    u0 = affine_field(g, 1.0, 0.0)
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1],
                    max_iter=max_iter)


def test_config_accepts_numpy_integer_max_iter(pair_std):
    g = Grid(4, 4)
    cfg = SolveConfig(grid=g, densities=pair_std, u0=affine_field(g, 1.0, 0.0),
                      delta_schedule=[1e-1], max_iter=np.int64(3))
    assert cfg.max_iter == 3


@pytest.mark.parametrize(
    "setting", [{"p_reg": math.nan}, {"p_reg": math.inf}, {"tol_grad": math.nan},
                {"tol_grad": math.inf}],
    ids=["p_reg_nan", "p_reg_inf", "tol_grad_nan", "tol_grad_inf"],
)
def test_config_rejects_non_finite_settings(pair_std, setting):
    # NaN passes a plain "p_reg < 2" or "tol_grad <= 0" test
    g = Grid(4, 4)
    u0 = affine_field(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1], **setting)
    # a config stays as checked: no assignment, and a changed copy is checked
    cfg = SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1])
    (name, value), = setting.items()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, value)
    with pytest.raises(ValueError):
        dataclasses.replace(cfg, **setting)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.5, 0.0, 1.0, 2.0])
def test_minimize_rejects_a_level_delta_outside_the_schedule_rule(pair_std, delta, monkeypatch):
    # a level's delta lies in (0, 1), as the schedule's do; nan and inf ran a
    # NaN CG, -0.5 raised NonConvexDetected, and 0, 1 and 2 converged
    cfg = tanh_config(pair_std, n=8)

    def no_array_work(*args):
        raise AssertionError("minimize_J_delta formed a cell gradient before its check")

    monkeypatch.setattr(_kernels, "cell_gradient", no_array_work)
    with pytest.raises(ValueError, match="delta must be finite, positive and below 1"):
        minimize_J_delta(cfg, delta)


def test_minimize_rejects_a_warm_start_off_the_config_grid(pair_std, monkeypatch):
    # a 16x16 warm start on an 8x8 config failed inside numpy's broadcast
    cfg = tanh_config(pair_std, n=8)
    warm = affine_field(Grid(16, 16), 1.0, 0.0)

    def no_array_work(*args):
        raise AssertionError("minimize_J_delta formed a cell gradient before its check")

    monkeypatch.setattr(_kernels, "cell_gradient", no_array_work)
    with pytest.raises(ValueError, match="warm_start grid does not match the config grid"):
        minimize_J_delta(cfg, 1e-1, warm_start=warm)


def test_config_grid_mismatch(pair_std):
    u0 = affine_field(Grid(4, 4), 1.0, 0.0)
    with pytest.raises(ValueError):
        SolveConfig(grid=Grid(8, 8), densities=pair_std, u0=u0, delta_schedule=[1e-1])


def test_config_p_reg_defaults_to_growth_exponent(pair_std):
    g = Grid(4, 4)
    cfg = SolveConfig(
        grid=g, densities=pair_std, u0=affine_field(g, 1.0, 0.0), delta_schedule=[1e-1]
    )
    assert cfg.p_reg == 2.0


def test_config_rejects_nonconvex_density(pair_std):
    g = Grid(4, 4)
    bad_f1 = dataclasses.replace(
        pair_std.f1,
        second_deriv=lambda t: -np.ones_like(np.asarray(t, dtype=np.float64)),
    )
    bad_pair = dataclasses.replace(pair_std, f1=bad_f1)
    with pytest.raises(ValueError):
        SolveConfig(
            grid=g,
            densities=bad_pair,
            u0=affine_field(g, 1.0, 0.0),
            delta_schedule=[1e-1],
        )


def test_nonconvexity_between_probe_points_reaches_cg(pair_std):
    # the curvature dips below zero on 0.2 < |t| < 0.3, between the config's
    # probe points 5 apart, so only CG's curvature floor can catch it
    phi = pair_std.f1
    dipped = dataclasses.replace(
        phi,
        second_deriv=lambda t: phi.second_deriv(t)
        - 20.0 * ((np.abs(t) > 0.2) & (np.abs(t) < 0.3)),
    )
    g = Grid(16, 16)
    u0 = GridFunction.from_callable(
        g, lambda x1, x2: 0.25 * x1 + 0.05 * np.sin(3.0 * x1) * np.cos(x2)
    )
    cfg = SolveConfig(
        grid=g,
        densities=dataclasses.replace(pair_std, f1=dipped),
        u0=u0,
        delta_schedule=[1e-1],
    )
    with pytest.raises(NonConvexDetected, match="negative curvature"):
        continuation(cfg)


# ---------------------------------------------------------------------------
# affine oracle: the interpolant of affine data is discrete-stationary
# ---------------------------------------------------------------------------


def test_affine_problem_solved_exactly(pair_std):
    g = Grid(32, 32)
    u0 = affine_field(g, 2.0, -1.0)
    cfg = SolveConfig(
        grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1, 1e-2, 1e-3]
    )
    report = continuation(cfg)
    for rec in report.records:
        assert rec.j_value == pytest.approx(AFFINE_J, abs=1e-10)
        assert rec.euler_residual_max == 0.0
        assert rec.iterations == 0
        assert rec.converged
    assert np.max(np.abs(report.u_final.values - u0.values)) <= 1e-13
    # final stress carries the regularized slope map at the last delta:
    # f1'(2) plus delta * p * 2 * (1+4)^0 with p_reg = 2
    sigma, _, _ = stress(report.u_final, pair_std, 1e-3, cfg.p_reg)
    expect = float(pair_std.f1.deriv(2.0)) + 1e-3 * 2.0 * 2.0
    assert np.allclose(sigma.comp1, expect, atol=1e-12)
    assert np.allclose(sigma.comp2, float(pair_std.f2.deriv(-1.0)), atol=1e-12)


def test_bilinear_interpolant_is_stationary(pair_std):
    # tensor-structured gradients scatter to exact zero, so the interpolant
    # of 2x - y + 0.5xy is itself the discrete minimizer at every level
    # (power-of-two cell count keeps the node coordinates dyadic)
    g = Grid(16, 16)
    u0 = GridFunction.from_callable(
        g, lambda x, y: 2.0 * x - y + 0.5 * x * y
    )
    cfg = SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1])
    report = continuation(cfg)
    assert report.records[0].iterations == 0
    assert report.records[0].euler_residual_max == 0.0


def test_affine_oracle_from_perturbed_interior(pair_std):
    # the preconditioned Newton solve must land back on the affine interpolant
    g = Grid(32, 32)
    exact = affine_field(g, 2.0, -1.0).values
    values = exact.copy()
    values[1:-1, 1:-1] += np.random.default_rng(3).uniform(-0.5, 0.5, (31, 31))
    u0 = GridFunction(g, values)
    cfg = SolveConfig(
        grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1, 1e-2, 1e-3]
    )
    report = continuation(cfg)
    assert report.records[0].iterations > 0
    for rec in report.records:
        assert rec.converged and rec.flags == ()
        assert rec.j_value == pytest.approx(AFFINE_J, abs=1e-10)
    assert np.max(np.abs(report.u_final.values - exact)) <= 1e-10


# ---------------------------------------------------------------------------
# line preconditioner
# ---------------------------------------------------------------------------


def test_dst1_matches_reference_transform():
    x = np.random.default_rng(0).standard_normal((95, 63))
    ext = np.zeros((95, 128))
    y = solve._dst1([x], ext)
    # the definition, y_k = sum_i x_i sin(pi k i / n), as a dense product
    k = np.arange(1, 64)
    dense = x @ np.sin(np.pi * np.outer(k, k) / 64)
    assert np.allclose(y, dense, rtol=0.0, atol=1e-12)
    # rows given and written in blocks are the rows of one stacked array
    out = [np.empty((40, 63)), np.empty((55, 63))[::-1]]
    assert solve._dst1([x[:10], x[10:]], ext, out=out) is None
    assert np.array_equal(np.concatenate(out), y)
    # DST-I is its own inverse up to n/2 along each axis, with the buffer
    # reused; the transforms write only its columns 1..m
    assert np.allclose(solve._dst1([y], ext), 64 / 2 * x, rtol=0.0, atol=1e-12)
    assert not np.any(ext[:, 0]) and not np.any(ext[:, 64:])


def _interior_random(grid, rng):
    return rng.standard_normal((grid.n1 - 1, grid.n2 - 1))


def _hessian_interior(grid, w1, w2):
    """v -> H v on interior arrays, as the solver forms it: v padded with a
    zero ring, then the fused kernel with hessvec's per-step weights."""
    k1 = (0.25 * grid.h2 / grid.h1) * w1
    k2 = (0.25 * grid.h1 / grid.h2) * w2

    def apply_h(v):
        padded = np.zeros(grid.node_shape)
        padded[1:-1, 1:-1] = v
        return _kernels.hessvec(padded, k1, k2)

    return apply_h


def _factored_preconditioner(grid, w1, w2):
    """r -> M^-1 r from a fresh per-level workspace factored at (w1, w2)."""
    workspace = solve._line_preconditioner(grid)
    workspace.factor(w1, w2)
    return workspace.apply


def _x1_only_curvatures(grid, case, rng):
    if case == "power3":
        # the solver's own curvatures for x1-only data: f2 = power:3 has zero
        # curvature at d2 u = 0, so w2 vanishes identically
        pair = splitvar.make_pair(splitvar.make_phi_nu(1.5), splitvar.power_density2(3.0))
        u = GridFunction.from_callable(grid, lambda x, y: np.tanh(3.0 * x) + 0.0 * y)
        c1, c2 = _kernels.cell_gradient(u.values, grid.h1, grid.h2)
        w1, w2 = solve._DeltaProblem(grid, pair, 1e-3, 3.0).curvatures(c1, c2)
        assert not np.any(w2)
        return w1, w2
    a = rng.uniform(1e-4, 5.0, grid.n1)
    b = rng.uniform(0.0, 2.0, grid.n1)
    return np.repeat(a[:, None], grid.n2, 1), np.repeat(b[:, None], grid.n2, 1)


# N = n1 - 1 rows per x1 line, odd and even, from a single row (no
# elimination step) to the 64^2 benchmark size, one beyond, and the 96^2 one
LINE_ROWS = (1, 2, 3, 4, 5, 9, 63, 64, 95)


@pytest.mark.parametrize(
    "shape, case",
    [((24, 10), "random"), ((10, 24), "power3"), ((2, 9), "random"), ((9, 2), "power3")]
    + [((n + 1, 7), "random") for n in LINE_ROWS],
    ids=["24x10-random", "10x24-power3", "2x9-random", "9x2-power3"]
    + [f"{n + 1}x7-random" for n in LINE_ROWS],
)
def test_line_preconditioner_inverts_x1_only_hessian(shape, case):
    g = Grid(*shape)
    rng = np.random.default_rng(7)
    w1, w2 = _x1_only_curvatures(g, case, rng)
    precond = _factored_preconditioner(g, w1, w2)
    v = _interior_random(g, rng)
    z = precond(_hessian_interior(g, w1, w2)(v))
    assert z.shape == v.shape
    assert np.max(np.abs(z - v)) <= 1e-12 * np.max(np.abs(v))


def _dense_mode_solves(grid, w1, w2, r):
    """M^-1 r as S T_k^-1 S r / (n2/2), S the dense DST-I along x2 and T_k
    formed densely from the x2-means a, b of the curvatures, as the
    ``_line_preconditioner`` docstring writes it."""
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    a, b = w1.mean(axis=1), w2.mean(axis=1)
    # differences and averages from the n1 - 1 interior nodes of a line, with
    # its zero ends, to its n1 cells
    diff = np.eye(n1, n1 - 1) - np.eye(n1, n1 - 1, -1)
    avg = (np.eye(n1, n1 - 1) + np.eye(n1, n1 - 1, -1)) / 2
    k1 = diff.T @ np.diag(a) @ diff / h1**2
    ab = avg.T @ np.diag(b) @ avg
    modes = np.arange(1, n2)
    sine = np.sin(np.pi * np.outer(modes, modes) / n2)
    rs = r @ sine
    z = np.empty_like(rs)
    for k, t in enumerate(modes * np.pi / n2):
        tk = h1 * h2 * (np.cos(t / 2) ** 2 * k1 + 4 * np.sin(t / 2) ** 2 / h2**2 * ab)
        z[:, k] = np.linalg.solve(tk, rs[:, k])
    return z @ sine / (n2 / 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 95])
def test_line_preconditioner_matches_dense_mode_solves(n):
    # curvatures that vary in x2 too, so that M is not the Hessian: the
    # two-ended sweeps must still give the dense solve of every mode
    g = Grid(n + 1, 7)
    rng = np.random.default_rng(n)
    w1 = rng.uniform(1e-4, 5.0, (g.n1, g.n2))
    w2 = rng.uniform(0.0, 2.0, (g.n1, g.n2))
    precond = _factored_preconditioner(g, w1, w2)
    for _ in range(3):
        r = _interior_random(g, rng)
        ref = _dense_mode_solves(g, w1, w2, r)
        assert np.max(np.abs(precond(r) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_line_preconditioner_symmetric_positive():
    rng = np.random.default_rng(11)
    for g in [Grid(20, 13)] + [Grid(n + 1, 7) for n in LINE_ROWS]:
        w1 = rng.uniform(1e-4, 5.0, (g.n1, g.n2))
        w2 = np.where(rng.uniform(size=(g.n1, g.n2)) < 0.5, 0.0, 2.0)
        precond = _factored_preconditioner(g, w1, w2)
        for _ in range(5):
            x = _interior_random(g, rng)
            y = _interior_random(g, rng)
            mx, my = precond(x), precond(y)
            assert float(np.sum(x * my)) == pytest.approx(float(np.sum(mx * y)), rel=1e-12)
            assert float(np.sum(x * mx)) > 0.0


def test_line_preconditioner_refactors_like_a_fresh_workspace():
    # a level refactors one workspace at every Newton step, after applies
    # have overwritten the sweep array that holds the off-diagonal during a
    # factor; nothing of the last step may leak into the next
    rng = np.random.default_rng(5)
    for g in [Grid(20, 13), Grid(13, 20)] + [Grid(n + 1, 7) for n in LINE_ROWS]:
        shape = (g.n1, g.n2)
        reused = solve._line_preconditioner(g)
        reused.factor(rng.uniform(1e-4, 5.0, shape), rng.uniform(0.0, 2.0, shape))
        reused.apply(_interior_random(g, rng))
        w1, w2 = rng.uniform(1e-4, 5.0, shape), rng.uniform(0.0, 2.0, shape)
        reused.factor(w1, w2)
        fresh = _factored_preconditioner(g, w1, w2)
        for _ in range(3):
            r = _interior_random(g, rng)
            r_before = r.copy()
            assert np.array_equal(reused.apply(r), fresh(r))
            assert np.array_equal(r, r_before)


@pytest.mark.parametrize("n, steps", [(64, 4), (128, 5), (256, 6)])
def test_newton_level_peak_memory(pair_std, n, steps):
    # a warm-started level on step data peaks at 17.9, 17.0 and 17.0 nodal
    # arrays at 64^2, 128^2 and 256^2, inside CG: the iterate, the padded
    # buffer, the weights k1, k2, minus_g, CG's x, r and p, the preconditioner
    # workspace (ext, two arrays wide, and the interleaved y, L and D^-1, one
    # array each) and the three temporaries of a Hessian product or a sine
    # transform.  The bound fails (22.9, 21.9 and 21.2) if the accepted
    # trial's cell gradient, the residual, the last step's weights and
    # direction, and CG's last product and preconditioned residual are kept
    # past their last read.
    cfg = step_config(pair_std, n, [1e-1, 1e-2])
    u, _ = minimize_J_delta(cfg, 1e-1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, rec = minimize_J_delta(cfg, 1e-2, warm_start=u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.converged and rec.iterations == steps
    assert (peak - base) / cfg.u0.values.nbytes <= 18.5


def count_hessian_products(monkeypatch):
    calls = []
    original = _kernels.hessvec

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(_kernels, "hessvec", counted)
    return calls


def test_hessian_products_per_newton_step_bounded(pair_std, monkeypatch):
    # the line preconditioner makes 22 products in 9 steps here, the
    # constant-coefficient sine-transform one 57 in 10 and Jacobi about 150
    # per step; a fallback to either would blow this bound
    calls = count_hessian_products(monkeypatch)
    report = continuation(tanh_config(pair_std, n=64))
    steps = sum(r.iterations for r in report.records)
    assert all(r.converged and r.flags == () for r in report.records)
    assert steps > 0
    assert len(calls) <= 4 * steps


def step_config(pair, n, schedule):
    g = Grid(n, n)
    u0 = GridFunction.from_callable(
        g, lambda x, y: np.where(x < 0.0, 0.0, 1.0) + 0.0 * y
    )
    return SolveConfig(grid=g, densities=pair, u0=u0, delta_schedule=schedule)


@pytest.mark.parametrize(
    "make_cfg, bound",
    [
        # 21 products with the line preconditioner, 59 with the
        # constant-coefficient sine-transform one
        (lambda pair: tanh_config(pair, n=96), 30),
        # 81 against 133
        (lambda pair: step_config(pair, 64, [1e-1, 1e-2, 1e-3, 1e-4]), 100),
    ],
    ids=["tanh-96", "step-64"],
)
def test_line_preconditioner_bounds_hessian_products(pair_std, make_cfg, bound, monkeypatch):
    # the x1 profile of the curvatures, which a constant-coefficient
    # preconditioner discards, is what brings these solves under the bound
    calls = count_hessian_products(monkeypatch)
    report = continuation(make_cfg(pair_std))
    assert all(r.converged and r.flags == () for r in report.records)
    assert len(calls) <= bound


@pytest.mark.parametrize(
    "make_cfg, steps, products, j_values",
    [
        # perfbench's jump workload: a warm-started chain on step data at 64^2
        (
            lambda pair: step_config(pair, 64, [1e-1, 1e-2, 1e-3, 1e-4]),
            [5, 4, 4, 3],
            [17, 21, 23, 20],
            [0.7885428607454232, 0.6927016239865672, 0.6876842019877695,
             0.6876003738205299],
        ),
        # perfbench's smooth workload: tanh data at 96^2
        (
            lambda pair: tanh_config(pair, n=96),
            [3, 3, 3],
            [7, 8, 6],
            [1.1312912367311454, 1.0982428348354107, 1.0976497876657567],
        ),
    ],
    ids=["jump", "smooth"],
)
def test_benchmark_problems_pin_solver_work(
    pair_std, make_cfg, steps, products, j_values, monkeypatch
):
    # the work of the two benchmark problems, Newton steps and Hessian
    # products per level, and J per level, so that a faster solve cannot
    # hide more iterations or lost accuracy
    calls = count_hessian_products(monkeypatch)
    cfg = make_cfg(pair_std)
    u = None
    for delta, n_steps, n_products, j in zip(cfg.delta_schedule, steps, products, j_values):
        calls.clear()
        u, rec = minimize_J_delta(cfg, delta, warm_start=u)
        assert rec.converged and rec.flags == ()
        assert (rec.iterations, len(calls)) == (n_steps, n_products)
        assert rec.j_value == pytest.approx(j, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda pair: step_config(pair, 64, [1e-1, 1e-2, 1e-3, 1e-4]),
        lambda pair: tanh_config(pair, n=96),
    ],
    ids=["jump", "smooth"],
)
def test_benchmark_problems_one_residual_per_iterate(pair_std, make_cfg, monkeypatch):
    # a trial accepted by the rounding tie-break hands its residual to the
    # next step, so each iterate's residual is formed once
    calls = []
    original = solve._DeltaProblem.residual

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(solve._DeltaProblem, "residual", counted)
    cfg = make_cfg(pair_std)
    u = None
    for delta in cfg.delta_schedule:
        calls.clear()
        u, rec = minimize_J_delta(cfg, delta, warm_start=u)
        assert rec.converged and rec.flags == ()
        assert len(calls) == rec.iterations + 1


def test_forcing_terms_cut_hessian_products(pair_std, monkeypatch):
    # CG to a fixed 1e-8 relative residual made 126 products here; the
    # Eisenstat-Walker forcing terms stop each solve once it is accurate enough
    calls = count_hessian_products(monkeypatch)
    report = continuation(tanh_config(pair_std, n=64))
    assert all(r.converged and r.flags == () for r in report.records)
    assert len(calls) <= 80


@pytest.mark.parametrize(
    "make_cfg",
    [
        lambda pair: tanh_config(pair, n=32),
        lambda pair: step_config(pair, 32, [1e-1, 1e-2, 1e-3, 1e-4]),
    ],
    ids=["tanh", "step"],
)
def test_inexact_newton_matches_exact_newton(pair_std, make_cfg, monkeypatch):
    inexact = continuation(make_cfg(pair_std)).records
    # a constant forcing term of 1e-8 and no floor: every CG solve runs to a
    # fixed 1e-8 relative residual, as in exact Newton
    monkeypatch.setattr(solve, "_forcing_term", lambda *args: 1e-8)
    monkeypatch.setattr(solve, "FORCING_FLOOR", 0.0)
    exact = continuation(make_cfg(pair_std)).records
    for a, b in zip(inexact, exact):
        assert a.converged and a.flags == ()
        assert b.converged and b.flags == ()
        assert abs(a.j_value - b.j_value) <= 1e-9
        assert abs(a.j_delta_value - b.j_delta_value) <= 1e-9


def test_forcing_term_is_eisenstat_walker_choice_2():
    assert solve._forcing_term(3.0, None) == solve.FORCING_MAX
    assert solve._forcing_term(1.0, 10.0) == pytest.approx(0.9e-2, rel=1e-15)
    assert solve._forcing_term(9.0, 10.0) == solve.FORCING_MAX


def test_pcg_stops_at_first_iterate_meeting_tolerance(monkeypatch):
    g = Grid(12, 9)
    rng = np.random.default_rng(4)
    w1 = rng.uniform(0.1, 5.0, (g.n1, g.n2))
    w2 = rng.uniform(0.0, 2.0, (g.n1, g.n2))
    precond = _factored_preconditioner(g, w1, w2)
    calls = []
    hessian = _hessian_interior(g, w1, w2)

    def apply_h(v):
        calls.append(1)
        return hessian(v)

    b = _interior_random(g, rng)
    # iterate k from a run capped at k iterations with a tolerance never met
    iterates = []
    for k in range(20):
        monkeypatch.setattr(solve, "CG_MAXITER", k)
        iterates.append(solve._pcg(apply_h, b, precond, 0.0)[0])
    norms = [math.sqrt(float(np.sum((b - apply_h(x)) ** 2))) for x in iterates]
    monkeypatch.setattr(solve, "CG_MAXITER", 200)
    # a tolerance halfway (geometrically) between iterate k and all before it
    checked = 0
    for k in range(1, 20):
        if norms[k] >= 0.5 * min(norms[:k]):
            continue
        calls.clear()
        x, ok = solve._pcg(apply_h, b, precond, math.sqrt(norms[k] * min(norms[:k])))
        assert ok and len(calls) == k
        assert np.array_equal(x, iterates[k])
        checked += 1
    assert checked >= 5
    x, ok = solve._pcg(apply_h, b, precond, norms[0])
    assert ok and not np.any(x)


def test_offset_step_data_converges_at_small_delta(pair_std):
    # offset step data on which the Jacobi-preconditioned solve hit the
    # 200-step cap at delta = 1e-4 (residual floor 1.7e-9 above tol_grad)
    g = Grid(64, 64)
    offset = 0.6772768550696802
    data = GridFunction.from_callable(
        g, lambda x1, x2: np.where(x1 < 0.0, 0.0, 1.0) + offset + 0.0 * x2
    )
    cfg = SolveConfig(
        grid=g, densities=pair_std, u0=data, delta_schedule=[1e-1, 1e-2, 1e-3, 1e-4]
    )
    u = None
    for delta in cfg.delta_schedule:
        u, rec = minimize_J_delta(cfg, delta, warm_start=u)
        assert rec.converged and rec.flags == ()
        assert rec.iterations <= 10


def test_rounding_level_trials_ranked_by_gradient_norm(pair_std, monkeypatch):
    # restarts from the converged delta = 1e-4 iterate, perturbed so that
    # max|g| is 1.2 to 2.5 tol_grad: every Newton step then changes J_delta
    # by rounding only, and the Armijo test alone ranks its trials by noise
    cfg = step_config(pair_std, 32, [1e-1, 1e-2, 1e-3, 1e-4])
    u = continuation(cfg).u_final
    capped = dataclasses.replace(cfg, max_iter=30)
    prob = solve._DeltaProblem(cfg.grid, pair_std, 1e-4, cfg.p_reg)
    c1, c2 = _kernels.cell_gradient(u.values, cfg.grid.h1, cfg.grid.h2)
    w1, w2 = prob.curvatures(c1, c2)
    hessian = _hessian_interior(cfg.grid, w1, w2)
    starts = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        phi = np.zeros(cfg.grid.node_shape)
        phi[1:-1, 1:-1] = _interior_random(cfg.grid, rng)
        hphi = hessian(phi[1:-1, 1:-1])
        scale = rng.uniform(1.2, 2.5) * cfg.tol_grad / np.max(np.abs(hphi))
        starts.append(GridFunction(cfg.grid, u.values + scale * phi))
        c1, c2 = _kernels.cell_gradient(starts[-1].values, cfg.grid.h1, cfg.grid.h2)
        assert 1.1 <= np.max(np.abs(prob.residual(c1, c2))) / cfg.tol_grad <= 2.6

    def stalled():
        return [
            seed
            for seed, start in enumerate(starts)
            if not minimize_J_delta(capped, 1e-4, warm_start=start)[1].converged
        ]

    assert stalled() == []
    # with no rounding allowance only the Armijo test decides, and some
    # starts run to the cap just above tol_grad
    monkeypatch.setattr(solve, "ROUNDING_REL", 0.0)
    assert len(stalled()) >= 1


# ---------------------------------------------------------------------------
# nontrivial problem: independent minimality certificates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tanh_report(pair_std):
    cfg = tanh_config(pair_std, store_fields=True)
    return cfg, continuation(cfg)


def test_tanh_problem_converges(tanh_report):
    _, report = tanh_report
    for rec in report.records:
        assert rec.converged and rec.flags == ()
        assert rec.iterations <= 10
        assert rec.euler_residual_max <= 1e-10


def test_minimizer_fd_gradient_vanishes(pair_std, tanh_report):
    # central differences of the plain quadrature energy, fully independent
    # of the solver's stress-scatter residual assembly
    cfg, report = tanh_report
    u = report.u_final
    delta = cfg.delta_schedule[-1]
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        i = int(rng.integers(1, cfg.grid.n1))
        j = int(rng.integers(1, cfg.grid.n2))
        bump = np.zeros(cfg.grid.node_shape)
        bump[i, j] = h
        up = GridFunction(cfg.grid, u.values + bump)
        um = GridFunction(cfg.grid, u.values - bump)
        fd = (
            eval_J_delta(up, pair_std, delta, cfg.p_reg).j_total
            - eval_J_delta(um, pair_std, delta, cfg.p_reg).j_total
        ) / (2.0 * h)
        assert abs(fd) <= 1e-7


def test_minimizer_beats_perturbations(pair_std, tanh_report):
    cfg, report = tanh_report
    u = report.u_final
    delta = cfg.delta_schedule[-1]
    base = eval_J_delta(u, pair_std, delta, cfg.p_reg).j_total
    for seed in range(4):
        phi = np.zeros(cfg.grid.node_shape)
        phi[1:-1, 1:-1] = np.random.default_rng(seed).standard_normal(
            (cfg.grid.n1 - 1, cfg.grid.n2 - 1)
        )
        for t in (1e-3, 1e-2, 1e-1):
            trial = GridFunction(cfg.grid, u.values + t * phi)
            assert (
                eval_J_delta(trial, pair_std, delta, cfg.p_reg).j_total
                >= base - 1e-12
            )


# ---------------------------------------------------------------------------
# continuation bookkeeping
# ---------------------------------------------------------------------------


def test_continuation_contracts_hold(pair_std, tanh_report):
    cfg, report = tanh_report
    records = report.records
    # the two-sided schedule bound of continuation, recomputed from each
    # level's stored iterate: delta'(I'-I) - s <= J - J' <= delta(I'-I) + s
    for prev, rec in zip(records, records[1:]):
        i_prev, i_next = prev.delta_term / prev.delta, rec.delta_term / rec.delta
        slack = cfg.tol_grad * float(np.sum(np.abs(rec.u - prev.u))) + 1e-12 * (
            1.0 + abs(prev.j_value) + abs(rec.j_value) + prev.delta * i_next
        )
        drop = prev.j_value - rec.j_value
        assert rec.delta * (i_next - i_prev) - slack <= drop
        assert drop <= prev.delta * (i_next - i_prev) + slack
        assert rec.j_value <= prev.j_value + 1e-10 * (1.0 + abs(prev.j_value))
    for rec in records:
        assert rec.converged and rec.flags == ()
        assert rec.delta_term >= 4.0 * rec.delta * (1.0 - 1e-12)
        assert rec.j_delta_value == pytest.approx(
            rec.j_value + rec.delta_term, rel=1e-14
        )


@pytest.mark.parametrize("shift", [0.03, -0.04])
def test_continuation_rejects_schedule_bound_violation(pair_std, shift, monkeypatch):
    # from delta = 1e-1 to 1e-2 here J - J' = 0.0322 must lie within
    # [delta' (I' - I), delta (I' - I)] = [0.0066, 0.066]; shifting J' by
    # +0.03 breaks the lower end, by -0.04 the upper end
    original = solve.minimize_J_delta

    def shifted(cfg, delta, warm_start=None):
        u, rec = original(cfg, delta, warm_start=warm_start)
        if warm_start is not None:
            rec = dataclasses.replace(rec, j_value=rec.j_value + shift)
        return u, rec

    monkeypatch.setattr(solve, "minimize_J_delta", shifted)
    cfg = dataclasses.replace(tanh_config(pair_std), delta_schedule=[1e-1, 1e-2])
    with pytest.raises(ContinuationContractError, match="schedule bound"):
        continuation(cfg)


def test_continuation_rejects_regularizer_below_area_bound(affine_config, monkeypatch):
    # rho_p >= 1 on a domain of area 4, so I >= 4; a level whose summed
    # regularizer integral under-reports it (here 2 for I = 20) breaks the
    # contract.  Affine data converge with no Newton step, so no line search
    # reads the scaled sum.
    original = solve._cell_sums

    def under_reported(g, d, p_reg=None):
        j1, j2, i_reg = original(g, d, p_reg)
        return j1, j2, 0.1 * i_reg

    monkeypatch.setattr(solve, "_cell_sums", under_reported)
    cfg = dataclasses.replace(affine_config, delta_schedule=[1e-1])
    with pytest.raises(ContinuationContractError, match="area lower bound"):
        continuation(cfg)


def test_single_level_matches_minimize(pair_std):
    cfg = tanh_config(pair_std)
    single = dataclasses.replace(cfg, delta_schedule=[1e-1])
    report = continuation(single)
    u_direct, rec_direct = minimize_J_delta(single, 1e-1)
    assert np.array_equal(report.u_final.values, u_direct.values)
    assert report.records[0].j_value == rec_direct.j_value


def test_iteration_cap_flagged(pair_std):
    cfg = tanh_config(pair_std, max_iter=1)
    _, rec = minimize_J_delta(cfg, 1e-1)
    assert "iteration_cap_exceeded" in rec.flags
    assert not rec.converged
    assert rec.iterations == 1
    # continuation's schedule bound assumes converged levels
    with pytest.raises(ContinuationContractError, match="iteration_cap_exceeded"):
        continuation(cfg)


def _level_residual(cfg, delta, u):
    prob = solve._DeltaProblem(cfg.grid, cfg.densities, delta, cfg.p_reg)
    c1, c2 = _kernels.cell_gradient(u.values, cfg.grid.h1, cfg.grid.h2)
    return float(np.max(np.abs(prob.residual(c1, c2))))


@pytest.mark.parametrize("max_iter", [0, 1, 2])
def test_capped_level_reports_the_residual_of_its_iterate(pair_std, max_iter):
    cfg = tanh_config(pair_std, max_iter=max_iter)
    u, rec = minimize_J_delta(cfg, 1e-1)
    assert rec.flags == ("iteration_cap_exceeded",)
    assert rec.iterations == max_iter and not rec.converged
    assert rec.euler_residual_max == _level_residual(cfg, 1e-1, u)


# ---------------------------------------------------------------------------
# safeguards of the Newton level
# ---------------------------------------------------------------------------


def test_pcg_returns_on_a_flat_direction():
    # zero curvature along the first direction is not negative curvature:
    # CG returns its current iterate, unconverged, for the line search
    x, ok = solve._pcg(np.zeros_like, np.ones((3, 4)), np.copy, 1e-12)
    assert not ok and not np.any(x)


def test_failed_cg_falls_back_to_steepest_descent(pair_std, monkeypatch):
    monkeypatch.setattr(solve, "_pcg", lambda apply_h, b, precond, tol: (0.0 * b, False))
    original = solve._DeltaProblem.split_energy
    trials = []

    def split_energy(self, values):
        trials.append(values.copy())
        return original(self, values)

    monkeypatch.setattr(solve._DeltaProblem, "split_energy", split_energy)
    cfg = tanh_config(pair_std, max_iter=3)
    u, rec = minimize_J_delta(cfg, 1e-1)
    # one flag however many steps fell back, and every step descended
    assert rec.flags == ("cg_fallback", "iteration_cap_exceeded")
    assert rec.iterations == 3
    assert rec.j_delta_value < eval_J_delta(cfg.u0, pair_std, 1e-1, cfg.p_reg).j_total
    # the first trial is the full step along -g
    start = trials[0]
    prob = solve._DeltaProblem(cfg.grid, pair_std, 1e-1, cfg.p_reg)
    minus_g = -prob.residual(*_kernels.cell_gradient(start, cfg.grid.h1, cfg.grid.h2))
    scale = np.max(np.abs(start))
    assert np.allclose(trials[1] - start, minus_g, rtol=0.0, atol=1e-15 * scale)


def test_line_search_halves_on_an_arithmetic_error(pair_std, monkeypatch):
    original = solve._DeltaProblem.split_energy
    trials = []

    def split_energy(self, values):
        trials.append(values.copy())
        if len(trials) == 2:  # the first trial; the first call is the start
            raise ArithmeticError("trial outside the domain")
        return original(self, values)

    monkeypatch.setattr(solve._DeltaProblem, "split_energy", split_energy)
    cfg = tanh_config(pair_std)
    u, rec = minimize_J_delta(cfg, 1e-1)
    assert rec.converged and rec.flags == ()
    start, full, half = trials[:3]
    scale = np.max(np.abs(start))
    assert np.max(np.abs(full - start)) > 1e-3 * scale
    assert np.allclose(half - start, 0.5 * (full - start), rtol=0.0, atol=1e-15 * scale)


def test_line_search_without_trials_stalls(pair_std, monkeypatch):
    monkeypatch.setattr(solve, "MAX_BACKTRACKS", 0)
    cfg = tanh_config(pair_std)
    u, rec = minimize_J_delta(cfg, 1e-1)
    assert rec.flags == ("stalled",)
    assert rec.iterations == 0 and not rec.converged
    assert np.array_equal(u.values, cfg.u0.values)
    assert rec.euler_residual_max == _level_residual(cfg, 1e-1, u)
    # continuation takes only converged levels
    with pytest.raises(ContinuationContractError, match="did not converge.*stalled"):
        continuation(cfg)


def test_continuation_determinism(pair_std):
    cfg = tanh_config(pair_std)
    a = continuation(cfg)
    b = continuation(tanh_config(pair_std))
    assert np.array_equal(a.u_final.values, b.u_final.values)
    assert [r.j_value for r in a.records] == [r.j_value for r in b.records]


def run_python(code, cwd, **env):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    splitvar, with ``env`` added to the environment; returns its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitvar.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True, text=True, cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_level_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # CG's vectors at 128^2 have 127^2 > 10^4 entries, which OpenBLAS's ddot
    # splits across its threads, summing in an order the thread count sets
    code = (
        "import hashlib, numpy as np, splitvar as s\n"
        "g = s.Grid(128, 128)\n"
        "u0 = s.GridFunction.from_callable(g, lambda x, y: np.where(x < 0.0, 0.0, 1.0) + 0.0 * y)\n"
        "pair = s.make_pair(s.make_phi_nu(1.5), s.power_density2(2.0))\n"
        "u, rec = s.minimize_J_delta(s.SolveConfig(g, pair, u0, [1e-1]), 1e-1)\n"
        "assert rec.converged\n"
        "print(hashlib.sha1(u.values.tobytes()).hexdigest())\n"
    )
    one, two = (
        run_python(code, tmp_path, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
        for n in ("1", "2")
    )
    assert one == two


def test_solver_reduces_without_blas(pair_std, monkeypatch):
    # the same fence on a runner with one core, where thread counts cannot
    # differ: every reduction of a level is _dot's, none is BLAS's
    cfg = step_config(pair_std, 32, [1e-1])
    u_ref, rec_ref = minimize_J_delta(cfg, 1e-1)

    def blas(*args, **kwargs):
        raise AssertionError("the solver reduced with BLAS")

    for name in ("vdot", "dot", "inner", "matmul"):
        monkeypatch.setattr(np, name, blas)
    u, rec = minimize_J_delta(cfg, 1e-1)
    assert rec.converged and rec.flags == ()
    assert rec == rec_ref
    assert np.array_equal(u.values, u_ref.values)


def test_store_fields_toggle(pair_std):
    cfg = tanh_config(pair_std, store_fields=True)
    report = continuation(cfg)
    for rec in report.records:
        assert rec.u is not None and rec.u.shape == cfg.grid.node_shape
    assert np.array_equal(report.records[-1].u, report.u_final.values)
    lean = continuation(tanh_config(pair_std))
    assert all(rec.u is None for rec in lean.records)


def test_stored_fields_are_the_levels_own_read_only_arrays(pair_std, monkeypatch):
    # a record's u is the array of the field its level returned, not a copy,
    # so it must be read-only, and no later level may write into it
    returned = []
    level = solve.minimize_J_delta

    def spy(*args, **kwargs):
        u, rec = level(*args, **kwargs)
        returned.append(u.values.copy())
        return u, rec

    monkeypatch.setattr(solve, "minimize_J_delta", spy)
    report = continuation(tanh_config(pair_std, store_fields=True))
    assert len(returned) == len(report.records) == 3
    assert not np.array_equal(returned[0], returned[-1])
    for rec, values in zip(report.records, returned):
        assert not rec.u.flags.writeable
        assert np.array_equal(rec.u, values)
    assert np.shares_memory(report.records[-1].u, report.u_final.values)


def test_records_csv_layout(pair_std, tmp_path):
    report = continuation(tanh_config(pair_std))
    path = tmp_path / "records.csv"
    report.write_records_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta,j,j_delta,delta_term,euler_residual,iterations"
    assert len(lines) == 1 + len(report.records)
    first = lines[1].split(",")
    assert float(first[0]) == 0.1
    assert float(first[1]) == report.records[0].j_value


def test_report_dict_keys(pair_std):
    report = continuation(tanh_config(pair_std))
    payload = report.to_dict()
    rec = payload["records"][0]
    assert set(rec) == {
        "delta",
        "j_value",
        "j_delta_value",
        "delta_term",
        "euler_residual_max",
        "iterations",
        "converged",
        "flags",
    }


# ---------------------------------------------------------------------------
# one regularizer, one stress: solver and certificates agree bitwise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p_reg, schedule", [(None, [1e-1, 1e-2, 1e-3]), (4.5, [1e-2])]
)
def test_solver_matches_certificate_quantities_bitwise(pair_std, p_reg, schedule):
    # the solver's line search and eval_J_delta sum J and the delta term in
    # energy._cell_sums alike: at 96^2 the cell area is not a power of two,
    # so any other grouping of h1 h2, delta and the sums rounds differently;
    # p_reg = 4.5 makes rho_p' round differently under any reordering of its
    # factors
    for n in (32, 96):
        cfg = tanh_config(pair_std, n=n, p_reg=p_reg)
        cfg = dataclasses.replace(cfg, delta_schedule=schedule)
        report = continuation(cfg)
        delta = cfg.delta_schedule[-1]
        last = report.records[-1]
        sigma, _, _ = stress(report.u_final, pair_std, delta, cfg.p_reg)
        res = divergence_residual(sigma)
        assert float(np.max(np.abs(res))) == last.euler_residual_max
        energy = eval_J_delta(report.u_final, pair_std, delta, cfg.p_reg)
        assert energy.j_f1 + energy.j_f2 == last.j_value
        assert energy.delta_term == last.delta_term
        assert energy.j_total == last.j_delta_value


def test_continuation_loads_no_package_beyond_numpy(tmp_path):
    # a continuation, the conjugates without a closed form (the nfun_tlog
    # certificate, the conjugate along A'), the node CSV round trip and the
    # approximation experiment need numpy alone (an FFT package beside
    # numpy's would add tens of MiB of resident memory)
    code = (
        "import sys, numpy as np\n"
        "top = lambda: {m.split('.')[0] for m in sys.modules}\n"
        "before = top()\n"
        "import splitvar as s\n"
        "g = s.Grid(16, 16)\n"
        "u0 = s.GridFunction.from_callable(g, lambda x, y: np.tanh(3 * x) + 0.2 * y)\n"
        "pair = s.make_pair(s.make_phi_nu(1.5), s.power_density2(2.0))\n"
        "s.continuation(s.SolveConfig(g, pair, u0, [1e-1, 1e-2, 1e-3]))\n"
        "tlog = s.make_pair(s.make_phi_nu(1.5), s.tlog_density2())\n"
        "sigma, _, _ = s.stress(u0, tlog, 1e-2, 2.0)\n"
        "s.duality_gap(u0, sigma, tlog, delta=1e-2)\n"
        "a = s.tlog_density2()\n"
        "a.conjugate(a.deriv(np.linspace(0.0, 50.0, 40)))\n"
        "s.save_csv(u0, 'u.csv')\n"
        "assert s.load_csv('u.csv').values.tobytes() == u0.values.tobytes()\n"
        "w = s.BVCandidate(u0, (s.JumpSegment(8, 0, 16, 1.0),))\n"
        "s.approximation_experiment(w, pair, [1e-1, 1e-2])\n"
        "print(sorted(top() - before - set(sys.stdlib_module_names)))\n"
        "print('scipy' in sys.modules)\n"
        "print('numpy.polynomial' in sys.modules)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = run_python(code, tmp_path)
    # numpy.polynomial too stays unloaded: the Gauss rule is written out;
    # and numpy.random, about 6 MiB of resident memory once loaded, which
    # only the seeded starts of multi_start need
    assert out.split() == ["['splitvar']", "False", "False", "False"]


# ---------------------------------------------------------------------------
# multi-start uniqueness probe
# ---------------------------------------------------------------------------


def test_multi_start_validation(pair_std):
    # Grid's integer rule; 2.5 and 3.0 raised TypeError from range
    cfg = tanh_config(pair_std)
    for n_starts in (1, 2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"need at least 2 starts, got {n_starts}"):
            multi_start(cfg, n_starts)


def test_multi_start_identical_seeds_agree_exactly(pair_std):
    # the seeds are fixed, so two probes give bitwise-equal reports
    cfg = tanh_config(pair_std)
    a, b = multi_start(cfg, 2), multi_start(cfg, 2)
    assert a["max_gradient_discrepancy"] == b["max_gradient_discrepancy"]
    for ra, rb in zip(a["reports"], b["reports"]):
        assert ra.to_dict() == rb.to_dict()
        assert np.array_equal(ra.u_final.values, rb.u_final.values)


def test_multi_start_interior_gradients_agree(pair_std):
    cfg = tanh_config(pair_std)
    out = multi_start(cfg, 3)
    assert out["max_gradient_discrepancy"] <= 1e-6
    assert len(out["reports"]) == 3
    assert out["seeds"] == [0, 1, 2]
    finals = [r.records[-1].j_value for r in out["reports"]]
    assert max(finals) - min(finals) <= 1e-9 * (1.0 + abs(finals[0]))
