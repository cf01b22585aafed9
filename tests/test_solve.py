import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import splitvar
from splitvar import _kernels, solve
from splitvar import (
    ContinuationContractError,
    Grid,
    GridFunction,
    SolveConfig,
    continuation,
    divergence_residual,
    eval_J_delta,
    gradient,
    minimize_J_delta,
    multi_start,
    stress,
)
from splitvar.grid import zero_ring
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
    expect = float(pair_std.f1.deriv(2.0)) + 1e-3 * 2.0 * 2.0
    assert np.allclose(report.stress_final.comp1, expect, atol=1e-12)
    assert np.allclose(report.stress_final.comp2, float(pair_std.f2.deriv(-1.0)), atol=1e-12)


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
    u0 = affine_field(g, 2.0, -1.0)
    exact = u0.values.copy()
    u0.values[1:-1, 1:-1] += np.random.default_rng(3).uniform(-0.5, 0.5, (31, 31))
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
# fast-sine-transform preconditioner
# ---------------------------------------------------------------------------


def test_dst1_matches_reference_transform():
    sfft = pytest.importorskip("scipy.fft")
    x = np.random.default_rng(0).standard_normal((95, 63))
    assert np.array_equal(solve._dst1(x), sfft.dst(x, type=1))
    two_d = solve._dst2_transposed(x).T
    assert np.allclose(two_d, sfft.dstn(x, type=1), rtol=0.0, atol=1e-12)
    # DST-I is its own inverse up to 2n along each axis
    assert np.allclose(solve._dst1(solve._dst1(x)), 2 * 64 * x, rtol=0.0, atol=1e-12)


def _interior_random(grid, rng):
    v = np.zeros(grid.node_shape)
    v[1:-1, 1:-1] = rng.standard_normal((grid.n1 - 1, grid.n2 - 1))
    return v


@pytest.mark.parametrize("w2_value", [0.3, 0.0])
def test_fst_preconditioner_inverts_constant_hessian(w2_value):
    g = Grid(24, 10)
    w1 = np.full((g.n1, g.n2), 1.7)
    w2 = np.full((g.n1, g.n2), w2_value)
    precond = solve._fst_preconditioner(w1, w2, g.h1, g.h2)
    v = _interior_random(g, np.random.default_rng(7))
    r = zero_ring(_kernels.hessvec(v, w1, w2, g.h1, g.h2))
    z = precond(r)
    assert np.max(np.abs(z - v)) <= 1e-12 * np.max(np.abs(v))
    assert np.array_equal(zero_ring(z.copy()), z)


def test_fst_preconditioner_symmetric_positive():
    g = Grid(20, 13)
    rng = np.random.default_rng(11)
    w1 = rng.uniform(1e-4, 5.0, (g.n1, g.n2))
    w2 = np.where(rng.uniform(size=(g.n1, g.n2)) < 0.5, 0.0, 2.0)
    precond = solve._fst_preconditioner(w1, w2, g.h1, g.h2)
    for _ in range(5):
        x = _interior_random(g, rng)
        y = _interior_random(g, rng)
        mx, my = precond(x), precond(y)
        assert float(np.sum(x * my)) == pytest.approx(float(np.sum(mx * y)), rel=1e-12)
        assert float(np.sum(x * mx)) > 0.0


def test_hessian_products_per_newton_step_bounded(pair_std, monkeypatch):
    # Jacobi needed about 150 products per step here; a silent fallback to a
    # diagonal-like preconditioner would blow this bound
    calls = []
    original = _kernels.hessvec

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(_kernels, "hessvec", counted)
    report = continuation(tanh_config(pair_std, n=64))
    steps = sum(r.iterations for r in report.records)
    assert all(r.converged and r.flags == () for r in report.records)
    assert steps > 0
    assert len(calls) <= 40 * steps


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


# ---------------------------------------------------------------------------
# nontrivial problem: independent minimality certificates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tanh_report(pair_std):
    cfg = tanh_config(pair_std)
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
        up, um = u.copy(), u.copy()
        up.values[i, j] += h
        um.values[i, j] -= h
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
            trial = u.copy()
            trial.values += t * phi
            assert (
                eval_J_delta(trial, pair_std, delta, cfg.p_reg).j_total
                >= base - 1e-12
            )


# ---------------------------------------------------------------------------
# continuation bookkeeping
# ---------------------------------------------------------------------------


def test_continuation_contracts_hold(pair_std, tanh_report):
    _, report = tanh_report
    records = report.records
    for prev, rec in zip(records, records[1:]):
        assert rec.j_value <= prev.j_value + 1e-10 * (1.0 + abs(prev.j_value))
        assert rec.delta_term <= prev.delta_term * (rec.delta / prev.delta) * 1.1
    for rec in records:
        assert rec.delta_term >= 4.0 * rec.delta * (1.0 - 1e-12)
        assert rec.j_delta_value == pytest.approx(
            rec.j_value + rec.delta_term, rel=1e-14
        )


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


def test_continuation_determinism(pair_std):
    cfg = tanh_config(pair_std)
    a = continuation(cfg)
    b = continuation(tanh_config(pair_std))
    assert np.array_equal(a.u_final.values, b.u_final.values)
    assert [r.j_value for r in a.records] == [r.j_value for r in b.records]
    assert np.array_equal(a.stress_final.comp1, b.stress_final.comp1)


def test_store_fields_toggle(pair_std):
    cfg = tanh_config(pair_std, store_fields=True)
    report = continuation(cfg)
    for rec in report.records:
        assert rec.u is not None and rec.u.shape == cfg.grid.node_shape
    assert np.array_equal(report.records[-1].u, report.u_final.values)
    lean = continuation(tanh_config(pair_std))
    assert all(rec.u is None for rec in lean.records)


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
    # at 32^2 the cell area is a power of two, so h1 h2 (a + b) and
    # h1 h2 a + h1 h2 b round alike; p_reg = 4.5 makes rho_p' round
    # differently under any reordering of its factors
    cfg = tanh_config(pair_std, n=32, p_reg=p_reg)
    cfg = dataclasses.replace(cfg, delta_schedule=schedule)
    report = continuation(cfg)
    delta = cfg.delta_schedule[-1]
    last = report.records[-1]
    sigma, _, _ = stress(report.u_final, pair_std, delta, cfg.p_reg)
    assert np.array_equal(report.stress_final.comp1, sigma.comp1)
    assert np.array_equal(report.stress_final.comp2, sigma.comp2)
    res = divergence_residual(sigma)
    assert float(np.max(np.abs(res))) == last.euler_residual_max
    energy = eval_J_delta(report.u_final, pair_std, delta, cfg.p_reg)
    assert energy.j_f1 + energy.j_f2 == last.j_value
    assert energy.delta_term == last.delta_term


def test_continuation_loads_no_package_beyond_numpy():
    # a continuation needs numpy alone; scipy is imported lazily and only for
    # tabulated conjugates (scipy.fft alone adds about 24 MiB of resident memory)
    code = (
        "import sys, numpy as np\n"
        "top = lambda: {m.split('.')[0] for m in sys.modules}\n"
        "before = top()\n"
        "import splitvar as s\n"
        "g = s.Grid(16, 16)\n"
        "u0 = s.GridFunction.from_callable(g, lambda x, y: np.tanh(3 * x) + 0.2 * y)\n"
        "pair = s.make_pair(s.make_phi_nu(1.5), s.power_density2(2.0))\n"
        "s.continuation(s.SolveConfig(g, pair, u0, [1e-1, 1e-2, 1e-3]))\n"
        "print(sorted(top() - before - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitvar.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['splitvar']"


# ---------------------------------------------------------------------------
# multi-start uniqueness probe
# ---------------------------------------------------------------------------


def test_multi_start_validation(pair_std):
    cfg = tanh_config(pair_std)
    with pytest.raises(ValueError):
        multi_start(cfg, 1)
    with pytest.raises(ValueError):
        multi_start(cfg, 3, seeds=[1, 2])


def test_multi_start_identical_seeds_agree_exactly(pair_std):
    cfg = tanh_config(pair_std)
    out = multi_start(cfg, 2, seeds=[5, 5])
    assert out["max_gradient_discrepancy"] == 0.0


def test_multi_start_interior_gradients_agree(pair_std):
    cfg = tanh_config(pair_std)
    out = multi_start(cfg, 3)
    assert out["max_gradient_discrepancy"] <= 1e-6
    assert len(out["reports"]) == 3
    assert out["seeds"] == [0, 1, 2]
    finals = [r.records[-1].j_value for r in out["reports"]]
    assert max(finals) - min(finals) <= 1e-9 * (1.0 + abs(finals[0]))
