"""Acceptance gate: ten criteria, one test and one printed verdict each.

Every test prints ``ACCEPTANCE <n> PASS: <evidence>`` after its assertions,
so ``pytest -v -s tests/test_acceptance.py`` reads as a checklist.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from splitvar import (
    Grid,
    GridFunction,
    SolveConfig,
    approximation_experiment,
    continuation,
    duality_gap,
    eval_K,
    integrability_sweep,
    make_hencky,
    make_pair,
    make_phi_nu,
    multi_start,
    power_density2,
    predict_integrability,
    recession,
    stress,
)
from splitvar.energy import BVCandidate, JumpSegment
from tests.reference_conjugate import conjugate_scalar, young_residual

AFFINE_J = 20.0 - 8.0 * math.sqrt(3.0)  # 4*(phi_1.5(2) + 1)


def verdict(n, detail):
    print(f"ACCEPTANCE {n} PASS: {detail}")


def richardson_second(deriv, t, h=1e-4):
    def central(step):
        return (deriv(t + step) - deriv(t - step)) / (2.0 * step)

    return 2.0 * central(0.5 * h) - central(h)


@pytest.fixture(scope="module")
def crit4(pair_std):
    g = Grid(32, 32)
    x1, x2 = g.node_coords()
    u0 = GridFunction(g, 2.0 * x1[:, None] - x2[None, :] + np.zeros(g.node_shape))
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=u0,
        delta_schedule=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
        store_fields=True,
    )
    t0 = time.perf_counter()
    report = continuation(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, report, elapsed


def test_criterion_01_fenchel_kit():
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 50.0, 100)
    for p in (1.5, 2.0, 3.0):
        a = power_density2(p)
        q = p / (p - 1.0)
        for t in ts:
            scale = 1.0 + float(a.eval(t)) + t * float(a.deriv(t))
            assert young_residual(a, float(t)) <= 1e-8 * scale
        s_hi = float(a.deriv(50.0))
        for s in np.linspace(0.5, s_hi, 40):
            closed = (p - 1.0) * (s / p) ** q
            numeric = conjugate_scalar(a.eval, float(s))
            assert abs(numeric - closed) <= 1e-6 * max(1.0, abs(closed))
        assert conjugate_scalar(a.eval, 0.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    verdict(1, "Young<=1e-8 rel, conjugates match (p-1)(s/p)^q")


def test_criterion_02_phi_family():
    worst_fd = 0.0
    worst_rec = 0.0
    for nu in (1.2, 1.5, 1.9):
        phi = make_phi_nu(nu)
        assert float(phi.eval(0.0)) == 0.0
        for t in np.linspace(0.0, 100.0, 101):
            closed = float(phi.second_deriv(float(t)))
            fd = richardson_second(phi.deriv, float(t))
            rel = abs(fd - closed) / abs(closed)
            worst_fd = max(worst_fd, rel)
            assert rel <= 1e-6
        for sign in (1, -1):
            err = abs(recession(phi.eval, sign) - 1.0)
            worst_rec = max(worst_rec, err)
            assert err <= 1e-4
    verdict(2, f"FD rel err {worst_fd:.1e}, recession err {worst_rec:.1e}")


def test_criterion_03_hencky_branch_match():
    k, nu = 1.0, 1.0
    h = make_hencky(k, nu)
    s0 = k / (math.sqrt(2.0) * nu)
    quad_val = nu * s0 * s0
    lin_val = math.sqrt(2.0) * k * s0 - k * k / (2.0 * nu)
    assert abs(quad_val - lin_val) <= 1e-12
    assert abs(quad_val - 0.5) <= 1e-12
    assert abs(lin_val - 0.5) <= 1e-12
    quad_slope = 2.0 * nu * s0
    lin_slope = math.sqrt(2.0) * k
    assert abs(quad_slope - lin_slope) <= 1e-12
    assert abs(float(h.eval(s0)) - 0.5) <= 1e-12
    assert abs(float(h.deriv(s0)) - lin_slope) <= 1e-12
    verdict(3, "branches join C1 at 1/sqrt(2) with value 0.5")


def test_criterion_04_affine_oracle(crit4):
    cfg, report, elapsed = crit4
    u_err = float(np.max(np.abs(report.u_final.values - cfg.u0.values)))
    j_final = report.records[-1].j_value
    assert u_err <= 1e-6
    assert abs(j_final - AFFINE_J) <= 1e-8
    assert all(r.euler_residual_max <= 1e-8 for r in report.records)
    assert elapsed < 10.0
    verdict(
        4,
        f"nodal err {u_err:.1e}, |J-{AFFINE_J:.6f}|="
        f"{abs(j_final - AFFINE_J):.1e}",
    )


def test_criterion_05_duality(crit4):
    cfg, report, _ = crit4
    d = cfg.densities
    norms = {}
    final = None
    for rec in report.records:
        u_level = GridFunction(cfg.grid, rec.u)
        sigma, _, _ = stress(u_level, d, rec.delta, cfg.p_reg)
        dual = duality_gap(
            u_level, sigma, d, u0=cfg.u0, delta=rec.delta, p_reg=cfg.p_reg
        )
        assert dual.gap_absolute >= -1e-9
        norms[rec.delta] = dual.delta_stress_norm
        final = dual
    assert final.gap_relative <= 1e-3
    assert final.extremality_max_violation <= 1e-6
    ratio = norms[1e-6] / norms[1e-1]
    assert ratio <= 1e-3
    verdict(
        5,
        f"gap>=-1e-9 all levels, final rel gap {final.gap_relative:.1e}, "
        f"extremality {final.extremality_max_violation:.1e}, "
        f"dstress ratio {ratio:.1e}",
    )


def test_criterion_06_regularization_bookkeeping(crit4):
    _, report, _ = crit4
    terms = [r.delta_term for r in report.records]
    assert all(b < a for a, b in zip(terms, terms[1:]))
    ratio = terms[-1] / terms[0]
    assert ratio <= 1e-4
    verdict(6, f"delta_term decreasing, final/initial {ratio:.1e}")


def test_criterion_07_integrability_sweep(pair_std):
    t0 = time.perf_counter()
    g = Grid(64, 64)
    u0 = GridFunction.from_callable(
        g, lambda x1, x2: 2.0 * x1 - x2 + 0.5 * x1 * x2
    )
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=u0,
        delta_schedule=[1e-1, 1e-2, 1e-3, 1e-4],
        store_fields=True,
    )
    report = continuation(cfg)
    table = integrability_sweep(
        report, chis=[3.0, 4.0, 6.0], kappas=[4.0, 8.0], margin=0.1
    )
    flags = list(table.chi_flags.values()) + list(table.kappa_flags.values())
    assert flags == ["BOUNDED"] * 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    verdict(7, "chi {3,4,6} and kappa {4,8} all BOUNDED")


def test_criterion_08_relaxation_equality(pair_std):
    g = Grid(16, 16)
    w = BVCandidate(
        GridFunction(g, np.zeros(g.node_shape)),
        jumps=(JumpSegment(8, 0, 16, 1.0),),
    )
    x1 = g.node_coords()[0]
    u0 = GridFunction(
        g, np.broadcast_to((x1 > 0.0).astype(float)[:, None], g.node_shape).copy()
    )
    k_val = eval_K(w, pair_std, u0).j_total
    assert k_val == 2.0
    table = approximation_experiment(
        w, pair_std, widths=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    )
    dev = table.terminal_j_deviation
    assert dev <= 0.01 * k_val
    verdict(8, f"k_singular == 2 exactly, terminal |J-K| = {dev:.4f} <= 0.02")


def test_criterion_09_uniqueness_probe(crit4):
    cfg, _, _ = crit4
    lean = replace(cfg, store_fields=False)
    result = multi_start(lean, 5)
    worst = result["max_gradient_discrepancy"]
    assert worst <= 1e-5
    assert result["seeds"] == [0, 1, 2, 3, 4]
    verdict(9, f"5 seeded starts, interior gradient discrepancy {worst:.1e}")


def test_criterion_10_predictor():
    feasible = predict_integrability(3.0, 0.7)
    assert feasible.feasible
    assert feasible.chi > 4.0
    infeasible = predict_integrability(3.0, 0.8)
    assert not infeasible.feasible
    for p in (2.0, 3.0, 5.0):
        pred = predict_integrability(p, 0.0)
        assert math.isinf(pred.chi)
        assert pred.to_dict()["chi"] == "unbounded"
    verdict(
        10,
        f"(3,0.7) feasible chi={feasible.chi:.2f}>4, (3,0.8) infeasible, "
        "gamma=0 unbounded for p in {2,3,5}",
    )
