import dataclasses

import numpy as np
import pytest

from splitvar import _kernels, duality
from splitvar import (
    CellField2,
    Grid,
    GridFunction,
    SolveConfig,
    continuation,
    divergence_residual,
    duality_gap,
    eval_J,
    gradient,
    make_pair,
    power_density2,
    stress,
)
from tests.conftest import affine_field


@pytest.fixture(scope="module")
def affine_run(pair_std):
    g = Grid(16, 16)
    u0 = affine_field(g, 2.0, -1.0)
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=u0,
        delta_schedule=[1e-1, 1e-2, 1e-3, 1e-4],
        store_fields=True,
    )
    return cfg, continuation(cfg)


def final_stress(cfg, report):
    """The regularized stress of the last level, the certifiable dual candidate."""
    sigma, _, _ = stress(report.u_final, cfg.densities, cfg.delta_schedule[-1], cfg.p_reg)
    return sigma


# ---------------------------------------------------------------------------
# stress map
# ---------------------------------------------------------------------------


def test_stress_zero_field(pair_std):
    g = Grid(8, 8)
    u = GridFunction(g, np.zeros(g.node_shape))
    sigma, tau, x_delta = stress(u, pair_std, delta=0.1, p_reg=2.0)
    assert np.array_equal(tau.comp1, np.zeros((8, 8)))
    assert np.array_equal(tau.comp2, np.zeros((8, 8)))
    assert np.array_equal(x_delta, np.zeros((8, 8)))
    assert np.array_equal(sigma.comp1, np.zeros((8, 8)))


def test_stress_affine_slope_three(pair_std):
    # f1'(3) = 1 - (1+3)^(-1/2) = 0.5 exactly for the 1.5-exponent density
    g = Grid(16, 16)
    u = affine_field(g, 3.0, -1.0)
    _, tau, _ = stress(u, pair_std, delta=0.0, p_reg=2.0)
    assert np.allclose(tau.comp1, 0.5, atol=1e-12)
    assert np.allclose(tau.comp2, -2.0, atol=1e-12)


def test_stress_first_component_strictly_inside_recession(pair_std):
    g = Grid(8, 8)
    rng = np.random.default_rng(17)
    u = GridFunction(g, 10.0 * rng.standard_normal(g.node_shape))
    _, tau, _ = stress(u, pair_std, delta=0.0, p_reg=2.0)
    assert np.all(np.abs(tau.comp1) < 1.0)


def test_stress_regularizer_term_hand_values(pair_std):
    g = Grid(4, 4)
    u = affine_field(g, 2.0, 0.0)
    sigma2, tau2, x2 = stress(u, pair_std, delta=0.1, p_reg=2.0)
    # p=2: X = 2t, so sigma1 - tau1 = 0.1 * 4 = 0.4
    assert np.allclose(sigma2.comp1 - tau2.comp1, 0.4, atol=1e-13)
    assert np.allclose(x2, 4.0, atol=1e-13)
    u1 = affine_field(g, 1.0, 0.0)
    _, _, x3 = stress(u1, pair_std, delta=0.1, p_reg=3.0)
    # p=3: X = 3t(1+t^2)^(1/2) = 3*sqrt(2) at t=1
    assert np.allclose(x3, 3.0 * np.sqrt(2.0), atol=1e-12)


# ---------------------------------------------------------------------------
# dual objective
# ---------------------------------------------------------------------------


def test_eval_r_zero_stress(pair_std):
    g = Grid(8, 8)
    u0 = affine_field(g, 2.0, -1.0)
    tau = CellField2(g, np.zeros((8, 8)), np.zeros((8, 8)))
    dr = duality_gap(u0, tau, pair_std)
    assert dr.r_value == 0.0
    assert dr.certified


def test_eval_r_certifies_converged_stress(pair_std, affine_run):
    cfg, report = affine_run
    dr = duality_gap(report.u_final, final_stress(cfg, report), pair_std, u0=cfg.u0)
    assert dr.certified and dr.scale == 1.0
    assert dr.r_value <= eval_J(report.u_final, pair_std).j_total


def test_eval_r_rejects_wild_stress(pair_std):
    g = Grid(8, 8)
    u0 = affine_field(g, 2.0, -1.0)
    rng = np.random.default_rng(3)
    tau = CellField2(g, rng.uniform(-0.8, 0.8, (8, 8)), rng.standard_normal((8, 8)))
    assert not duality_gap(u0, tau, pair_std).certified


def test_eval_r_scales_out_of_range_stress_in(pair_std):
    # tau_1 = 1.5 lies beyond the recession slope 1, where f1* is infinite;
    # the certificate scales it to lambda*1.5 = f1'(1), the maximizer of
    # R(lambda) on affine data of slope 1, where R = J up to rounding
    g = Grid(4, 4)
    u0 = affine_field(g, 1.0, 0.0)
    tau = CellField2(g, np.full((4, 4), 1.5), np.zeros((4, 4)))
    dr = duality_gap(u0, tau, pair_std)
    # R is flat at its maximum: rounding places lambda to about sqrt(eps)
    assert dr.scale == pytest.approx((1.0 - 2.0**-0.5) / 1.5, rel=1e-7)
    assert dr.certified
    assert abs(dr.gap_absolute) <= 1e-12
    # either recession side: the negative stress is scaled in the same way
    flipped = CellField2(g, -tau.comp1, tau.comp2)
    dr = duality_gap(affine_field(g, -1.0, 0.0), flipped, pair_std)
    assert dr.scale == pytest.approx((1.0 - 2.0**-0.5) / 1.5, rel=1e-7)
    assert dr.certified and abs(dr.gap_absolute) <= 1e-12


def test_weak_duality_random_admissible_fields(pair_std, affine_run):
    # R at a certified stress lower-bounds J over fields with the same ring
    cfg, report = affine_run
    dr = duality_gap(report.u_final, final_stress(cfg, report), pair_std, u0=cfg.u0)
    assert dr.certified
    rng = np.random.default_rng(8)
    for _ in range(5):
        values = cfg.u0.values.copy()
        values[1:-1, 1:-1] += rng.standard_normal((15, 15))
        v = GridFunction(cfg.grid, values)
        assert eval_J(v, pair_std).j_total >= dr.r_value - 1e-9


def test_constant_stress_cannot_beat_slope_map(pair_std):
    # among constant (hence divergence-free) stresses the slope map of the
    # boundary gradient maximizes R; any in-range constant stays below it
    g = Grid(16, 16)
    u0 = affine_field(g, 2.0, -1.0)
    _, tau_star, _ = stress(u0, pair_std, delta=0.0, p_reg=2.0)
    r_star = duality_gap(u0, tau_star, pair_std).r_value
    rng = np.random.default_rng(23)
    for _ in range(12):
        c1 = float(rng.uniform(-0.95, 0.95))
        c2 = float(rng.uniform(-4.0, 4.0))
        tau_c = CellField2(g, np.full((16, 16), c1), np.full((16, 16), c2))
        dr = duality_gap(u0, tau_c, pair_std)
        assert dr.certified  # constants scatter to exact zeros
        assert dr.r_value <= r_star + 1e-9


def test_step_levels_certify_with_scaled_stress(pair_std):
    # on the paper's jump scenario at 128^2 the regularized stress leaves the
    # recession interval at delta = 1e-1 and 1e-2 (max|sigma_1| = 9.9 and
    # 2.0); each level still certifies a lower bound
    g = Grid(128, 128)
    u0 = GridFunction.from_callable(g, lambda x, y: np.where(x < 0.0, 0.0, 1.0) + 0.0 * y)
    cfg = SolveConfig(g, pair_std, u0, [1e-1, 1e-2, 1e-3], store_fields=True)
    scales = []
    for rec in continuation(cfg).records:
        u = GridFunction(g, rec.u)
        sigma, _, _ = stress(u, pair_std, rec.delta, cfg.p_reg)
        dr = duality_gap(u, sigma, pair_std, u0=u0, delta=rec.delta, p_reg=cfg.p_reg)
        assert dr.certified
        assert -1e-9 * (1.0 + abs(dr.j_value)) <= dr.gap_absolute < 1.0
        scales.append(dr.scale)
    assert scales[0] < scales[1] < 1.0 == scales[2]


# ---------------------------------------------------------------------------
# extremality
# ---------------------------------------------------------------------------


def test_extremality_zero_fields(pair_std):
    g = Grid(8, 8)
    u = GridFunction(g, np.zeros(g.node_shape))
    tau = CellField2(g, np.zeros((8, 8)), np.zeros((8, 8)))
    assert duality._extremality(gradient(u), tau, pair_std) == 0.0


def test_extremality_exact_at_slope_map(pair_std):
    g = Grid(16, 16)
    u = affine_field(g, 3.0, -1.0)
    _, tau, _ = stress(u, pair_std, delta=0.0, p_reg=2.0)
    assert duality._extremality(gradient(u), tau, pair_std) <= 1e-12


def test_extremality_detects_perturbation(pair_std):
    g = Grid(16, 16)
    u = affine_field(g, 3.0, -1.0)
    _, tau, _ = stress(u, pair_std, delta=0.0, p_reg=2.0)
    tau.comp1[4, 7] += 0.1
    assert duality._extremality(gradient(u), tau, pair_std) >= 1e-3


def test_fenchel_young_pointwise_inequality(pair_std):
    # f(grad u) + f*(tau) >= tau . grad u cell by cell for any in-range tau
    g = Grid(8, 8)
    rng = np.random.default_rng(31)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    field = gradient(u)
    tau1 = rng.uniform(-0.9, 0.9, (8, 8))
    tau2 = rng.standard_normal((8, 8))
    lhs = (
        np.asarray(pair_std.f1.eval(field.comp1))
        + np.asarray(pair_std.f2.eval(field.comp2))
        + np.asarray(pair_std.conjugate_f1(tau1))
        + np.asarray(pair_std.conjugate_f2(tau2))
    )
    pairing = tau1 * field.comp1 + tau2 * field.comp2
    assert np.all(lhs - pairing >= -1e-9)


# ---------------------------------------------------------------------------
# assembled report
# ---------------------------------------------------------------------------


def test_dual_report_keys(pair_std, affine_run):
    cfg, report = affine_run
    dr = duality_gap(report.u_final, final_stress(cfg, report), pair_std, u0=cfg.u0)
    payload = dr.to_dict()
    assert {
        "r",
        "gap_abs",
        "gap_rel",
        "div_residual",
        "extremality",
        "delta_stress_norm",
        "scale",
    } <= set(payload)
    assert payload["scale"] == 1.0


def test_gap_shrinks_along_schedule(pair_std, affine_run):
    cfg, report = affine_run
    gaps, norms = [], []
    for rec in report.records:
        u = GridFunction(cfg.grid, rec.u)
        sigma, _, _ = stress(u, pair_std, rec.delta, cfg.p_reg)
        dr = duality_gap(
            u, sigma, pair_std, u0=cfg.u0, delta=rec.delta, p_reg=cfg.p_reg
        )
        assert dr.gap_absolute >= -1e-9
        assert dr.certified
        assert dr.extremality_max_violation <= 1e-10
        gaps.append(dr.gap_absolute)
        norms.append(dr.delta_stress_norm)
    assert all(b <= a * 1.1 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-3 * (1.0 + abs(report.records[-1].j_value))
    # the vanishing stress is linear in delta: norm = 8 * delta here
    deltas = [rec.delta for rec in report.records]
    assert np.allclose(norms, [8.0 * d for d in deltas], rtol=1e-12)


def test_duality_gap_defaults_u0_to_u(pair_std, affine_run):
    cfg, report = affine_run
    dr = duality_gap(report.u_final, final_stress(cfg, report), pair_std)
    assert dr.gap_absolute >= -1e-9


def composed_gap(u, tau, d, u0, delta, p_reg):
    """The gap report assembled from its definitions, each piece forming its
    own gradients and residuals (the reference for the shared-work version;
    tau_1 lies inside the recession interval, so the scale is 1)."""
    j_value = eval_J(u, d).j_total
    g0 = gradient(u0)
    conj1 = np.asarray(d.conjugate_f1(tau.comp1))
    conj2 = np.asarray(d.conjugate_f2(tau.comp2))
    pairing = tau.comp1 * g0.comp1 + tau.comp2 * g0.comp2
    r_value = g0.grid.cell_area * float(np.sum(pairing - conj1 - conj2))
    res_max = float(np.max(np.abs(divergence_residual(tau))))
    _, tau_young, x_delta = stress(u, d, delta, p_reg)
    q = p_reg / (p_reg - 1.0)
    norm_q = (
        u.grid.cell_area * float(np.sum(np.abs(delta * x_delta) ** q))
    ) ** (1.0 / q)
    return (
        j_value,
        r_value,
        j_value - r_value,
        (j_value - r_value) / (1.0 + abs(j_value)),
        res_max,
        res_max <= duality.DIV_TOL,
        duality._extremality(gradient(u), tau_young, d),
        norm_q,
        1.0,
    )


@pytest.mark.parametrize(
    "data",
    [
        lambda x, y: np.tanh(3.0 * x) + 0.2 * y,
        lambda x, y: np.where(x < 0.0, 0.0, 1.0) + 0.0 * y,
    ],
    ids=["tanh", "step"],
)
def test_duality_gap_bitwise_equal_to_composed_report(pair_std, data, monkeypatch):
    g = Grid(32, 32)
    u0 = GridFunction.from_callable(g, data)
    delta = 1e-2
    cfg = SolveConfig(grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1, delta])
    u = continuation(cfg).u_final
    sigma, _, _ = stress(u, pair_std, delta, cfg.p_reg)
    kwargs = dict(u0=cfg.u0, delta=delta, p_reg=cfg.p_reg)
    calls = {"cell_gradient": 0, "scatter_adjoint": 0}
    for name in calls:
        original = getattr(_kernels, name)

        def counted(*a, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*a)

        monkeypatch.setattr(_kernels, name, counted)
    dr = duality_gap(u, sigma, pair_std, **kwargs)
    # one gradient each of u and u0, one residual of tau
    assert calls == {"cell_gradient": 2, "scatter_adjoint": 1}
    # repr tells -0.0 from 0.0
    expect = composed_gap(u, sigma, pair_std, **kwargs)
    assert list(map(repr, dataclasses.astuple(dr))) == list(map(repr, expect))


@pytest.mark.parametrize("p_reg", [1.0, 1.5, float("nan"), float("inf")])
def test_invalid_p_reg_is_an_input_error(pair_std, p_reg):
    # p_reg = 1 made the dual exponent p/(p-1) divide by zero, and nan gave
    # a NaN certificate
    u = affine_field(Grid(4, 4), 1.0, 1.0)
    _, tau, _ = stress(u, pair_std, 0.1, 2.0)
    with pytest.raises(ValueError, match="p_reg must be finite and >= 2"):
        stress(u, pair_std, 0.1, p_reg)
    with pytest.raises(ValueError, match="p_reg must be finite and >= 2"):
        duality_gap(u, tau, pair_std, u0=u, delta=0.1, p_reg=p_reg)


@pytest.mark.parametrize("delta", [-1.0, float("nan"), float("inf")])
def test_invalid_delta_is_an_input_error(pair_std, delta):
    # nan and -1 reported a delta_stress_norm of 0.0, and stress returned
    # a NaN field for nan
    u = affine_field(Grid(4, 4), 1.0, 1.0)
    _, tau, _ = stress(u, pair_std, 0.1, 2.0)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        duality_gap(u, tau, pair_std, u0=u, delta=delta)
    with pytest.raises(ValueError, match="delta must be finite and >= 0"):
        stress(u, pair_std, delta, 2.0)


def test_duality_gap_rejects_tau_or_u0_off_the_grid_of_u(pair_std):
    # a 4x4 u0 with an 8x8 u failed in the dual value with a numpy broadcast error
    u = affine_field(Grid(8, 8), 1.0, 1.0)
    small = affine_field(Grid(4, 4), 1.0, 1.0)
    tau, small_tau = (stress(v, pair_std, 0.1, 2.0)[1] for v in (u, small))

    def no_conjugate(s):
        raise AssertionError("duality_gap evaluated a conjugate before its check")

    pair = dataclasses.replace(pair_std, conjugate_f1=no_conjugate, conjugate_f2=no_conjugate)
    with pytest.raises(ValueError, match="^tau grid does not match the grid of u$"):
        duality_gap(u, small_tau, pair, u0=u)
    with pytest.raises(ValueError, match="^u0 grid does not match the grid of u$"):
        duality_gap(u, tau, pair, u0=small)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_duality_gap_rejects_a_non_finite_tau_or_u0(pair_std, bad):
    # a nan cell of tau gave r = nan, gap = nan and certified False, and a
    # nan cell of u0 r = nan with certified True, with no error or warning;
    # a non-finite u0 now fails to construct, as every GridFunction does
    u = affine_field(Grid(8, 8), 2.0, -1.0)
    _, tau, _ = stress(u, pair_std, 0.0, 2.0)

    def no_conjugate(s):
        raise AssertionError("duality_gap evaluated a conjugate before its check")

    pair = dataclasses.replace(pair_std, conjugate_f1=no_conjugate, conjugate_f2=no_conjugate)
    for comp in ("comp1", "comp2"):
        arrays = {"comp1": tau.comp1.copy(), "comp2": tau.comp2.copy()}
        arrays[comp][3, 4] = bad
        with pytest.raises(ValueError, match="^tau holds a non-finite value$"):
            duality_gap(u, CellField2(u.grid, **arrays), pair, u0=u)
    values = u.values.copy()
    values[4, 4] = bad
    with pytest.raises(ValueError, match="holds a non-finite value$"):
        GridFunction(u.grid, values)
    # nor can a built one take a non-finite value: the write itself fails
    with pytest.raises(ValueError, match="read-only"):
        u.values[4, 4] = bad
    assert duality_gap(u, tau, pair_std, u0=u).certified


def test_stress_none_p_reg_is_f2_default(phi15):
    pair = make_pair(phi15, power_density2(3.0))
    u = GridFunction.from_callable(Grid(8, 8), lambda x, y: np.tanh(3.0 * x) + 0.2 * y)
    (sigma, _, x), (sigma3, _, x3) = stress(u, pair, 0.1, None), stress(u, pair, 0.1, 3.0)
    assert np.array_equal(sigma.comp1, sigma3.comp1)
    assert np.array_equal(x, x3)


def test_duality_gap_default_p_reg_is_the_solvers(phi15):
    # with f2 = power:3 the solver regularizes with exponent 3, and so must
    # the reported norm of the vanishing stress when p_reg is left out
    pair = make_pair(phi15, power_density2(3.0))
    g = Grid(16, 16)
    u0 = GridFunction.from_callable(g, lambda x, y: np.tanh(3.0 * x) + 0.2 * y)
    cfg = SolveConfig(grid=g, densities=pair, u0=u0, delta_schedule=[1e-2])
    assert cfg.p_reg == 3.0
    sigma, _, _ = stress(u0, pair, 1e-2, cfg.p_reg)
    default = duality_gap(u0, sigma, pair, delta=1e-2)
    explicit = duality_gap(u0, sigma, pair, delta=1e-2, p_reg=cfg.p_reg)
    assert list(map(repr, dataclasses.astuple(default))) == list(
        map(repr, dataclasses.astuple(explicit))
    )
    assert default.delta_stress_norm != duality_gap(
        u0, sigma, pair, delta=1e-2, p_reg=2.0
    ).delta_stress_norm
