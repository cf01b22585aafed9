import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitvar import (
    ConjugateBoundaryWarning,
    ConjugateRangeError,
    Density1Spec,
    Density2Spec,
    NonConcaveObjectiveError,
    NonLinearGrowthError,
    check_condition_dual4,
    conjugate_scalar,
    conjugate_via_slope_inversion,
    density_from_id,
    make_hencky,
    make_pair,
    make_phi_nu,
    power_density2,
    power_nfunction,
    predict_integrability,
    recession,
    smooth_power_density2,
    tabulate_conjugate,
    tlog_density2,
    tlog_nfunction,
    validate_density1,
    validate_density2,
    validate_nfunction,
    young_residual,
)
from splitvar.densities import regularizer, regularizer_deriv, regularizer_second_deriv


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def scan_conjugate(g, s, t_hi, n=2_000_001):
    """Dense grid-scan supremum of s*t - g(t); brute-force conjugate oracle."""
    ts = np.linspace(0.0, t_hi, n)
    return float(np.max(s * ts - np.asarray(g(ts))))


def fd_second_derivative(deriv, t, h=1e-4):
    """Second derivative from central differences of the first derivative.

    The plain central quotient has an O(h) defect where an even density has
    a third-derivative jump (t = 0); the two-level combination cancels the
    leading term there while staying O(h^2) elsewhere.
    """

    def central(step):
        return (deriv(t + step) - deriv(t - step)) / (2.0 * step)

    return 2.0 * central(0.5 * h) - central(h)


# ---------------------------------------------------------------------------
# conjugate_scalar
# ---------------------------------------------------------------------------


def test_conjugate_quadratic_self_dual():
    # t^2/2 is its own conjugate, so the value at s=3 is 4.5
    val = conjugate_scalar(lambda t: 0.5 * t * t, 3.0, t_max=100.0)
    assert val == pytest.approx(4.5, abs=1e-9)


def test_conjugate_power_closed_form_and_scan():
    p, s = 3.0, 2.0
    exact = 2.0 ** 1.5 * (2.0 / 3.0)
    val = conjugate_scalar(lambda t: np.abs(t) ** p / p, s, t_max=100.0)
    assert val == pytest.approx(exact, rel=1e-9)
    assert val == pytest.approx(scan_conjugate(lambda t: t**p / p, s, 5.0), rel=1e-7)


def test_conjugate_zero_slope_is_zero():
    assert conjugate_scalar(lambda t: np.abs(t) ** 1.5, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_conjugate_rejects_wiggly_objective():
    with pytest.raises(NonConcaveObjectiveError):
        conjugate_scalar(np.cos, 0.0, t_max=50.0)


def test_conjugate_boundary_flag():
    # slope beyond the recession slope of |t|: maximizer escapes to the cap
    with pytest.warns(ConjugateBoundaryWarning):
        conjugate_scalar(np.abs, 2.0, t_max=1e4)
    with pytest.raises(ConjugateRangeError):
        conjugate_scalar(np.abs, 2.0, t_max=1e4, strict=True)


def test_slope_inversion_matches_closed_forms(phi15):
    for s in (0.2, 1.0, 3.5):
        got = conjugate_via_slope_inversion(
            lambda t: t**3 / 3.0, lambda t: t**2, s
        )
        assert float(got) == pytest.approx((2.0 / 3.0) * s**1.5, rel=1e-10)
    # same route on the linear-growth density, against its closed conjugate
    for s in (0.1, 0.5, 0.9):
        got = conjugate_via_slope_inversion(phi15.eval, phi15.deriv, s)
        assert float(got) == pytest.approx(phi15.conjugate(s), rel=1e-9, abs=1e-12)


def test_tabulated_conjugate():
    conj = tabulate_conjugate(lambda t: t * t, 4.0, n=257)
    # table nodes carry the refined search values
    nodes = np.linspace(0.0, 4.0, 257)
    assert np.allclose(conj(nodes), nodes * nodes / 4.0, rtol=1e-8, atol=1e-10)
    # between nodes the monotone interpolant is only shape-preserving; near
    # s=0 the values vanish quadratically so the bound is absolute there
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    assert np.allclose(conj(mids), mids * mids / 4.0, rtol=1e-6, atol=5e-6)
    with pytest.raises(ConjugateRangeError):
        conj(4.5)
    with pytest.raises(ConjugateRangeError):
        conj(-0.1)


# ---------------------------------------------------------------------------
# Young residual and the conjugate-growth condition
# ---------------------------------------------------------------------------


def test_young_residual_quadratic_exact():
    a = power_nfunction(2.0, coef=0.5)
    assert young_residual(a, 2.0) == 0.0


def test_young_residual_cubic():
    a = power_nfunction(3.0, coef=1.0 / 3.0)
    t = 1.7
    assert young_residual(a, t) <= 1e-8 * (1.0 + t * float(a.deriv(t)))


def test_young_residual_zero_point():
    for a in (power_nfunction(1.5), tlog_nfunction()):
        assert young_residual(a, 0.0) == 0.0


def test_condition_dual4_quadratic():
    a = power_nfunction(2.0, coef=0.5)
    c_fit, holds = check_condition_dual4(a, np.linspace(0.0, 50.0, 40))
    assert holds
    assert c_fit <= 1.0 + 1e-12


def test_condition_dual4_quartic():
    # A*(A'(t)) = (p-1) A(t), so the fitted constant approaches p-1 = 3
    a = power_nfunction(4.0, coef=0.25)
    c_fit, holds = check_condition_dual4(a, np.linspace(0.0, 50.0, 60))
    assert holds
    assert c_fit == pytest.approx(3.0, rel=1e-3)


def test_condition_dual4_degenerate_origin():
    c_fit, holds = check_condition_dual4(power_nfunction(2.0), [0.0])
    assert c_fit == 0.0
    assert holds


# ---------------------------------------------------------------------------
# recession slopes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.9])
def test_recession_phi_family(nu):
    f = make_phi_nu(nu)
    for sign in (+1, -1):
        assert recession(f.eval, sign) == pytest.approx(1.0, abs=1e-4)


def test_recession_absolute_value():
    assert recession(np.abs, -1) == pytest.approx(1.0, abs=1e-12)


def test_recession_rejects_superlinear():
    with pytest.raises(NonLinearGrowthError):
        recession(lambda t: t * t, +1)


def test_recession_sign_validation():
    with pytest.raises(ValueError):
        recession(np.abs, 2)


# ---------------------------------------------------------------------------
# the linear-growth family
# ---------------------------------------------------------------------------


def test_phi_nu_values(phi15):
    assert phi15.eval(0.0) == 0.0
    assert phi15.second_deriv(0.0) == pytest.approx(0.5, abs=1e-15)
    assert phi15.eval(1e6) / 1e6 == pytest.approx(1.0, abs=2e-3)
    assert phi15.recession_plus == 1.0 and phi15.recession_minus == 1.0
    assert phi15.mu == 1.5 and phi15.gamma == 0.0


@pytest.mark.parametrize("nu", [1.0, 2.0, 0.5, 2.5])
def test_phi_nu_domain(nu):
    with pytest.raises(ValueError):
        make_phi_nu(nu)


def test_phi_nu_even_and_odd_parts():
    f = make_phi_nu(1.3)
    ts = np.linspace(0.0, 20.0, 37)
    assert np.array_equal(f.eval(ts), f.eval(-ts))
    assert np.array_equal(f.deriv(ts), -np.asarray(f.deriv(-ts)))


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.9])
def test_phi_second_derivative_vs_finite_differences(nu):
    f = make_phi_nu(nu)
    for t in np.concatenate([[0.0], np.linspace(0.02, 100.0, 97)]):
        fd = fd_second_derivative(f.deriv, float(t))
        assert fd == pytest.approx(float(f.second_deriv(t)), rel=1e-6)


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.9])
def test_phi_curvature_normalization(nu):
    f = make_phi_nu(nu)
    ts = np.linspace(0.0, 100.0, 201)
    vals = np.asarray(f.second_deriv(ts)) * (1.0 + ts) ** nu
    assert np.allclose(vals, nu - 1.0, atol=1e-10)


def test_phi_conjugate_range(phi15):
    with pytest.raises(ConjugateRangeError):
        phi15.conjugate(1.0)
    with pytest.raises(ConjugateRangeError):
        phi15.conjugate(-1.5)
    assert math.isfinite(phi15.conjugate(0.999999))


def test_phi_conjugate_young_identity(phi15):
    # closed conjugate is exact along the slope map
    for t in (-7.0, -0.4, 0.0, 1.3, 25.0):
        slope = float(phi15.deriv(t))
        defect = phi15.eval(t) + phi15.conjugate(slope) - t * slope
        assert abs(defect) <= 1e-10 * (1.0 + abs(t * slope))


def test_phi_biconjugate_recovers_density(phi15):
    for t in (0.5, 3.0):
        val = conjugate_scalar(lambda s: phi15.conjugate(s), t, t_max=1.0 - 1e-9)
        assert val == pytest.approx(float(phi15.eval(t)), rel=1e-6)


def test_power_biconjugate_recovers_density():
    def g(t):
        return np.abs(t) ** 3 / 3.0

    def conj(s):
        if np.ndim(s) == 0:
            return conjugate_scalar(g, float(s), t_max=1e3)
        return np.array([conjugate_scalar(g, float(x), t_max=1e3) for x in s])

    for t in (0.5, 2.0, 10.0):
        val = conjugate_scalar(conj, t, t_max=1e3)
        assert val == pytest.approx(t**3 / 3.0, rel=1e-6)


# ---------------------------------------------------------------------------
# Hencky branch structure
# ---------------------------------------------------------------------------


def test_hencky_branch_values():
    h = make_hencky(1.0, 1.0)
    s0 = 1.0 / math.sqrt(2.0)
    quadratic = 1.0 * s0 * s0
    linear = math.sqrt(2.0) * 1.0 * s0 - 1.0 / 2.0
    assert abs(quadratic - linear) <= 1e-12
    assert abs(float(h.eval(s0)) - 0.5) <= 1e-12
    assert h.eval(0.0) == 0.0


def test_hencky_c1_matching():
    h = make_hencky(1.0, 1.0)
    s0 = 1.0 / math.sqrt(2.0)
    below = float(h.deriv(s0 * (1.0 - 1e-13)))
    above = float(h.deriv(s0 * (1.0 + 1e-13)))
    assert abs(below - above) <= 1e-12
    assert above == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_hencky_conjugate():
    h = make_hencky(1.0, 1.0)
    assert h.conjugate(1.0) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ConjugateRangeError):
        h.conjugate(1.5)  # beyond the recession slope sqrt(2)


@pytest.mark.parametrize("k,nu", [(0.0, 1.0), (1.0, -2.0)])
def test_hencky_domain(k, nu):
    with pytest.raises(ValueError):
        make_hencky(k, nu)


def test_hencky_not_usable_as_f2():
    with pytest.raises(ValueError):
        make_pair(make_phi_nu(1.5), make_hencky(1.0, 1.0))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        density_from_id("hencky:1:1", "f2")


# ---------------------------------------------------------------------------
# N-functions and superlinear densities
# ---------------------------------------------------------------------------


def test_validate_power_nfunction():
    report = validate_nfunction(power_nfunction(2.0))
    assert report["ok"], report


def test_validate_tlog_nfunction():
    a = tlog_nfunction()
    report = validate_nfunction(a)
    assert report["ok"], report
    # doubling constant explicitly: (1+2t) <= (1+t)^2 gives k = 4 past t0 = 1
    assert a.delta2_k == 4.0 and a.delta2_t0 == 1.0
    assert a.growth_p == 1.0


def test_validate_density1_reports(phi15):
    report = validate_density1(phi15)
    assert report["ok"], report
    assert report["c1_fit"] > 0.0
    hencky_report = validate_density1(make_hencky(1.0, 1.0))
    assert hencky_report["ok"], hencky_report
    assert hencky_report["c1_fit"] is None  # curvature vanishes past the branch


def test_validate_density2_reports(power2):
    report = validate_density2(power2)
    assert report["ok"], report
    assert report["c3_fit"] == pytest.approx(2.0, rel=1e-6)
    tlog_report = validate_density2(tlog_density2())
    assert tlog_report["ok"], tlog_report
    smooth_report = validate_density2(smooth_power_density2(3.0))
    assert smooth_report["ok"], smooth_report


@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_regularizer_derivatives_match_central_differences(p):
    t = np.linspace(-3.0, 3.0, 61)
    h = 1e-5
    fd1 = (regularizer(t + h, p) - regularizer(t - h, p)) / (2.0 * h)
    assert np.allclose(regularizer_deriv(t, p), fd1, rtol=1e-8, atol=1e-9)
    h = 1e-4
    fd2 = (regularizer(t + h, p) - 2.0 * regularizer(t, p) + regularizer(t - h, p))
    fd2 /= h**2
    assert np.allclose(regularizer_second_deriv(t, p), fd2, rtol=1e-5, atol=1e-5)
    # the smooth power density is the regularizer shifted to vanish at zero
    f2 = smooth_power_density2(p)
    assert np.array_equal(f2.eval(t), regularizer(t, p) - 1.0)
    assert np.array_equal(f2.deriv(t), regularizer_deriv(t, p))
    assert np.array_equal(f2.second_deriv(t), regularizer_second_deriv(t, p))


def test_density_pair_split_additivity(pair_std):
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((2, 50)) * 3.0
    total = pair_std.eval(x1, x2)
    parts = np.asarray(pair_std.f1.eval(x1)) + np.asarray(pair_std.f2.eval(x2))
    assert np.array_equal(total, parts)
    s1 = rng.uniform(-0.9, 0.9, 50)
    s2 = rng.standard_normal(50) * 3.0
    conj = pair_std.conjugate(s1, s2)
    conj_parts = np.asarray(pair_std.conjugate_f1(s1)) + np.asarray(
        pair_std.conjugate_f2(s2)
    )
    assert np.array_equal(conj, conj_parts)


def test_power_density2_second_derivative_quadratic(power2):
    ts = np.linspace(-5.0, 5.0, 11)
    assert np.allclose(power2.second_deriv(ts), 2.0)
    assert power2.c3 == 2.0 and power2.p == 2.0


def test_density_ids_resolve():
    assert isinstance(density_from_id("phi_nu:1.5", "f1"), Density1Spec)
    assert isinstance(density_from_id("hencky:1:1", "f1"), Density1Spec)
    assert isinstance(density_from_id("power:2", "f2"), Density2Spec)
    assert isinstance(density_from_id("nfun_tlog", "f2"), Density2Spec)
    with pytest.raises(ValueError):
        density_from_id("power:2", "f1")
    with pytest.raises(ValueError):
        density_from_id("mystery:3", "f1")
    with pytest.raises(ValueError):
        density_from_id("phi_nu:0.9", "f1")
    with pytest.raises(ValueError):
        density_from_id("phi_nu:1.5", "slot3")


def test_make_pair_rejects_linear_growth_f2(phi15):
    with pytest.raises(ValueError):
        make_pair(phi15, make_phi_nu(1.2))  # type: ignore[arg-type]


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.3, max_value=4.0),
    s=st.floats(min_value=0.0, max_value=30.0),
    t=st.floats(min_value=0.0, max_value=30.0),
)
def test_fenchel_young_inequality(p, s, t):
    a = power_nfunction(p)
    lhs = s * t
    rhs = float(a.eval(t)) + float(a.conjugate(s))
    assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=80.0), lam=st.floats(min_value=0.0, max_value=1.0))
def test_phi_convexity_property(t, lam):
    f = make_phi_nu(1.7)
    t2 = 100.0 - t
    mix = lam * t + (1.0 - lam) * t2
    lhs = float(f.eval(mix))
    rhs = lam * float(f.eval(t)) + (1.0 - lam) * float(f.eval(t2))
    assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# integrability predictor
# ---------------------------------------------------------------------------


def test_predictor_gamma_zero_cases():
    for p in (2.0, 3.0, 5.0):
        pred = predict_integrability(p, 0.0)
        assert pred.feasible and math.isinf(pred.chi)
        assert pred.which_case == "gamma-zero"
        assert pred.to_dict()["chi"] == "unbounded"


def test_predictor_small_gamma():
    pred = predict_integrability(3.0, 0.7)
    assert pred.feasible
    assert pred.chi > 4.0  # strictly beyond p + 1
    assert abs(pred.tau_s - pred.tau_alpha) < 0.5
    bound = (3.0 - 1.0 + 2.0 * (pred.tau_s - pred.tau_alpha)) / (3.0 + 2.0 * pred.tau_s)
    assert 0.7 < bound


def test_predictor_infeasible_case():
    pred = predict_integrability(3.0, 0.8)
    assert not pred.feasible
    assert pred.which_case == "infeasible"
    assert pred.chi is None


def test_predictor_near_threshold_still_beats_p_plus_one():
    # gamma just below p/(p+1) = 0.75
    pred = predict_integrability(3.0, 0.7499)
    assert pred.feasible and pred.chi > 4.0


def test_predictor_full_gradient_flag():
    pred = predict_integrability(2.0, 0.0, mu=1.5)
    assert pred.full_gradient and pred.which_case == "full-gradient"
    assert pred.full_gradient_margin == pytest.approx(1.5)
    blunt = predict_integrability(2.0, 0.0, mu=1.99)
    assert blunt.full_gradient and blunt.full_gradient_margin == pytest.approx(0.03)


def test_predictor_monotone_in_gamma():
    chis = []
    for gamma in (0.0, 0.1, 0.3, 0.5, 0.7, 0.74):
        pred = predict_integrability(3.0, gamma)
        assert pred.feasible
        chis.append(pred.chi)
    assert all(a >= b for a, b in zip(chis, chis[1:]))


def test_predictor_domain_errors():
    with pytest.raises(ValueError):
        predict_integrability(1.0, 0.0)
    with pytest.raises(ValueError):
        predict_integrability(2.0, -0.1)
    with pytest.raises(ValueError):
        predict_integrability(2.0, 0.0, mu=1.0)
