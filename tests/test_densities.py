import dataclasses
import math

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
    conjugate_scalar,
    conjugate_via_slope_inversion,
    density_from_id,
    make_hencky,
    make_pair,
    make_phi_nu,
    power_density2,
    predict_integrability,
    recession,
    tlog_density2,
    young_residual,
)
from splitvar.densities import (
    _invert_slope,
    _pointwise,
    regularizer,
    regularizer_deriv,
    regularizer_second_deriv,
)

# zero plus a log-spaced sweep, where the hypothesis constants are checked
FIT_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 199)])
SIGNED_GRID = np.concatenate([-FIT_GRID[:0:-1], FIT_GRID])


def smooth_power3():
    """f2(t) = rho_3(t) - 1, an f2 with no closed-form conjugate; the value is
    expm1(3/2 log1p(t**2)), which keeps full relative accuracy at small t,
    and the conjugate inverts the slope map at |s|."""
    f2 = _pointwise(lambda t: np.expm1(1.5 * np.log1p(t * t)))
    df2 = _pointwise(lambda t: regularizer_deriv(t, 3.0))
    return Density2Spec(
        eval=f2,
        deriv=df2,
        second_deriv=_pointwise(lambda t: regularizer_second_deriv(t, 3.0)),
        p=3.0,
        conjugate=lambda s: conjugate_via_slope_inversion(f2, df2, np.abs(s)),
        name="smooth_power:3",
    )


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def scan_conjugate(g, s, t_hi, n=2_000_001):
    """Dense grid-scan supremum of s*t - g(t); brute-force conjugate oracle."""
    ts = np.linspace(0.0, t_hi, n)
    return float(np.max(s * ts - np.asarray(g(ts))))


def loop_inversion(deriv, slopes):
    """One bracketed bisection per slope, the loop ``_invert_slope`` replaces."""
    out = []
    for s in slopes:
        a, b = 0.0, 1.0
        while float(deriv(b)) < s:
            b *= 2.0
        for _ in range(200):
            mid = 0.5 * (a + b)
            if float(deriv(mid)) < s:
                a = mid
            else:
                b = mid
            if b - a <= 1e-15 * max(1.0, abs(b)):
                break
        out.append(0.5 * (a + b))
    return np.array(out)


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


def test_conjugate_rejects_non_finite_objective():
    with pytest.raises(ValueError, match="not finite"):
        conjugate_scalar(lambda t: np.where(t > 1.0, np.inf, t * t), 1.0)


def test_conjugate_boundary_flag():
    # slope beyond the recession slope of |t|: maximizer escapes to the cap
    with pytest.warns(ConjugateBoundaryWarning):
        conjugate_scalar(np.abs, 2.0, t_max=1e4)


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
    # whole arrays: slopes at or below g'(0) = 0 give -g(0), the rest invert
    slopes = np.array([[-1.0, 0.0, 0.2], [1.0, 3.5, 9.0]])
    got = conjugate_via_slope_inversion(lambda t: t**3 / 3.0, lambda t: t**2, slopes)
    assert got.shape == slopes.shape
    want = (2.0 / 3.0) * np.maximum(slopes, 0.0) ** 1.5
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "deriv,s_hi",
    [(tlog_density2().deriv, 25.0), (smooth_power3().deriv, 1e4)],
    ids=["nfun_tlog", "smooth_power_3"],
)
def test_invert_slope_matches_per_entry_bisection(deriv, s_hi):
    slopes = np.random.default_rng(11).uniform(1e-3, s_hi, 200)
    got = _invert_slope(deriv, slopes)
    want = loop_inversion(deriv, slopes)
    # array and scalar calls of deriv may round apart, which can move a
    # bisection step by one bracket width: 1e-15*max(1, |t|), twice over
    assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize(
    "ident,s_max,floor",
    [
        ("power:1.5", 6.0, 0.0),
        ("power:2", 6.0, 0.0),
        ("power:3", 6.0, 0.0),
        # the closed phi_nu conjugate cancels near s = 0, so the f1 bounds
        # are relative to 1 + |f1*|
        ("phi_nu:1.5", 0.999, 1.0),
        ("hencky:1:0.3", 0.999 * math.sqrt(2.0), 1.0),
    ],
    ids=["power:1.5", "power:2", "power:3", "phi_nu:1.5", "hencky:1:0.3"],
)
def test_family_conjugates_match_slope_inversion(ident, s_max, floor):
    # each family's own conjugate against inverting its slope map at |s|
    spec = density_from_id(ident)
    slopes = np.linspace(-s_max, s_max, 48).reshape(6, 8)
    got = spec.conjugate(slopes)
    want = conjugate_via_slope_inversion(spec.eval, spec.deriv, np.abs(slopes))
    assert got.shape == slopes.shape
    assert np.all(np.abs(got - want) <= 1e-13 * (floor + np.abs(want)))


def test_tlog_conjugate_is_the_slope_inversion():
    a = tlog_density2()
    slopes = np.random.default_rng(5).uniform(-20.0, 20.0, (6, 8))
    want = conjugate_via_slope_inversion(a.eval, a.deriv, np.abs(slopes))
    assert a.conjugate(slopes).tobytes() == want.tobytes()
    assert a.conjugate(-2.5) == conjugate_via_slope_inversion(a.eval, a.deriv, 2.5)


@pytest.mark.parametrize(
    "spec", [tlog_density2(), smooth_power3()], ids=["tlog_density2", "smooth_power_3"]
)
def test_inversion_fenchel_young_equality_on_arrays(spec):
    signs = np.where(np.arange(60) % 2, 1.0, -1.0).reshape(6, 10)
    t = np.geomspace(1e-3, 1e5, 60).reshape(6, 10) * signs  # the f2 densities are even
    slope = spec.deriv(t)
    lhs = spec.eval(t) + spec.conjugate(slope)
    assert lhs.shape == t.shape
    rhs = t * slope
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + np.abs(rhs)))


def test_inversion_reports_unattained_slopes(phi15):
    # phi_nu' stays below its recession slope 1: no t attains 1.5
    with pytest.raises(ConjugateRangeError):
        conjugate_via_slope_inversion(phi15.eval, phi15.deriv, 1.5)
    with pytest.raises(ConjugateRangeError):
        conjugate_via_slope_inversion(phi15.eval, phi15.deriv, np.array([0.5, 1.5]))
    # t*log(1+t) attains the slope 50 only near t = 5e21, beyond the 1e12 cap
    with pytest.raises(ConjugateRangeError):
        tlog_density2().conjugate(np.array([1.0, 50.0]))


def test_inversion_deriv_call_budget():
    # one vectorized inversion: the calls to A' do not grow with the entry
    # count (a per-entry bisection makes about 50 per entry)
    a = tlog_density2()
    calls = []

    def deriv(t):
        calls.append(np.size(t))
        return a.deriv(t)

    slopes = np.random.default_rng(7).uniform(0.0, 20.0, (64, 64))
    conjugate_via_slope_inversion(a.eval, deriv, slopes)
    assert 1 <= len(calls) <= 300


# ---------------------------------------------------------------------------
# Young residual and the conjugate-growth condition
# ---------------------------------------------------------------------------


def test_young_residual_quadratic_exact():
    a = power_density2(2.0)
    assert young_residual(a, 2.0) == 0.0


def test_young_residual_cubic():
    a = power_density2(3.0)
    t = 1.7
    assert young_residual(a, t) <= 1e-8 * (1.0 + t * float(a.deriv(t)))


def test_young_residual_zero_point():
    for a in (power_density2(1.5), tlog_density2()):
        assert young_residual(a, 0.0) == 0.0


# the paper's conjugate-growth condition A*(A'(t)) <= c (A(t) + 1), with c
# written out per family


def power_dual4_lhs(p):
    """A*(A'(t)) and A(t) for A(t) = t^p on 60 samples of [0, 50]."""
    a = power_density2(p)
    t = np.linspace(0.0, 50.0, 60)
    return np.asarray(a.conjugate(a.deriv(t))), np.asarray(a.eval(t))


def test_condition_dual4_quadratic():
    # A*(A'(t)) = (p-1) A(t) = A(t): c = 1
    lhs, vals = power_dual4_lhs(2.0)
    assert np.allclose(lhs, vals, rtol=1e-12, atol=0.0)


def test_condition_dual4_quartic():
    # A*(A'(t)) = (p-1) A(t) = 3 A(t): c = 3, reached at every t > 0
    lhs, vals = power_dual4_lhs(4.0)
    assert np.allclose(lhs, 3.0 * vals, rtol=1e-12, atol=0.0)


def test_condition_dual4_degenerate_origin():
    # A'(0) = 0 and A*(0) = 0 for every built-in f2: the origin fits any c
    for spec in (power_density2(1.5), power_density2(2.0), tlog_density2()):
        assert spec.conjugate(spec.deriv(0.0)) == 0.0


def test_condition_dual4_tlog_constant_stable_under_refinement():
    # A*(A'(t)) = t^2/(1+t) for A(t) = t log(1+t), so the smallest c is the
    # maximum of t^2 / ((1+t)(t log(1+t) + 1)): 0.43617 at t = 3.0546.  40
    # samples on [0, 50] fit 0.43315, and midpoint refinement moves it < 5%
    a = tlog_density2()

    def c_fit(t):
        return float(np.max(a.conjugate(a.deriv(t)) / (a.eval(t) + 1.0)))

    t = np.linspace(0.0, 50.0, 40)
    refined = np.linspace(0.0, 50.0, 79)
    assert np.allclose(a.conjugate(a.deriv(t)), t * t / (1.0 + t), rtol=1e-12, atol=0.0)
    assert c_fit(t) == pytest.approx(0.43315, abs=1e-5)
    assert c_fit(t) <= c_fit(refined) <= 1.05 * c_fit(t)
    assert c_fit(np.linspace(2.5, 3.5, 1001)) == pytest.approx(0.43617, abs=1e-5)


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


@pytest.mark.parametrize(
    "f1_eval, message",
    [
        # secant estimates beyond the float range
        (lambda t: abs(t) if abs(t) < 1e7 else math.inf, "not finite"),
        # flat from 1e4 to 1e6, then moving again at 1e8
        (lambda t: abs(t) if abs(t) < 1e7 else 2.0 * abs(t), "inconsistent"),
    ],
    ids=["non-finite", "inconsistent"],
)
def test_recession_rejects_unusable_secants(f1_eval, message):
    with pytest.raises(NonLinearGrowthError, match=message):
        recession(f1_eval, +1)


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
    # curvature (nu-1)(1+|t|)^(-nu): ellipticity exponent mu = nu, and the
    # curvature is largest at t = 0, so the upper exponent gamma is 0
    f = make_phi_nu(nu)
    curv = np.asarray(f.second_deriv(SIGNED_GRID))
    vals = curv * (1.0 + np.abs(SIGNED_GRID)) ** nu
    assert np.allclose(vals, nu - 1.0, rtol=1e-12, atol=0.0)
    assert np.max(curv) == pytest.approx(nu - 1.0, rel=1e-15)


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.9])
def test_phi_linear_growth_sandwich(nu):
    # t/2 - a2 <= phi_nu(t) <= |t|, with a2 the deficit of phi_nu(t) - |t|/2
    # where the slope is 1/2: t_half = 2^(1/(nu-1)) - 1
    f = make_phi_nu(nu)
    t_half = 2.0 ** (1.0 / (nu - 1.0)) - 1.0
    a2 = (2.0 ** ((2.0 - nu) / (nu - 1.0)) - 1.0) / (2.0 - nu) - 0.5 * t_half
    assert 0.5 * t_half - f.eval(t_half) == pytest.approx(a2, rel=1e-12)
    t = np.abs(SIGNED_GRID)
    vals = np.asarray(f.eval(SIGNED_GRID))
    assert np.all(vals >= 0.5 * t - a2 - 1e-12 * (1.0 + t))
    assert np.all(vals <= t)


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


@pytest.mark.parametrize("k,nu", [(1.0, 1.0), (1.0, 0.3)])
def test_hencky_sandwich_and_curvature(k, nu):
    # sqrt(2) k |t| - k^2/(2 nu) <= f <= sqrt(2) k |t|, equal to the lower
    # bound on the linear branch; the curvature is 2 nu or 0, so no
    # ellipticity exponent exists
    h = make_hencky(k, nu)
    t = np.abs(SIGNED_GRID)
    sl = math.sqrt(2.0) * k
    vals = np.asarray(h.eval(SIGNED_GRID))
    assert np.all(vals >= sl * t - k * k / (2.0 * nu) - 1e-12 * (1.0 + t))
    assert np.all(vals <= sl * t)
    linear = t > k / (math.sqrt(2.0) * nu)
    assert np.allclose(vals[linear], sl * t[linear] - k * k / (2.0 * nu), rtol=1e-14)
    curv = np.asarray(h.second_deriv(SIGNED_GRID))
    assert set(np.unique(curv)) == {0.0, 2.0 * nu}
    for sign in (+1, -1):
        assert recession(h.eval, sign) == pytest.approx(sl, rel=1e-4)


@pytest.mark.parametrize(
    "k,nu", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)]
)
def test_hencky_domain(k, nu):
    with pytest.raises(ValueError, match="k and nu must be positive"):
        make_hencky(k, nu)


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
def test_power_domain(p):
    # nan built a spec whose every value was nan, and inf one of nan slopes
    with pytest.raises(ValueError, match="power N-function needs p > 1"):
        power_density2(p)


def test_hencky_not_usable_as_f2():
    with pytest.raises(ValueError):
        make_pair(make_phi_nu(1.5), make_hencky(1.0, 1.0))  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        make_pair(make_phi_nu(1.5), density_from_id("hencky:1:1"))


# ---------------------------------------------------------------------------
# N-functions and superlinear densities
# ---------------------------------------------------------------------------


NFUNCTIONS = {
    # (f2, whose restriction to t >= 0 is the N-function A; doubling constant
    # on t >= 1; lower growth A(t) >= c t^q on t >= 1 as (c, q))
    "power:1.5": (power_density2(1.5), 2.0**1.5, (1.0, 1.5)),
    "power:2": (power_density2(2.0), 4.0, (1.0, 2.0)),
    "power:3": (power_density2(3.0), 8.0, (1.0, 3.0)),
    # (1+2t) <= (1+t)^2 gives A(2t) <= 4 A(t); A(t)/t = log(1+t) >= log 2
    "nfun_tlog": (tlog_density2(), 4.0, (math.log(2.0), 1.0)),
}


@pytest.mark.parametrize("name", sorted(NFUNCTIONS))
def test_nfunction_axioms_doubling_and_growth(name):
    a, k, (c, q) = NFUNCTIONS[name]
    vals = np.asarray(a.eval(FIT_GRID))
    assert vals[0] == 0.0 and np.all(np.diff(vals) > 0.0)
    secants = np.diff(vals) / np.diff(FIT_GRID)
    assert np.all(np.diff(secants) >= -1e-10 * secants.max())
    # A(t)/t vanishes at zero and keeps growing at infinity
    assert a.eval(1e-8) / 1e-8 < 1e-3
    assert a.eval(1e8) / 1e8 > 1.5 * a.eval(1e4) / 1e4
    t = FIT_GRID[FIT_GRID >= 1.0]
    assert np.all(a.eval(2.0 * t) <= k * a.eval(t) * (1.0 + 1e-12))
    assert np.all(a.eval(t) >= c * t**q * (1.0 - 1e-12))


@pytest.mark.parametrize(
    "f2,nfun,c3",
    [
        (power_density2(2.0), lambda t: t**2.0, 2.0),
        (power_density2(3.0), lambda t: t**3.0, 4.0),
        (tlog_density2(), lambda t: t * np.log1p(t), 4.0),
    ],
    ids=["power:2", "power:3", "nfun_tlog"],
)
def test_density2_nfunction_and_triangle_constant(f2, nfun, c3):
    # f2 is its N-function A evenly extended, and f2(t + s) <= c3 (f2(t) + f2(s))
    # with c3 = 2^(p-1) for |t|^p and 4 for |t| log(1+|t|)
    assert np.array_equal(f2.eval(SIGNED_GRID), nfun(np.abs(SIGNED_GRID)))
    assert np.all(np.asarray(f2.second_deriv(SIGNED_GRID[SIGNED_GRID != 0.0])) > 0.0)
    t, s = np.meshgrid(SIGNED_GRID, SIGNED_GRID)
    den = f2.eval(t) + f2.eval(s)
    mask = den > 0.0
    assert np.max(f2.eval(t + s)[mask] / den[mask]) <= c3 * (1.0 + 1e-12)


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


EVEN_SPECS = {
    "phi_nu:1.5": make_phi_nu(1.5),
    "hencky:1:0.3": make_hencky(1.0, 0.3),
    "power:2": power_density2(2.0),
    "power:3": power_density2(3.0),
    "nfun_tlog": tlog_density2(),
    "smooth_power:3": smooth_power3(),
}


@pytest.mark.parametrize("name", sorted(EVEN_SPECS))
def test_builtin_families_are_even(name):
    spec = EVEN_SPECS[name]
    t = np.concatenate([np.geomspace(1e-8, 1e4, 25), [0.3, 1.0, 2.5]])
    for fn, parity in [(spec.eval, 1.0), (spec.deriv, -1.0), (spec.second_deriv, 1.0)]:
        assert np.array_equal(fn(-t), parity * fn(t))
        assert type(fn(-0.7)) is float and fn(-0.7) == parity * fn(0.7)
    # the linear-growth conjugates are finite only inside the recession slopes
    s = np.linspace(0.0, min(3.0, 0.9 * getattr(spec, "recession_plus", np.inf)), 13)
    assert np.array_equal(spec.conjugate(-s), spec.conjugate(s))
    assert type(spec.conjugate(-0.5)) is float
    assert spec.conjugate(-0.5) == spec.conjugate(0.5)


def test_power_density2_second_derivative_quadratic(power2):
    ts = np.linspace(-5.0, 5.0, 11)
    assert np.allclose(power2.second_deriv(ts), 2.0)
    assert power2.p == 2.0


def test_density_ids_resolve():
    # the family fixes the spec type, hence the slot
    assert isinstance(density_from_id("phi_nu:1.5"), Density1Spec)
    assert isinstance(density_from_id("hencky:1:1"), Density1Spec)
    assert isinstance(density_from_id("power:2"), Density2Spec)
    assert isinstance(density_from_id("nfun_tlog"), Density2Spec)
    with pytest.raises(ValueError):
        density_from_id("mystery:3")
    with pytest.raises(ValueError):
        density_from_id("phi_nu:0.9")


def test_make_pair_rejects_linear_growth_f2(phi15):
    with pytest.raises(ValueError):
        make_pair(phi15, make_phi_nu(1.2))  # type: ignore[arg-type]


def test_make_pair_wrong_slot_messages(phi15, power2):
    with pytest.raises(ValueError, match="^'power:2' is superlinear; not usable as f1$"):
        make_pair(power2, power2)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="^'phi_nu:1.5' has linear growth; not usable as f2$"):
        make_pair(phi15, phi15)  # type: ignore[arg-type]
    # a Density2Spec of linear growth passes the type check and fails the
    # recession probe
    linear = dataclasses.replace(power2, eval=phi15.eval, name="linear")
    with pytest.raises(ValueError, match="linear growth detected"):
        make_pair(phi15, linear)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.3, max_value=4.0),
    s=st.floats(min_value=0.0, max_value=30.0),
    t=st.floats(min_value=0.0, max_value=30.0),
)
def test_fenchel_young_inequality(p, s, t):
    a = power_density2(p)
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


@pytest.mark.parametrize(
    "p, gamma, mu",
    [
        (math.nan, 0.5, None),
        (math.inf, 0.5, None),
        (3.0, math.nan, None),
        (3.0, math.inf, None),
        (3.0, 0.0, math.nan),
        (3.0, 0.0, math.inf),
        # the domain checks that were there before
        (1.0, 0.5, None),
        (3.0, -0.1, None),
        (3.0, 0.0, 1.0),
    ],
)
def test_predictor_rejects_non_finite_or_out_of_range(p, gamma, mu):
    with pytest.raises(ValueError):
        predict_integrability(p, gamma, mu=mu)


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
