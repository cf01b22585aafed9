"""Scalar energy densities, N-functions, and convex conjugation utilities.

The variational integrand splits as f(xi) = f1(xi_1) + f2(xi_2) where f1 is
convex of linear growth and f2 grows superlinearly, bounded below by an
N-function.  This module provides the built-in density families, their
convex conjugates, recession slopes, a Fenchel-Young verification kit, the
delta-regularizer with its stress, and the exponent bookkeeping that
predicts how much integrability of the second gradient component the
a-priori machinery yields.

All ``eval``/``deriv``/``second_deriv`` maps are numpy ufunc style: they
accept floats or arrays and broadcast.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConjugateRangeError",
    "NonLinearGrowthError",
    "NonConcaveObjectiveError",
    "ConjugateBoundaryWarning",
    "NFunctionSpec",
    "Density1Spec",
    "Density2Spec",
    "DensityPair",
    "IntegrabilityPrediction",
    "make_phi_nu",
    "make_hencky",
    "power_nfunction",
    "tlog_nfunction",
    "power_density2",
    "smooth_power_density2",
    "tlog_density2",
    "regularizer",
    "regularizer_deriv",
    "regularizer_second_deriv",
    "regularized_stress",
    "make_pair",
    "density_from_id",
    "conjugate_scalar",
    "tabulate_conjugate",
    "conjugate_via_slope_inversion",
    "young_residual",
    "check_condition_dual4",
    "recession",
    "predict_integrability",
    "validate_nfunction",
    "validate_density1",
    "validate_density2",
]

ScalarMap = Callable[[np.ndarray], np.ndarray]

# fitted-constant sample grid: zero plus a log-spaced sweep up to 1e4
_FIT_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 199)])


class ConjugateRangeError(ValueError):
    """Conjugate of a linear-growth density queried outside its finite range."""


class NonLinearGrowthError(ArithmeticError):
    """Recession slope requested for a density of superlinear growth."""


class NonConcaveObjectiveError(RuntimeError):
    """Conjugate search detected a non-concave objective (density not convex)."""


class ConjugateBoundaryWarning(UserWarning):
    """Conjugate maximizer landed at the search boundary; result may be truncated."""


# ---------------------------------------------------------------------------
# spec containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NFunctionSpec:
    """A scalar N-function: continuous, strictly increasing, convex on [0, inf).

    ``A(t)/t`` vanishes at zero and diverges at infinity; the doubling
    constant ``delta2_k`` with threshold ``delta2_t0`` witnesses
    A(2t) <= delta2_k * A(t) for t >= delta2_t0, and ``growth_p`` is a lower
    power-growth exponent (c*t**growth_p <= A(t) for large t).
    """

    eval: ScalarMap
    deriv: ScalarMap
    delta2_k: float
    delta2_t0: float
    growth_p: float
    name: str = "nfunction"
    conjugate_closed: Optional[ScalarMap] = None

    def conjugate(self, s):
        """Convex conjugate A*(s); closed form when available, else slope inversion."""
        if self.conjugate_closed is not None:
            return self.conjugate_closed(s)
        return conjugate_via_slope_inversion(self.eval, self.deriv, s)


@dataclass(frozen=True)
class Density1Spec:
    """Convex density of linear growth acting on the first gradient component.

    ``a1*|t| - a2 <= eval(t) <= a3*|t| + a4`` is the linear-growth sandwich;
    ``mu`` is the ellipticity exponent in
    c1*(1+|t|)**(-mu) <= second_deriv(t) <= cbar1*(1+|t|)**gamma (``mu`` is
    None for densities, like the Hencky one, whose curvature degenerates);
    ``recession_plus``/``recession_minus`` are the slopes at +/- infinity.
    """

    eval: ScalarMap
    deriv: ScalarMap
    second_deriv: ScalarMap
    a1: float
    a2: float
    a3: float
    a4: float
    mu: Optional[float]
    gamma: float
    recession_plus: float
    recession_minus: float
    name: str = "density1"
    conjugate_closed: Optional[ScalarMap] = None

    def conjugate(self, s):
        """Convex conjugate f1*(s).

        Finite only for slopes strictly inside (-recession_minus,
        recession_plus); outside, the conjugate is +infinity and a
        ConjugateRangeError is raised.
        """
        if self.conjugate_closed is not None:
            return self.conjugate_closed(s)
        s_arr = np.asarray(s, dtype=np.float64)
        lo, hi = -self.recession_minus, self.recession_plus
        if np.any(s_arr <= lo) or np.any(s_arr >= hi):
            raise ConjugateRangeError(
                f"{self.name}: conjugate finite only on ({lo}, {hi})"
            )
        flat = np.atleast_1d(s_arr).ravel()
        vals = np.empty_like(flat)
        for idx, sv in enumerate(flat):
            t_star = _conjugate_by_inversion_signed(self.deriv, float(sv))
            vals[idx] = sv * t_star - float(self.eval(t_star))
        out = vals.reshape(np.atleast_1d(s_arr).shape)
        return out if s_arr.ndim else float(out[0])


@dataclass(frozen=True)
class Density2Spec:
    """Superlinear density acting on the second gradient component.

    Bounded below by an N-function: b1*A(|t|) - b2 <= eval(t), with
    b3/b4 the analogous upper sandwich constants.  ``p`` is the power-growth
    exponent (1 for nearly-linear N-functions such as t*log(1+t)), ``mu_hat``
    the lower curvature decay exponent, ``c3`` the triangle constant in
    f2(t + s) <= c3*(f2(t) + f2(s)).
    """

    eval: ScalarMap
    deriv: ScalarMap
    second_deriv: ScalarMap
    b1: float
    b2: float
    b3: float
    b4: float
    p: float
    mu_hat: float
    c3: float
    nfunction: Optional[NFunctionSpec] = None
    name: str = "density2"
    conjugate_closed: Optional[ScalarMap] = None

    def conjugate(self, s):
        """Convex conjugate f2*(s) = A*(|s|) for the N-function form."""
        if self.conjugate_closed is not None:
            return self.conjugate_closed(s)
        s_abs = np.abs(np.asarray(s, dtype=np.float64))
        return conjugate_via_slope_inversion(self.eval, self.deriv, s_abs)


# ---------------------------------------------------------------------------
# conjugation machinery
# ---------------------------------------------------------------------------


def conjugate_scalar(
    g: ScalarMap,
    s: float,
    t_max: float = 1e6,
    strict: bool = False,
    n_coarse: int = 96,
    n_golden: int = 90,
) -> float:
    """sup_{0 <= t <= t_max} of s*t - g(t) by coarse bracketing plus golden section.

    The objective must be concave (g convex); a unimodality violation on the
    coarse grid raises NonConcaveObjectiveError.  When the maximizer lands
    within 1e-6*t_max of t_max a ConjugateBoundaryWarning is emitted (the true
    supremum may live beyond the cap), escalated to ConjugateRangeError when
    ``strict``.
    """
    ts = np.concatenate([[0.0], np.geomspace(t_max * 1e-9, t_max, n_coarse - 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = s * ts - np.asarray(g(ts), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("conjugate objective not finite on the search grid")
    k = int(np.argmax(vals))
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = 1e-9 * scale
    before, after = vals[: k + 1], vals[k:]
    if np.any(np.diff(before) < -tol) or np.any(np.diff(after) > tol):
        raise NonConcaveObjectiveError(
            "objective s*t - g(t) is not unimodal; g does not look convex"
        )
    lo = ts[k - 1] if k > 0 else ts[0]
    hi = ts[k + 1] if k + 1 < len(ts) else ts[-1]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = s * x1 - float(g(x1))
    f2 = s * x2 - float(g(x2))
    for _ in range(n_golden):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = s * x2 - float(g(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = s * x1 - float(g(x1))
    t_star = 0.5 * (a + b)
    value = max(f1, f2, float(vals[k]))
    if t_star >= t_max * (1.0 - 1e-6):
        msg = f"conjugate maximizer at search cap t_max={t_max:g} (s={s:g})"
        if strict:
            raise ConjugateRangeError(msg)
        warnings.warn(msg, ConjugateBoundaryWarning)
    return float(value)


def conjugate_via_slope_inversion(
    g: ScalarMap, dg: ScalarMap, s, t_cap: float = 1e12
) -> np.ndarray:
    """Conjugate of a differentiable convex g on [0, inf) by inverting g'.

    Solves g'(t) = s by bisection (g' nondecreasing) and returns s*t - g(t).
    Requires s >= g'(0); diverging brackets raise ConjugateRangeError.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    flat = np.atleast_1d(s_arr).astype(np.float64).ravel()
    out = np.empty_like(flat)
    for idx, sv in enumerate(flat):
        if sv <= float(dg(0.0)):
            # objective nonincreasing on [0, inf): supremum attained at t = 0
            out[idx] = -float(g(0.0))
            continue
        hi = 1.0
        while float(dg(hi)) < sv:
            hi *= 2.0
            if hi > t_cap:
                raise ConjugateRangeError(
                    f"slope {sv:g} not attained below t={t_cap:g}; conjugate infinite"
                )
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(dg(mid)) < sv:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-15 * max(1.0, hi):
                break
        t_star = 0.5 * (lo + hi)
        out[idx] = sv * t_star - float(g(t_star))
    return out.reshape(np.atleast_1d(s_arr).shape) if s_arr.ndim else float(out[0])


def tabulate_conjugate(
    g: ScalarMap,
    s_max: float,
    n: int = 513,
    t_max: float = 1e6,
):
    """Dense conjugate table on [0, s_max] with monotone cubic interpolation.

    Returns a vectorized callable; conjugates are convex and nondecreasing on
    [0, inf), which PCHIP preserves.
    """
    from scipy.interpolate import PchipInterpolator

    s_grid = np.linspace(0.0, s_max, n)
    vals = np.array([conjugate_scalar(g, float(sv), t_max=t_max) for sv in s_grid])
    interp = PchipInterpolator(s_grid, vals, extrapolate=False)

    def conj(s):
        s_arr = np.asarray(s, dtype=np.float64)
        if np.any(s_arr < 0.0) or np.any(s_arr > s_max):
            raise ConjugateRangeError(f"tabulated conjugate covers [0, {s_max:g}]")
        out = interp(s_arr)
        return out if s_arr.ndim else float(out)

    return conj


def young_residual(a: NFunctionSpec, t: float) -> float:
    """|A(t) + A*(A'(t)) - t*A'(t)|, the Fenchel-Young equality defect at t."""
    slope = float(a.deriv(t))
    return abs(float(a.eval(t)) + float(a.conjugate(slope)) - t * slope)


def check_condition_dual4(a: NFunctionSpec, samples) -> tuple[float, bool]:
    """Fit the smallest c with A*(A'(t)) <= c*(A(t) + 1) over the samples.

    Returns (c_fit, holds) where ``holds`` requires the fitted constant to be
    finite and stable within 5% when the sample count is doubled by midpoint
    refinement.
    """
    ts = np.sort(np.asarray(samples, dtype=np.float64))
    if ts.size == 0:
        raise ValueError("need at least one sample")

    def fit(points):
        ratios = []
        for t in points:
            ratios.append(
                float(a.conjugate(float(a.deriv(t)))) / (float(a.eval(t)) + 1.0)
            )
        return max(ratios)

    c_fit = fit(ts)
    refined = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])])) if ts.size > 1 else ts
    c_ref = fit(refined)
    denom = max(abs(c_fit), 1e-30)
    holds = math.isfinite(c_fit) and math.isfinite(c_ref) and abs(c_ref - c_fit) <= 0.05 * denom
    if c_fit == 0.0 and c_ref == 0.0:
        holds = True
    return c_fit, holds


def recession(f1_eval: ScalarMap, sign: int) -> float:
    """Slope of f1 at sign*infinity from probes at R in {1e4, 1e6, 1e8}.

    The three secant estimates f1(sign*R)/R form a geometric tail for
    linear-growth densities; an Aitken-style extrapolation removes the
    algebraically decaying correction.  Diverging estimates raise
    NonLinearGrowthError.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    radii = (1e4, 1e6, 1e8)
    q = np.array([float(f1_eval(sign * r)) / r for r in radii])
    if not np.all(np.isfinite(q)):
        raise NonLinearGrowthError("secant estimates not finite")
    d1, d2 = q[1] - q[0], q[2] - q[1]
    scale = max(1.0, abs(q[2]))
    if abs(d2) <= 1e-12 * scale:
        return float(q[2])
    if abs(d1) <= 1e-12 * scale:
        # flat then moving again: no geometric tail to extrapolate
        raise NonLinearGrowthError("inconsistent secant estimates")
    m = d2 / d1
    if not (-0.5 < m < 0.95):
        raise NonLinearGrowthError(
            f"secant estimates do not converge geometrically (ratio {m:.3g})"
        )
    return float(q[2] + d2 * m / (1.0 - m))


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def make_phi_nu(nu: float) -> Density1Spec:
    """Linear-growth density with curvature (nu-1)*(1+|t|)**(-nu), nu in (1,2).

    Even, vanishes at zero, recession slopes +/-1, ellipticity exponent nu
    with a bounded upper curvature (gamma = 0).
    """
    if not (1.0 < nu < 2.0):
        raise ValueError(f"nu must lie in (1, 2), got {nu}")
    a = 2.0 - nu

    def ev(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        out = s - ((1.0 + s) ** a - 1.0) / a
        return out if out.ndim else float(out)

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.sign(t_arr) * (1.0 - (1.0 + np.abs(t_arr)) ** (1.0 - nu))
        return out if out.ndim else float(out)

    def d2(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        out = (nu - 1.0) * (1.0 + s) ** (-nu)
        return out if out.ndim else float(out)

    expo = (nu - 2.0) / (nu - 1.0)

    def conj(sl):
        s_arr = np.asarray(sl, dtype=np.float64)
        if np.any(np.abs(s_arr) >= 1.0):
            raise ConjugateRangeError(
                "conjugate finite only for slopes strictly inside (-1, 1)"
            )
        beta = 1.0 - np.abs(s_arr)
        out = beta**expo * (nu - 1.0) / a + beta - 1.0 / a
        return out if out.ndim else float(out)

    # a1 = 1/2 lower sandwich: the worst deficit of ev(t) - t/2 sits where
    # the slope equals 1/2
    t_half = 2.0 ** (1.0 / (nu - 1.0)) - 1.0
    a2 = max(0.0, 0.5 * t_half - float(ev(t_half)))
    return Density1Spec(
        eval=ev,
        deriv=dv,
        second_deriv=d2,
        a1=0.5,
        a2=a2,
        a3=1.0,
        a4=0.0,
        mu=nu,
        gamma=0.0,
        recession_plus=1.0,
        recession_minus=1.0,
        name=f"phi_nu:{nu:g}",
        conjugate_closed=conj,
    )


def make_hencky(k: float, nu: float) -> Density1Spec:
    """Quadratic-then-linear density: nu*s**2 up to s0 = k/(sqrt(2)*nu), then
    sqrt(2)*k*|s| - k**2/(2*nu).

    C1 across the branch point, linear growth with recession sqrt(2)*k.
    Its curvature vanishes beyond s0, so it carries no ellipticity exponent
    (mu is None) and is suitable only as an f1.
    """
    if k <= 0.0 or nu <= 0.0:
        raise ValueError(f"k and nu must be positive, got k={k}, nu={nu}")
    s0 = k / (math.sqrt(2.0) * nu)
    sl = math.sqrt(2.0) * k

    def ev(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        out = np.where(s <= s0, nu * s * s, sl * s - k * k / (2.0 * nu))
        return out if out.ndim else float(out)

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        s = np.abs(t_arr)
        out = np.sign(t_arr) * np.where(s <= s0, 2.0 * nu * s, sl)
        return out if out.ndim else float(out)

    def d2(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        out = np.where(s <= s0, 2.0 * nu, 0.0)
        return out if out.ndim else float(out)

    def conj(slope):
        s_arr = np.asarray(slope, dtype=np.float64)
        if np.any(np.abs(s_arr) > sl):
            raise ConjugateRangeError(
                f"conjugate finite only on [-{sl:g}, {sl:g}]"
            )
        out = s_arr * s_arr / (4.0 * nu)
        return out if out.ndim else float(out)

    spec = Density1Spec(
        eval=ev,
        deriv=dv,
        second_deriv=d2,
        a1=sl,
        a2=k * k / (2.0 * nu),
        a3=sl,
        a4=0.0,
        mu=None,
        gamma=0.0,
        recession_plus=sl,
        recession_minus=sl,
        name=f"hencky:{k:g}:{nu:g}",
        conjugate_closed=conj,
    )
    object.__setattr__(spec, "branch_point", s0)
    return spec


def power_nfunction(p: float, coef: float = 1.0) -> NFunctionSpec:
    """N-function A(t) = coef * t**p with p > 1."""
    if p <= 1.0:
        raise ValueError(f"power N-function needs p > 1, got {p}")
    if coef <= 0.0:
        raise ValueError("coef must be positive")
    q = p / (p - 1.0)

    def ev(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = coef * np.abs(t_arr) ** p
        return out if out.ndim else float(out)

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = coef * p * np.abs(t_arr) ** (p - 1.0)
        return out if out.ndim else float(out)

    def conj(s):
        s_arr = np.asarray(s, dtype=np.float64)
        # sup_t s*t - coef*t**p attained at t = (s/(coef*p))**(1/(p-1))
        out = (p - 1.0) * coef * (np.abs(s_arr) / (coef * p)) ** q
        return out if out.ndim else float(out)

    return NFunctionSpec(
        eval=ev,
        deriv=dv,
        delta2_k=2.0**p,
        delta2_t0=1.0,
        growth_p=p,
        name=f"power:{p:g}" + ("" if coef == 1.0 else f":{coef:g}"),
        conjugate_closed=conj,
    )


def tlog_nfunction() -> NFunctionSpec:
    """Nearly-linear N-function A(t) = t*log(1+t)."""

    def ev(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = t_arr * np.log1p(t_arr)
        return out if out.ndim else float(out)

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.log1p(t_arr) + t_arr / (1.0 + t_arr)
        return out if out.ndim else float(out)

    return NFunctionSpec(
        eval=ev,
        deriv=dv,
        delta2_k=4.0,
        delta2_t0=1.0,
        growth_p=1.0,
        name="nfun_tlog",
    )


def power_density2(p: float, coef: float = 1.0) -> Density2Spec:
    """Superlinear density f2(t) = coef*|t|**p with attached N-function."""
    a = power_nfunction(p, coef)

    def d2(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        with np.errstate(divide="ignore"):
            out = coef * p * (p - 1.0) * s ** (p - 2.0)
        if p == 2.0:
            out = np.full_like(s, 2.0 * coef)
        return out if out.ndim else float(out)

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.sign(t_arr) * coef * p * np.abs(t_arr) ** (p - 1.0)
        return out if out.ndim else float(out)

    def conj(s):
        return a.conjugate_closed(np.abs(s))

    return Density2Spec(
        eval=lambda t: a.eval(np.abs(t)),
        deriv=dv,
        second_deriv=d2,
        b1=1.0,
        b2=0.0,
        b3=1.0,
        b4=0.0,
        p=p,
        mu_hat=max(0.0, 2.0 - p),
        c3=2.0 ** (p - 1.0),
        nfunction=a,
        name=f"power:{p:g}",
        conjugate_closed=conj,
    )


def smooth_power_density2(p: float) -> Density2Spec:
    """f2(t) = (1+t**2)**(p/2) - 1 = rho_p(t) - 1, the regularizer shifted to
    vanish at zero: two-sided curvature comparable to (1+|t|)**(p-2)."""
    if p < 2.0:
        raise ValueError("smooth power density defined for p >= 2")

    def pointwise(fn):
        def m(t):
            out = fn(np.asarray(t, dtype=np.float64), p)
            return out if out.ndim else float(out)

        return m

    rho = pointwise(regularizer)
    return Density2Spec(
        eval=lambda t: rho(t) - 1.0,
        deriv=pointwise(regularizer_deriv),
        second_deriv=pointwise(regularizer_second_deriv),
        b1=1.0,
        b2=1.0,
        # (1+t^2)^(p/2) <= 2^(p/2) max(1, t^p): constant part absorbed by b4
        b3=2.0 ** (p / 2.0),
        b4=2.0 ** (p / 2.0),
        p=p,
        mu_hat=max(0.0, 2.0 - p),
        c3=2.0 ** (p - 1.0),
        nfunction=power_nfunction(p),
        name=f"smooth_power:{p:g}",
    )


def tlog_density2() -> Density2Spec:
    """Nearly-linear superlinear density f2(t) = |t|*log(1+|t|)."""
    a = tlog_nfunction()

    def ev(t):
        return a.eval(np.abs(t))

    def dv(t):
        t_arr = np.asarray(t, dtype=np.float64)
        out = np.sign(t_arr) * np.asarray(a.deriv(np.abs(t_arr)))
        return out if out.ndim else float(out)

    def d2(t):
        s = np.abs(np.asarray(t, dtype=np.float64))
        out = (2.0 + s) / (1.0 + s) ** 2
        return out if out.ndim else float(out)

    return Density2Spec(
        eval=ev,
        deriv=dv,
        second_deriv=d2,
        b1=1.0,
        b2=0.0,
        b3=1.0,
        b4=0.0,
        p=1.0,
        mu_hat=1.0,
        c3=4.0,
        nfunction=a,
        name="nfun_tlog",
    )


# ---------------------------------------------------------------------------
# pairs and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityPair:
    """The split integrand f(xi) = f1(xi_1) + f2(xi_2) with both conjugates.

    The conjugate splits the same way: f*(s) = conjugate_f1(s_1) +
    conjugate_f2(s_2), where conjugate_f2 already includes the modulus of the
    N-function form.
    """

    f1: Density1Spec
    f2: Density2Spec
    conjugate_f1: ScalarMap
    conjugate_f2: ScalarMap

    def eval(self, xi1, xi2):
        return self.f1.eval(xi1) + self.f2.eval(xi2)

    def deriv(self, xi1, xi2):
        return self.f1.deriv(xi1), self.f2.deriv(xi2)

    def conjugate(self, s1, s2):
        return self.conjugate_f1(s1) + self.conjugate_f2(s2)


def make_pair(f1: Density1Spec, f2: Density2Spec) -> DensityPair:
    """Bundle the two densities; rejects a linear-growth density in the f2 slot."""
    try:
        recession(f2.eval, +1)
    except NonLinearGrowthError:
        pass
    else:
        raise ValueError(
            f"{f2.name}: linear growth detected; the second slot must be superlinear"
        )
    conj1 = f1.conjugate if f1.conjugate_closed is None else f1.conjugate_closed
    conj2 = f2.conjugate if f2.conjugate_closed is None else f2.conjugate_closed
    return DensityPair(f1=f1, f2=f2, conjugate_f1=conj1, conjugate_f2=conj2)


def density_from_id(ident: str, slot: str):
    """Resolve a density id string for the given slot ('f1' or 'f2').

    Ids: ``phi_nu:<nu>`` and ``hencky:<k>:<nu>`` (linear growth, f1 only),
    ``power:<p>`` (f2(t) = |t|**p, f2 only), ``nfun_tlog`` (f2 only).
    """
    if slot not in ("f1", "f2"):
        raise ValueError("slot must be 'f1' or 'f2'")
    parts = ident.split(":")
    kind = parts[0]
    try:
        if kind == "phi_nu" and len(parts) == 2:
            spec = make_phi_nu(float(parts[1]))
        elif kind == "hencky" and len(parts) == 3:
            spec = make_hencky(float(parts[1]), float(parts[2]))
        elif kind == "power" and len(parts) == 2:
            spec = power_density2(float(parts[1]))
        elif kind == "nfun_tlog" and len(parts) == 1:
            spec = tlog_density2()
        else:
            raise ValueError(f"unknown density id {ident!r}")
    except ValueError as exc:
        raise ValueError(f"invalid density id {ident!r}: {exc}") from None
    if slot == "f1" and not isinstance(spec, Density1Spec):
        raise ValueError(f"{ident!r} is superlinear; not usable as f1")
    if slot == "f2" and not isinstance(spec, Density2Spec):
        raise ValueError(f"{ident!r} has linear growth; not usable as f2")
    return spec


# ---------------------------------------------------------------------------
# the delta-regularizer and the regularized stress
# ---------------------------------------------------------------------------


def regularizer(t, p: float):
    """rho_p(t) = (1+t**2)**(p/2), the integrand the solver adds with weight
    delta on the first gradient component."""
    return (1.0 + t * t) ** (0.5 * p)


def regularizer_deriv(t, p: float):
    """rho_p'(t) = p (1+t**2)**((p-2)/2) t."""
    return p * (1.0 + t * t) ** (0.5 * (p - 2.0)) * t


def regularizer_second_deriv(t, p: float):
    """rho_p''(t) = p w**((p-2)/2) + p (p-2) t**2 w**((p-4)/2), w = 1+t**2;
    at least p for p >= 2."""
    w = 1.0 + t * t
    return p * w ** (0.5 * (p - 2.0)) + p * (p - 2.0) * t * t * w ** (0.5 * (p - 4.0))


def regularized_stress(d: DensityPair, c1, c2, delta: float, p: float):
    """Stress of the regularized density at gradient values (c1, c2).

    Returns (sigma1, tau1, tau2, x): tau = (f1'(c1), f2'(c2)) is the plain
    stress Df, x = rho_p'(c1), and sigma_delta = tau + delta (x, 0) =
    (sigma1, tau2) is the stress whose discrete divergence is the Euler
    residual of the regularized energy.
    """
    x = regularizer_deriv(c1, p)
    tau1 = np.asarray(d.f1.deriv(c1), dtype=np.float64)
    tau2 = np.asarray(d.f2.deriv(c2), dtype=np.float64)
    return tau1 + delta * x, tau1, tau2, x


# ---------------------------------------------------------------------------
# validators (fitted-constant reports)
# ---------------------------------------------------------------------------


def validate_nfunction(a: NFunctionSpec, t_grid=None) -> dict:
    """Sampled check of the N-function axioms and the doubling bound."""
    ts = _FIT_GRID if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    vals = np.asarray(a.eval(ts))
    report = {}
    report["nonnegative"] = bool(np.all(vals >= -1e-15))
    report["strictly_increasing"] = bool(np.all(np.diff(vals[ts > 0]) > 0.0))
    # convexity via slopes of secants on the sorted grid
    sec = np.diff(vals) / np.diff(ts)
    report["convex"] = bool(np.all(np.diff(sec) >= -1e-10 * max(1.0, sec.max())))
    report["zero_limit"] = float(a.eval(1e-8) / 1e-8)
    report["infinity_limit"] = float(a.eval(1e8) / 1e8)
    report["small_slope_ok"] = report["zero_limit"] < 1e-3
    # the secant slope must keep growing; a fixed cutoff would reject the
    # nearly linear built-ins where A(t)/t diverges only logarithmically
    mid_slope = float(a.eval(1e4)) / 1e4
    report["superlinear_ok"] = report["infinity_limit"] > 1.5 * mid_slope
    ts_d = ts[ts >= a.delta2_t0]
    if ts_d.size:
        lhs = np.asarray(a.eval(2.0 * ts_d))
        rhs = a.delta2_k * np.asarray(a.eval(ts_d))
        report["doubling_ok"] = bool(np.all(lhs <= rhs * (1.0 + 1e-12)))
    else:
        report["doubling_ok"] = True
    lower = np.asarray(a.eval(ts_d)) / np.maximum(ts_d**a.growth_p, 1e-300)
    report["growth_constant"] = float(lower.min()) if ts_d.size else math.inf
    report["growth_ok"] = report["growth_constant"] > 0.0
    report["ok"] = all(
        report[k]
        for k in (
            "nonnegative",
            "strictly_increasing",
            "convex",
            "small_slope_ok",
            "superlinear_ok",
            "doubling_ok",
            "growth_ok",
        )
    )
    return report


def validate_density1(f1: Density1Spec, t_grid=None) -> dict:
    """Linear-growth sandwich and curvature envelope fit for an f1 density."""
    ts = _FIT_GRID if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    signed = np.concatenate([-ts[::-1], ts])
    vals = np.asarray(f1.eval(signed))
    sandwich_lo = f1.a1 * np.abs(signed) - f1.a2
    sandwich_hi = f1.a3 * np.abs(signed) + f1.a4
    report = {
        "sandwich_ok": bool(
            np.all(vals >= sandwich_lo - 1e-9) and np.all(vals <= sandwich_hi + 1e-9)
        )
    }
    curv = np.asarray(f1.second_deriv(signed))
    report["convex_ok"] = bool(np.all(curv >= -1e-12))
    if f1.mu is not None:
        report["c1_fit"] = float(np.min(curv * (1.0 + np.abs(signed)) ** f1.mu))
        report["cbar1_fit"] = float(
            np.max(curv / (1.0 + np.abs(signed)) ** f1.gamma)
        )
        report["elliptic_ok"] = report["c1_fit"] > 0.0
    else:
        report["c1_fit"] = None
        report["cbar1_fit"] = float(np.max(curv))
        report["elliptic_ok"] = True  # degenerate curvature allowed for f1
    rec_p = recession(f1.eval, +1)
    rec_m = recession(f1.eval, -1)
    report["recession_ok"] = (
        abs(rec_p - f1.recession_plus) <= 1e-4 * max(1.0, abs(rec_p))
        and abs(rec_m - f1.recession_minus) <= 1e-4 * max(1.0, abs(rec_m))
    )
    report["ok"] = all(
        report[k] for k in ("sandwich_ok", "convex_ok", "elliptic_ok", "recession_ok")
    )
    return report


def validate_density2(f2: Density2Spec, t_grid=None) -> dict:
    """N-function sandwich, model-case curvature fit, and triangle constant."""
    ts = _FIT_GRID if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    signed = np.concatenate([-ts[::-1], ts])
    vals = np.asarray(f2.eval(signed))
    report = {"convex_ok": None, "sandwich_ok": True}
    if f2.nfunction is not None:
        a_vals = np.asarray(f2.nfunction.eval(np.abs(signed)))
        report["sandwich_ok"] = bool(
            np.all(vals >= f2.b1 * a_vals - f2.b2 - 1e-9)
            and np.all(vals <= f2.b3 * a_vals + f2.b4 + 1e-9)
        )
    pos = signed[np.abs(signed) > 1e-12]
    curv = np.asarray(f2.second_deriv(pos))
    report["convex_ok"] = bool(np.all(curv >= -1e-12))
    base = (1.0 + np.abs(pos)) ** (f2.p - 2.0)
    report["c2_fit"] = float(np.min(curv / base))
    report["cbar2_fit"] = float(np.max(curv / base))
    report["model_case_ok"] = report["c2_fit"] > 0.0 and math.isfinite(
        report["cbar2_fit"]
    )
    tt = np.linspace(-50.0, 50.0, 41)
    t_a, t_b = np.meshgrid(tt, tt)
    num = np.asarray(f2.eval(t_a + t_b))
    den = np.asarray(f2.eval(t_a)) + np.asarray(f2.eval(t_b))
    mask = den > 1e-12
    report["c3_fit"] = float(np.max(num[mask] / den[mask]))
    report["triangle_ok"] = report["c3_fit"] <= f2.c3 * (1.0 + 1e-9)
    report["ok"] = all(
        report[k] for k in ("sandwich_ok", "convex_ok", "triangle_ok")
    )
    return report


# ---------------------------------------------------------------------------
# integrability prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegrabilityPrediction:
    """Outcome of the exponent feasibility scan for the second-component
    integrability of the regularized minimizers.

    ``chi`` is the certified integrability exponent for the second gradient
    component (math.inf when every finite exponent works, None when
    infeasible); ``s`` and ``alpha`` are the auxiliary exponents
    (p-2)/2 + tau_s and -1/2 + tau_alpha of the reported pair.
    """

    p: float
    gamma: float
    mu: Optional[float]
    tau_s: Optional[float]
    tau_alpha: Optional[float]
    s: Optional[float]
    alpha: Optional[float]
    chi: Optional[float]
    feasible: bool
    which_case: str
    full_gradient: bool = False
    full_gradient_margin: Optional[float] = None

    def to_dict(self) -> dict:
        chi = self.chi
        if chi is not None and math.isinf(chi):
            chi = "unbounded"
        return {
            "p": self.p,
            "gamma": self.gamma,
            "mu": self.mu,
            "tau_s": self.tau_s,
            "tau_alpha": self.tau_alpha,
            "s": self.s,
            "alpha": self.alpha,
            "chi": chi,
            "feasible": self.feasible,
            "which_case": self.which_case,
            "full_gradient": self.full_gradient,
            "full_gradient_margin": self.full_gradient_margin,
        }


def _exponent_pair_ok(p: float, gamma: float, tau_s: float, tau_alpha: float) -> bool:
    if tau_alpha <= 0.0 or tau_s <= 0.0:
        return False
    if abs(tau_s - tau_alpha) >= 0.5:
        return False
    return gamma < (p - 1.0 + 2.0 * (tau_s - tau_alpha)) / (p + 2.0 * tau_s)


def predict_integrability(
    p: float, gamma: float, mu: Optional[float] = None
) -> IntegrabilityPrediction:
    """Feasibility and size of the integrability exponent chi = p + 2*tau_s.

    Scans admissible auxiliary-exponent pairs (tau_s, tau_alpha) on a
    200 x 200 grid over (0, 2]^2 subject to |tau_s - tau_alpha| < 1/2 and
    gamma < (p - 1 + 2(tau_s - tau_alpha)) / (p + 2 tau_s); a sequence of
    near-degenerate pairs tau_s = 1/2 + tau_alpha/2 with tiny tau_alpha is
    always included so that feasibility for gamma < p/(p+1) yields some
    chi > p + 1.  gamma = 0 certifies every finite exponent (chi is the
    infinity marker), and additionally full-gradient integrability when the
    ellipticity exponent mu of the linear-growth part is below 2.
    """
    if p <= 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if mu is not None and mu <= 1.0:
        raise ValueError(f"mu must exceed 1, got {mu}")

    if gamma == 0.0:
        full = mu is not None and mu < 2.0
        margin = None
        if mu is not None:
            margin = 3.0 * (2.0 - mu) - (p - 2.0)
        return IntegrabilityPrediction(
            p=p,
            gamma=gamma,
            mu=mu,
            tau_s=0.5,
            tau_alpha=0.25,
            s=(p - 2.0) / 2.0 + 0.5,
            alpha=-0.25,
            chi=math.inf,
            feasible=True,
            which_case="full-gradient" if full else "gamma-zero",
            full_gradient=full,
            full_gradient_margin=margin,
        )

    taus = np.linspace(0.01, 2.0, 200)
    best = None
    t_s_grid, t_a_grid = np.meshgrid(taus, taus, indexing="ij")
    diff = t_s_grid - t_a_grid
    with np.errstate(divide="ignore"):
        bound = (p - 1.0 + 2.0 * diff) / (p + 2.0 * t_s_grid)
    mask = (np.abs(diff) < 0.5) & (gamma < bound)
    if np.any(mask):
        idx = np.argmax(np.where(mask, t_s_grid, -np.inf))
        i, j = np.unravel_index(idx, mask.shape)
        best = (float(t_s_grid[i, j]), float(t_a_grid[i, j]))
    # near-degenerate candidates guarantee chi > p+1 whenever gamma < p/(p+1)
    for ta in (1e-3, 1e-6, 1e-9, 1e-12):
        ts = 0.5 + 0.5 * ta
        if _exponent_pair_ok(p, gamma, ts, ta):
            if best is None or ts > best[0]:
                best = (ts, ta)
    if best is None:
        return IntegrabilityPrediction(
            p=p,
            gamma=gamma,
            mu=mu,
            tau_s=None,
            tau_alpha=None,
            s=None,
            alpha=None,
            chi=None,
            feasible=False,
            which_case="infeasible",
        )
    tau_s, tau_alpha = best
    return IntegrabilityPrediction(
        p=p,
        gamma=gamma,
        mu=mu,
        tau_s=tau_s,
        tau_alpha=tau_alpha,
        s=(p - 2.0) / 2.0 + tau_s,
        alpha=-0.5 + tau_alpha,
        chi=p + 2.0 * tau_s,
        feasible=True,
        which_case="gamma-small",
    )


def _conjugate_by_inversion_signed(deriv, s):
    """Invert a nondecreasing slope map over the real line; returns the argmax."""

    def dpos(t):
        return float(deriv(t))

    # f1 is convex on R; reduce to the monotone slope equation f1'(t) = s
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if dpos(lo) <= s:
            break
        lo *= 2.0
        if lo < -1e12:
            raise ConjugateRangeError(f"slope {s:g} below the attainable range")
    for _ in range(200):
        if dpos(hi) >= s:
            break
        hi *= 2.0
        if hi > 1e12:
            raise ConjugateRangeError(f"slope {s:g} above the attainable range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dpos(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)
