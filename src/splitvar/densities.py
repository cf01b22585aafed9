"""Scalar energy densities and convex conjugation utilities.

The variational integrand splits as f(xi) = f1(xi_1) + f2(xi_2) where f1 is
convex of linear growth and f2 grows superlinearly.  The paper takes f2
given by, or bounded below by, an N-function A; every built-in f2 is
f2(t) = A(|t|), so one spec type, ``Density2Spec``, carries it.  This module
provides the built-in density families, their convex conjugates, recession
slopes, the Fenchel-Young residual, the delta-regularizer with its stress,
and the exponent bookkeeping that predicts how much integrability of the
second gradient component the a-priori machinery yields.

All ``eval``/``deriv``/``second_deriv``/``conjugate`` maps are numpy ufunc
style: they accept floats or arrays and broadcast, and a float in gives a
float out.  A spec carries its conjugate as the field ``conjugate``: each
family builds its own, and a custom spec passes one.  For an f2 with no
closed conjugate, ``conjugate_via_slope_inversion`` at |s| is the helper
(``tlog_density2`` uses it).  Every built-in density is even, so each family
is written once, as a profile g on [0, inf) with its slope g', curvature g''
and conjugate g*; the public maps are the even extension t -> g(|t|), the
odd slope t -> sign(t) g'(|t|), and s -> g*(|s|).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConjugateRangeError",
    "NonLinearGrowthError",
    "NonConcaveObjectiveError",
    "ConjugateBoundaryWarning",
    "Density1Spec",
    "Density2Spec",
    "DensityPair",
    "IntegrabilityPrediction",
    "make_phi_nu",
    "make_hencky",
    "power_density2",
    "tlog_density2",
    "regularizer",
    "regularizer_deriv",
    "regularizer_second_deriv",
    "regularized_stress",
    "make_pair",
    "density_from_id",
    "conjugate_scalar",
    "conjugate_via_slope_inversion",
    "young_residual",
    "recession",
    "predict_integrability",
]

ScalarMap = Callable[[np.ndarray], np.ndarray]

# slope inversion reports an infinite conjugate once a bracket passes |t| = 1e12
_T_CAP = 1e12


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
class Density1Spec:
    """Convex density of linear growth acting on the first gradient component.

    ``recession_plus``/``recession_minus`` are the slopes at +/- infinity;
    ``conjugate`` is f1*, which raises ConjugateRangeError where it is
    infinite, beyond the recession slopes.
    """

    eval: ScalarMap
    deriv: ScalarMap
    second_deriv: ScalarMap
    recession_plus: float
    recession_minus: float
    conjugate: ScalarMap
    name: str = "density1"


@dataclass(frozen=True)
class Density2Spec:
    """Superlinear density acting on the second gradient component.

    ``p`` is the power-growth exponent (1 for nearly-linear N-functions such
    as t*log(1+t)); the solver's default regularizer exponent reads it.
    ``conjugate`` is f2*; for an f2 with no closed conjugate,
    ``conjugate_via_slope_inversion`` at |s| builds it.
    """

    eval: ScalarMap
    deriv: ScalarMap
    second_deriv: ScalarMap
    p: float
    conjugate: ScalarMap
    name: str = "density2"


# ---------------------------------------------------------------------------
# conjugation machinery
# ---------------------------------------------------------------------------


def conjugate_scalar(g: ScalarMap, s: float, t_max: float = 1e6) -> float:
    """sup_{0 <= t <= t_max} of s*t - g(t) by coarse bracketing (96 points)
    plus 90 golden-section steps.

    The derivative-free reference conjugate, one slope at a time: acceptance
    criterion 1 checks the power-density conjugates against it, and the
    biconjugate tests conjugate a conjugate with it.  The package's own
    conjugate without a closed form inverts the slope map instead
    (``conjugate_via_slope_inversion``).

    The objective must be concave (g convex); a unimodality violation on the
    coarse grid raises NonConcaveObjectiveError.  When the maximizer lands
    within 1e-6*t_max of t_max a ConjugateBoundaryWarning is emitted (the true
    supremum may live beyond the cap).
    """
    ts = np.concatenate([[0.0], np.geomspace(t_max * 1e-9, t_max, 95)])
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

    t_star, best = _golden_max(lambda t: s * t - float(g(t)), float(lo), float(hi), 90)
    value = max(best, float(vals[k]))
    if t_star >= t_max * (1.0 - 1e-6):
        warnings.warn(
            f"conjugate maximizer at search cap t_max={t_max:g} (s={s:g})",
            ConjugateBoundaryWarning,
        )
    return float(value)


def _golden_max(f: Callable[[float], float], a: float, b: float, steps: int):
    """Maximize a unimodal f on [a, b] by ``steps`` golden-section steps; returns
    the best point (x, f(x)) evaluated, strictly inside (a, b)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def conjugate_via_slope_inversion(g: ScalarMap, dg: ScalarMap, s) -> np.ndarray:
    """Conjugate of a differentiable convex g on [0, inf) by inverting g'.

    Solves g'(t) = s entrywise (``_invert_slope``) and returns s*t - g(t);
    slopes s <= g'(0) give -g(0), the supremum at t = 0.  A slope not
    attained below t = 1e12 raises ConjugateRangeError.
    """
    s_arr = np.asarray(s, dtype=np.float64)
    flat = s_arr.ravel()
    out = np.full(flat.shape, -float(g(0.0)))
    # objective nonincreasing on [0, inf) where s <= g'(0); a NaN slope
    # is inverted and comes back NaN
    inner = np.flatnonzero(~(flat <= float(dg(0.0))))
    if inner.size:
        t_star = _invert_slope(dg, flat[inner])
        out[inner] = flat[inner] * t_star - np.asarray(g(t_star))
    return out.reshape(s_arr.shape) if s_arr.ndim else float(out[0])


def _invert_slope(deriv: ScalarMap, s: np.ndarray) -> np.ndarray:
    """Solve deriv(t) = s entrywise for a nondecreasing deriv; s is 1-D and
    every slope exceeds deriv(0).

    Every bracket starts at [0, 1]; its upper end doubles per entry until
    the bracket encloses the slope, and an end beyond t = 1e12 raises
    ConjugateRangeError.  Bisection then halves each bracket, freezing an
    entry once hi - lo <= 1e-15*max(1, |hi|), and returns the midpoints.
    Only the entries still moving are passed to ``deriv``.
    """
    a = np.zeros(s.shape)
    b = np.ones(s.shape)
    idx = np.flatnonzero(deriv(b) < s)
    while idx.size:
        b[idx] *= 2.0
        beyond = b[idx] > _T_CAP
        if np.any(beyond):
            raise ConjugateRangeError(
                f"slope {s[idx][beyond][0]:g} not attained for |t| <= "
                f"{_T_CAP:g}; conjugate infinite"
            )
        idx = idx[deriv(b[idx]) < s[idx]]
    idx = np.arange(s.size)
    for _ in range(200):
        mid = 0.5 * (a[idx] + b[idx])
        below = deriv(mid) < s[idx]
        a[idx] = np.where(below, mid, a[idx])
        b[idx] = np.where(below, b[idx], mid)
        idx = idx[b[idx] - a[idx] > 1e-15 * np.maximum(1.0, np.abs(b[idx]))]
        if not idx.size:
            break
    return 0.5 * (a + b)


def young_residual(a: Density2Spec, t: float) -> float:
    """|A(t) + A*(A'(t)) - t*A'(t)|, the Fenchel-Young equality defect at t >= 0."""
    slope = float(a.deriv(t))
    return abs(float(a.eval(t)) + float(a.conjugate(slope)) - t * slope)


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


def _pointwise(fn: ScalarMap) -> ScalarMap:
    """Lift fn, a map of float64 arrays, to a ufunc-style map: arrays in and
    out, and a float out for a float (or 0-d) in."""

    def m(t):
        out = fn(np.asarray(t, dtype=np.float64))
        return out if out.ndim else float(out)

    return m


def _of_abs(g: ScalarMap) -> ScalarMap:
    """The even extension t -> g(|t|) of a profile g on [0, inf)."""
    return _pointwise(lambda t: g(np.abs(t)))


def _odd(dg: ScalarMap) -> ScalarMap:
    """The slope t -> sign(t)*g'(|t|) of the even extension, from dg = g'."""
    return _pointwise(lambda t: np.sign(t) * dg(np.abs(t)))


def make_phi_nu(nu: float) -> Density1Spec:
    """Linear-growth density with curvature (nu-1)*(1+|t|)**(-nu), nu in (1,2).

    Even, vanishes at zero, recession slopes +/-1, ellipticity exponent nu
    with a bounded upper curvature (gamma = 0).
    """
    if not (1.0 < nu < 2.0):
        raise ValueError(f"nu must lie in (1, 2), got {nu}")
    a = 2.0 - nu
    expo = (nu - 2.0) / (nu - 1.0)

    def conj(s):
        if np.any(s >= 1.0):
            raise ConjugateRangeError(
                "conjugate finite only for slopes strictly inside (-1, 1)"
            )
        beta = 1.0 - s
        return beta**expo * (nu - 1.0) / a + beta - 1.0 / a

    return Density1Spec(
        eval=_of_abs(lambda s: s - ((1.0 + s) ** a - 1.0) / a),
        deriv=_odd(lambda s: 1.0 - (1.0 + s) ** (1.0 - nu)),
        second_deriv=_of_abs(lambda s: (nu - 1.0) * (1.0 + s) ** (-nu)),
        recession_plus=1.0,
        recession_minus=1.0,
        conjugate=_of_abs(conj),
        name=f"phi_nu:{nu:g}",
    )


def make_hencky(k: float, nu: float) -> Density1Spec:
    """Quadratic-then-linear density: nu*s**2 up to s0 = k/(sqrt(2)*nu), then
    sqrt(2)*k*|s| - k**2/(2*nu).

    C1 across the branch point, linear growth with recession sqrt(2)*k.
    Its curvature vanishes beyond s0, so it carries no ellipticity exponent
    and is suitable only as an f1.
    """
    if not all(math.isfinite(x) and x > 0.0 for x in (k, nu)):
        raise ValueError(f"k and nu must be positive, got k={k}, nu={nu}")
    s0 = k / (math.sqrt(2.0) * nu)
    sl = math.sqrt(2.0) * k

    def conj(s):
        if np.any(s > sl):
            raise ConjugateRangeError(
                f"conjugate finite only on [-{sl:g}, {sl:g}]"
            )
        return s * s / (4.0 * nu)

    return Density1Spec(
        eval=_of_abs(
            lambda s: np.where(s <= s0, nu * s * s, sl * s - k * k / (2.0 * nu))
        ),
        deriv=_odd(lambda s: np.where(s <= s0, 2.0 * nu * s, sl)),
        second_deriv=_of_abs(lambda s: np.where(s <= s0, 2.0 * nu, 0.0)),
        recession_plus=sl,
        recession_minus=sl,
        conjugate=_of_abs(conj),
        name=f"hencky:{k:g}:{nu:g}",
    )


def power_density2(p: float) -> Density2Spec:
    """Superlinear density f2(t) = |t|**p, p > 1, an evenly extended N-function."""
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"power N-function needs p > 1, got {p}")
    q = p / (p - 1.0)

    def d2(s):
        with np.errstate(divide="ignore"):
            return p * (p - 1.0) * s ** (p - 2.0)

    return Density2Spec(
        eval=_of_abs(lambda s: s**p),
        deriv=_odd(lambda s: p * s ** (p - 1.0)),
        second_deriv=_of_abs(d2),
        p=p,
        # sup_t s*t - t**p attained at t = (s/p)**(1/(p-1))
        conjugate=_of_abs(lambda s: (p - 1.0) * (s / p) ** q),
        name=f"power:{p:g}",
    )


def tlog_density2() -> Density2Spec:
    """Nearly-linear superlinear density f2(t) = |t|*log(1+|t|); its
    conjugate, which has no closed form, inverts the slope map at |s|."""
    f2 = _of_abs(lambda s: s * np.log1p(s))
    df2 = _odd(lambda s: np.log1p(s) + s / (1.0 + s))
    return Density2Spec(
        eval=f2,
        deriv=df2,
        second_deriv=_of_abs(lambda s: (2.0 + s) / (1.0 + s) ** 2),
        p=1.0,
        conjugate=lambda s: conjugate_via_slope_inversion(f2, df2, np.abs(s)),
        name="nfun_tlog",
    )


# ---------------------------------------------------------------------------
# pairs and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityPair:
    """The split integrand f(xi) = f1(xi_1) + f2(xi_2) with both conjugates.

    The conjugate splits the same way: f*(s) = conjugate_f1(s_1) +
    conjugate_f2(s_2).
    """

    f1: Density1Spec
    f2: Density2Spec
    conjugate_f1: ScalarMap
    conjugate_f2: ScalarMap


def make_pair(f1: Density1Spec, f2: Density2Spec) -> DensityPair:
    """Bundle the two densities; the one place a density's slot is checked:
    f1 must be a Density1Spec (linear growth) and f2 a Density2Spec whose
    recession probe diverges (superlinear growth)."""
    if not isinstance(f1, Density1Spec):
        raise ValueError(f"{f1.name!r} is superlinear; not usable as f1")
    if not isinstance(f2, Density2Spec):
        raise ValueError(f"{f2.name!r} has linear growth; not usable as f2")
    try:
        recession(f2.eval, +1)
    except NonLinearGrowthError:
        pass
    else:
        raise ValueError(
            f"{f2.name}: linear growth detected; the second slot must be superlinear"
        )
    return DensityPair(f1=f1, f2=f2, conjugate_f1=f1.conjugate, conjugate_f2=f2.conjugate)


def _finite_float(text, what: str = "each parameter") -> float:
    """``float(text)``, raising ValueError naming ``what`` unless it is a
    finite number; the one parser of the numbers inside ids and of the CLI's
    --s-max, so that nan, inf and a word are input errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {text!r}")
    return value


def _positive_decreasing(values, what: str, upper: float = math.inf) -> tuple:
    """``values`` as a tuple of floats that is nonempty, finite, in (0,
    upper) and strictly decreasing, else ValueError naming ``what``: the
    delta schedule's rule (upper 1) and the approximation widths'."""
    vals = tuple(float(x) for x in values)
    if not vals:
        raise ValueError(f"{what} must be nonempty")
    if not all(math.isfinite(x) and 0.0 < x < upper for x in vals):
        bound = f", positive and below {upper:g}" if math.isfinite(upper) else " and positive"
        raise ValueError(f"{what} must be finite{bound}: {vals}")
    if any(b >= a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{what} must be strictly decreasing: {vals}")
    return vals


def density_from_id(ident: str):
    """Resolve a density id string; the family fixes the spec type.

    Ids: ``phi_nu:<nu>`` and ``hencky:<k>:<nu>`` give a Density1Spec (linear
    growth, the f1 slot), ``power:<p>`` (f2(t) = |t|**p) and ``nfun_tlog`` a
    Density2Spec (superlinear, the f2 slot); ``make_pair`` checks the slots.
    Every parameter must be a finite number.
    """
    parts = ident.split(":")
    kind = parts[0]
    try:
        if kind == "phi_nu" and len(parts) == 2:
            spec = make_phi_nu(_finite_float(parts[1]))
        elif kind == "hencky" and len(parts) == 3:
            spec = make_hencky(_finite_float(parts[1]), _finite_float(parts[2]))
        elif kind == "power" and len(parts) == 2:
            spec = power_density2(_finite_float(parts[1]))
        elif kind == "nfun_tlog" and len(parts) == 1:
            spec = tlog_density2()
        else:
            raise ValueError(f"unknown density id {ident!r}")
    except ValueError as exc:
        raise ValueError(f"invalid density id {ident!r}: {exc}") from None
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


def _resolve_p_reg(d: DensityPair, p_reg: Optional[float]) -> float:
    """The delta-regularizer exponent of every caller that takes a ``p_reg``:
    ``p_reg`` when given, else the power-growth exponent of f2 when that is
    at least 2, else 2.  It must be finite and >= 2 (else ValueError), so
    that rho_p'' >= p and the dual exponent p/(p-1) is finite."""
    if p_reg is None:
        p_reg = float(d.f2.p) if d.f2.p >= 2.0 else 2.0
    if not (math.isfinite(p_reg) and p_reg >= 2.0):
        raise ValueError(f"p_reg must be finite and >= 2, got {p_reg}")
    return p_reg


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
        out = asdict(self)
        if self.chi is not None and math.isinf(self.chi):
            out["chi"] = "unbounded"
        return out


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
    if not (math.isfinite(p) and p > 1.0):
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    if mu is not None and not (math.isfinite(mu) and mu > 1.0):
        raise ValueError(f"mu must be finite and exceed 1, got {mu}")

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
    t_s, t_a = (g.ravel() for g in np.meshgrid(taus, taus, indexing="ij"))
    # near-degenerate candidates guarantee chi > p+1 whenever gamma < p/(p+1);
    # appended after the grid, so the first argmax prefers a grid pair and a
    # degenerate pair wins only by a strictly larger tau_s
    t_deg = np.array([1e-3, 1e-6, 1e-9, 1e-12])
    t_s = np.concatenate([t_s, 0.5 + 0.5 * t_deg])
    t_a = np.concatenate([t_a, t_deg])
    diff = t_s - t_a
    mask = (np.abs(diff) < 0.5) & (gamma < (p - 1.0 + 2.0 * diff) / (p + 2.0 * t_s))
    if not np.any(mask):
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
    k = int(np.argmax(np.where(mask, t_s, -np.inf)))
    tau_s, tau_alpha = float(t_s[k]), float(t_a[k])
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
