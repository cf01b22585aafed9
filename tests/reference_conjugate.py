"""The derivative-free reference conjugate, a test oracle.

The package evaluates every conjugate in closed form or by
``conjugate_via_slope_inversion``.  This module keeps an independent check
on both: a coarse bracketing plus golden-section search for sup s*t - g(t),
and the Fenchel-Young residual of a density at a point.  Acceptance
criterion 1 checks the power conjugates against it, ``test_cli.py`` the
nfun_tlog conjugate table, and the biconjugate tests in
``test_densities.py`` conjugate a conjugate with it.  The golden section is
the package's one routine, ``duality._golden_max``.
"""

import warnings

import numpy as np

from splitvar.densities import Density2Spec, ScalarMap
from splitvar.duality import _golden_max


class NonConcaveObjectiveError(RuntimeError):
    """Conjugate search detected a non-concave objective (density not convex)."""


class ConjugateBoundaryWarning(UserWarning):
    """Conjugate maximizer landed at the search boundary; result may be truncated."""


def conjugate_scalar(g: ScalarMap, s: float, t_max: float = 1e6) -> float:
    """sup_{0 <= t <= t_max} of s*t - g(t) by coarse bracketing (96 points)
    plus 90 golden-section steps.

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


def young_residual(a: Density2Spec, t: float) -> float:
    """|A(t) + A*(A'(t)) - t*A'(t)|, the Fenchel-Young equality defect at t >= 0."""
    slope = float(a.deriv(t))
    return abs(float(a.eval(t)) + float(a.conjugate(slope)) - t * slope)
