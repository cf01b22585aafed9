"""Output checks, each computed apart from the code path it checks.

Every check is a pure function of plain numbers or arrays and raises
``CheckFailed`` with a one-line reason, so ``selftest.py`` can feed it a
perturbed result and see it fail.  None compares against a stored copy of
an earlier output: each one is a closed form, an identity, or an
inequality the discrete problem must satisfy.
"""

from __future__ import annotations

import math

import numpy as np

AFFINE_J = 20.0 - 8.0 * math.sqrt(3.0)  # 4 * (phi_1.5(2) + |-1|**2)
UNIT_JUMP_K = 2.0  # recession slope 1 * jump height 1 * line length 2
KERNEL_L1 = 3.0 / 16.0  # L1 distance of the Epanechnikov ramp per width and mass
FP_REL = 1e-12  # rounding allowance for energies summed over <= 1e5 cells


class CheckFailed(AssertionError):
    """A benchmark output failed an independent check."""


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def levels_converged(levels) -> None:
    """Every level reached its gradient tolerance without a flag.

    ``levels`` is a sequence of (delta, converged, flags).
    """
    for delta, converged, flags in levels:
        _fail_unless(
            converged and not flags,
            f"level delta={delta:g} ended unconverged (flags {list(flags)})",
        )


def schedule_inequality(levels, tol_grad: float) -> None:
    """J nonincreasing and the two-sided bound between consecutive levels.

    For minimizers u at delta and u' at delta' < delta, with
    I = integral of (1+|d1 u|^2)^(p/2), adding the two minimality
    inequalities gives

        delta' (I' - I) <= J - J' <= delta (I' - I).

    An iterate whose gradient has max norm r instead of 0 satisfies each
    minimality inequality up to r * ||u - u'||_1 (convexity of J_delta), so
    that is the slack, with r bounded by ``tol_grad``.  ``levels`` holds
    (delta, J, I, u) per level, u the nodal array.
    """
    for (d, j, i_reg, u), (d2, j2, i_reg2, u2) in zip(levels, levels[1:]):
        slack = tol_grad * float(np.sum(np.abs(u2 - u))) + FP_REL * (
            1.0 + abs(j) + abs(j2) + d * i_reg2
        )
        drop = j - j2
        _fail_unless(
            drop >= -2.0 * slack,
            f"J increased from {j!r} to {j2!r} at delta={d2:g}",
        )
        lo = d2 * (i_reg2 - i_reg) - slack
        hi = d * (i_reg2 - i_reg) + slack
        _fail_unless(
            lo <= drop <= hi,
            f"J-J'={drop!r} outside [{lo!r}, {hi!r}] at delta={d2:g}",
        )


def local_minimality(center: float, probes, first_order: float) -> None:
    """J_delta at u +/- eps*phi is not below J_delta(u) beyond the slack.

    ``probes`` are the energies at the perturbed fields; ``first_order``
    bounds |<grad J_delta(u), eps*phi>| for the largest probe direction.
    """
    floor = center - first_order - FP_REL * (1.0 + abs(center))
    worst = min(probes)
    _fail_unless(
        worst >= floor,
        f"perturbed J_delta {worst!r} below the minimum {center!r}",
    )


def relaxation_identity(k_value: float, j_value: float) -> None:
    """K of the lifted (jump-free, own-trace) field equals its split energy."""
    _fail_unless(
        abs(k_value - j_value) <= FP_REL * (1.0 + abs(j_value)),
        f"K(lift u)={k_value!r} differs from J={j_value!r}",
    )


def unit_jump(k_value: float) -> None:
    """K of the unit-jump candidate (zero smooth part) is the closed form 2."""
    _fail_unless(
        abs(k_value - UNIT_JUMP_K) <= FP_REL * UNIT_JUMP_K,
        f"K(unit jump)={k_value!r}, closed form {UNIT_JUMP_K}",
    )


def upper_bound(j_final: float, k_value: float) -> None:
    """The continuation limit does not exceed the relaxed energy of a candidate
    with the same boundary data."""
    _fail_unless(
        j_final <= k_value + FP_REL * (1.0 + abs(k_value)),
        f"J_final={j_final!r} above the candidate's K={k_value!r}",
    )


def weak_duality(j_value: float, r_value: float, certified: bool, slack: float) -> None:
    """R <= J for a divergence-certified stress.

    ``slack`` is the divergence residual times ||u - u0||_1: the certificate
    tolerates a nearly divergence-free stress at that price.
    """
    _fail_unless(certified, "stress is not divergence-certified")
    _fail_unless(
        r_value <= j_value + slack + FP_REL * (1.0 + abs(j_value)),
        f"dual value R={r_value!r} above primal J={j_value!r}",
    )


def affine_oracle(j_value: float, max_node_error: float) -> None:
    """Affine data 2*x1 - x2 is its own minimizer with J = 20 - 8*sqrt(3)."""
    _fail_unless(
        abs(j_value - AFFINE_J) <= 1e-9 and max_node_error <= 1e-6,
        f"affine oracle J={j_value!r} (want {AFFINE_J!r}), "
        f"node error {max_node_error:.2e}",
    )


def fenchel_young(conj_values, ts) -> None:
    """f2(t) + f2*(f2'(t)) = t f2'(t) for f2(t) = |t| log(1+|t|).

    ``conj_values`` are the conjugates the package computed at the slopes
    f2'(t); the slopes and the right-hand side use the closed forms here.
    """
    ts = np.asarray(ts, dtype=np.float64)
    slopes = np.log1p(ts) + ts / (1.0 + ts)
    expected = ts * slopes - ts * np.log1p(ts)
    err = np.abs(np.asarray(conj_values) - expected) / (1.0 + np.abs(expected))
    worst = int(np.argmax(err))
    _fail_unless(
        err[worst] <= 1e-9,
        f"Fenchel-Young defect {err[worst]:.2e} at t={float(ts[worst])!r}",
    )


def approximation_rows(widths, l1_distance, j_values, k_reference, jump_mass) -> None:
    """Ramp L1 distance = (3/16) * width * jump mass; J rises toward K.

    With a jump-free smooth part of zero first slope, the smoothed energy
    is eps * integral of f1(h k(y)/eps), and f1(t)/t is nondecreasing for
    convex f1 with f1(0) = 0, so J(eps) increases as eps shrinks and stays
    at most K.
    """
    for eps, l1 in zip(widths, l1_distance):
        want = KERNEL_L1 * eps * jump_mass
        _fail_unless(
            abs(l1 - want) <= 1e-12 * want,
            f"approximation L1 distance {l1!r} at width {eps:g}, want {want!r}",
        )
    tol = FP_REL * (1.0 + abs(k_reference))
    for a, b in zip(j_values, j_values[1:]):
        _fail_unless(b >= a - tol, f"smoothed J fell from {a!r} to {b!r}")
    _fail_unless(
        j_values[-1] <= k_reference + tol,
        f"smoothed J {j_values[-1]!r} above K={k_reference!r}",
    )


def sweep_integrals(table, expected) -> None:
    """Sweep integrals match a direct recomputation, exponent by exponent."""
    for key, want in expected.items():
        got = np.asarray(table[key])
        _fail_unless(
            np.allclose(got, want, rtol=1e-12, atol=0.0),
            f"sweep integrals for exponent {key} differ: {got!r} vs {want!r}",
        )


def bitwise_equal(label: str, a, b) -> None:
    """Round-tripped bytes are identical."""
    _fail_unless(bytes(a) == bytes(b), f"{label} round trip is not bitwise exact")
