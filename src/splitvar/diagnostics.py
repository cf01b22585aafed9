"""Diagnostics: integrability sweeps over the regularization schedule, the
jump-smoothing approximation experiment, and relaxation-gap checks.

The approximation experiment replaces each vertical jump by a C1 ramp of
prescribed width (a mollified step with an Epanechnikov kernel) and tracks
the L1 distance, the area integrand, the superlinear energy, and the split
energy as the width shrinks.  The ramp integrals are evaluated by composite
Gauss quadrature in the x1 variable, so widths far below the mesh size are
admissible; on jump-free candidates every row reproduces the unsmoothed
values exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .densities import DensityPair, _positive_decreasing, regularizer
from .energy import BVCandidate, EnergyOverflowError, eval_K, lift_to_candidate
from .grid import INSET_MARGIN, GridFunction, _inset_mask, gradient, write_csv
from .solve import SolveConfig, SolveReport, continuation

__all__ = [
    "SweepTable",
    "ApproximationTable",
    "integrability_sweep",
    "approximation_experiment",
    "relaxation_gap",
]

BOUNDED_REL_TOL = 0.10


# ---------------------------------------------------------------------------
# integrability sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepTable:
    """Interior integrals of gradient powers along the schedule, per
    exponent; each exponent's flag is read from its integrals."""

    deltas: list
    margin: float
    chi_integrals: dict
    kappa_integrals: dict

    @property
    def chi_flags(self) -> dict:
        return {k: _bounded_flag(v) for k, v in self.chi_integrals.items()}

    @property
    def kappa_flags(self) -> dict:
        return {k: _bounded_flag(v) for k, v in self.kappa_integrals.items()}

    def _kinds(self):
        """(JSON key, CSV kind, integrals) of the two kinds of exponent."""
        return (("chi", "second_component", self.chi_integrals),
                ("kappa", "full_gradient", self.kappa_integrals))

    def to_dict(self) -> dict:
        out = {"deltas": self.deltas, "margin": self.margin}
        for key, _, integrals in self._kinds():
            out[key] = {repr(k): {"integrals": v, "flag": _bounded_flag(v)}
                        for k, v in integrals.items()}
        return out

    def write_csv(self, path: str) -> None:
        rows = [
            (delta, kind, expo, val, _bounded_flag(vals))
            for _, kind, integrals in self._kinds()
            for expo, vals in integrals.items()
            for delta, val in zip(self.deltas, vals)
        ]
        write_csv(
            path, ["delta", "kind", "exponent", "integral", "flag"], list(zip(*rows))
        )


def _bounded_flag(vals: Sequence[float]) -> str:
    last, prev = vals[-1], vals[-2]
    return "BOUNDED" if abs(last - prev) <= BOUNDED_REL_TOL * abs(prev) else "GROWING"


def _sweep_inputs(chis, kappas, n_stored: int, margin: float = INSET_MARGIN):
    """The input rule of ``integrability_sweep``: ``margin`` in (0, 0.5), at
    least one chi, finite exponents and at least 3 stored levels, else
    ValueError.  Returns the exponents as two tuples of floats.  The CLI
    checks a sweep with it before its continuation, ``n_stored`` being the
    length of the schedule."""
    if not (0.0 < margin < 0.5):
        raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
    chis, kappas = tuple(float(x) for x in chis), tuple(float(x) for x in kappas)
    if len(chis) == 0:
        raise ValueError("need at least one chi exponent")
    if not all(math.isfinite(x) for x in chis + kappas):
        raise ValueError(f"sweep exponents must be finite, got chis {chis}, kappas {kappas}")
    if n_stored < 3:
        raise ValueError("need at least 3 schedule levels with stored fields")
    return chis, kappas


def integrability_sweep(
    report: SolveReport,
    chis: Sequence[float],
    kappas: Sequence[float] = (),
    margin: float = INSET_MARGIN,
) -> SweepTable:
    """Track interior integrals of rho_chi(grad_2 u) = (1+|grad_2 u|^2)^(chi/2),
    the delta-regularizer's profile (``regularizer``), along the schedule.

    ``report`` must come from a continuation run with stored fields and at
    least three levels, and ``chis`` must be nonempty; every exponent must
    be finite (``_sweep_inputs``).  ``margin`` insets the window of
    ``_inset_mask`` by that fraction of each side.  Optional ``kappas`` add
    the integrals of rho_kappa(grad_1 u) (the full-gradient diagnostics).
    An exponent is flagged BOUNDED when the last two levels agree within
    10%.  A non-finite integral raises EnergyOverflowError: an overflow
    says nothing of growth.
    """
    stored = [r for r in report.records if r.u is not None]
    chis, kappas = _sweep_inputs(chis, kappas, len(stored), margin)

    grid = report.u_final.grid
    mask = _inset_mask(grid, margin)
    table = SweepTable([r.delta for r in stored], margin,
                       {chi: [] for chi in chis}, {k: [] for k in kappas})
    for rec in stored:
        g = gradient(GridFunction(grid, rec.u))
        for (key, _, integrals), comp in zip(table._kinds(), (g.comp2, g.comp1)):
            inner = comp[mask]
            for expo, vals in integrals.items():
                vals.append(grid.integrate(regularizer(inner, expo)))
                if not math.isfinite(vals[-1]):
                    raise EnergyOverflowError(f"the sweep integral of {key} = {expo!r} "
                                              f"is not finite at delta = {rec.delta!r}")
    return table


# ---------------------------------------------------------------------------
# approximation experiment
# ---------------------------------------------------------------------------

# Epanechnikov kernel on [-1/2, 1/2], the slope of the C1 mollified step
def _kernel(u: np.ndarray) -> np.ndarray:
    inside = np.abs(u) < 0.5
    return np.where(inside, 1.5 * (1.0 - 4.0 * u * u), 0.0)


# the ramp integrals' composite rule: GAUSS_PANELS equal panels of each cell's
# share of a ramp, each with the 16-point Gauss-Legendre rule on [-1, 1],
# numpy.polynomial.legendre.leggauss(16) written out digit for digit (repr
# round trips), so that importing the package does not load numpy.polynomial
GAUSS_PANELS = 8
_GAUSS_NODES = np.array(
    [
        -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
        -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
        -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
        0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
        0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
    ]
)
_GAUSS_WEIGHTS = np.array(
    [
        0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
        0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
        0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
        0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
        0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
        0.027152459411754176,
    ]
)


def _gauss_panels(a: float, b: float):
    edges = np.linspace(a, b, GAUSS_PANELS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + half[:, None] * _GAUSS_NODES[None, :]).ravel()
    ws = (half[:, None] * _GAUSS_WEIGHTS[None, :]).ravel()
    return xs, ws


# integral of |S - heaviside| over the support, S(u) = 1/2 + 3u/2 - 2u^3 the
# mollified step (the primitive of _kernel): by symmetry
# 2 * int_0^(1/2) (1/2 - 3u/2 + 2u^3) du = 2 * (1/4 - 3/16 + 1/32) = 3/16
_KERNEL_L1 = 3.0 / 16.0


@dataclass
class ApproximationTable:
    """Rows of the jump-smoothing experiment, one per width."""

    widths: list
    l1_distance: list
    area_integral: list
    f2_energy: list
    j_value: list
    area_reference: float
    k_reference: float
    terminal_j_deviation: float

    def to_dict(self) -> dict:
        return asdict(self)

    def write_csv(self, path: str) -> None:
        write_csv(
            path,
            ["width", "l1_distance", "area_integral", "f2_energy", "j"],
            [self.widths, self.l1_distance, self.area_integral, self.f2_energy, self.j_value],
        )


def approximation_experiment(
    w: BVCandidate,
    d: DensityPair,
    widths: Sequence[float],
    u0=None,
) -> ApproximationTable:
    """Replace jumps by width-eps ramps and track energies as eps shrinks.

    Jumps must span the full x2 extent (partial spans would shed mass into
    the second gradient component, which the candidate representation keeps
    function-valued).  Every ramp must clear the lateral boundary and the
    other jump lines by the largest width.  ``widths`` must be nonempty,
    finite, positive and strictly decreasing (the delta schedule's rule
    without its bound 1).  When ``u0`` is omitted the relaxed reference
    energy uses the candidate's own trace, ``w.boundary()``, the only case
    in which the smoothed split energies can converge to it.
    """
    widths = list(_positive_decreasing(widths, "widths"))

    g = w.smooth_part.grid
    for seg in w.jumps:
        if seg.cell_start != 0 or seg.cell_end != g.n2:
            raise ValueError(
                "approximation experiment requires jumps spanning the full x2 range"
            )
    w_max = widths[0]
    x1_nodes, _ = g.node_coords()
    lines = [float(x1_nodes[seg.line_index]) for seg in w.jumps]
    for x_line in lines:
        if x_line - 0.5 * w_max <= -1.0 or x_line + 0.5 * w_max >= 1.0:
            raise ValueError("width exceeds the margin to the lateral boundary")
    for a_idx in range(len(lines)):
        for b_idx in range(a_idx + 1, len(lines)):
            if abs(lines[a_idx] - lines[b_idx]) <= w_max:
                raise ValueError("smoothing zones of distinct jumps overlap")

    k_ref = eval_K(w, d, w.boundary() if u0 is None else u0)

    grad_smooth = gradient(w.smooth_part)
    c1, c2 = grad_smooth.comp1, grad_smooth.comp2
    f1_cells = np.asarray(d.f1.eval(c1))
    area_cells = np.sqrt(1.0 + c1**2 + c2**2)
    base_area = g.integrate(area_cells)
    jump_mass = sum(
        abs(seg.height) * (seg.cell_end - seg.cell_start) * g.h2 for seg in w.jumps
    )
    area_ref = base_area + jump_mass

    cell_left = x1_nodes[:-1]
    cell_right = x1_nodes[1:]

    rows_l1, rows_area, rows_f2, rows_j = [], [], [], []
    for eps in widths:
        j_corr = 0.0
        area_corr = 0.0
        for seg, x_line in zip(w.jumps, lines):
            zone_a, zone_b = x_line - 0.5 * eps, x_line + 0.5 * eps
            cells = np.nonzero((cell_right > zone_a) & (cell_left < zone_b))[0]
            for i in cells:
                a = max(zone_a, float(cell_left[i]))
                b = min(zone_b, float(cell_right[i]))
                xs, ws = _gauss_panels(a, b)
                ramp = (seg.height / eps) * _kernel((xs - x_line) / eps)
                shifted = c1[i, None] + ramp[:, None]
                f1_new = np.asarray(d.f1.eval(shifted))
                j_corr += g.h2 * float(np.sum(ws[:, None] * (f1_new - f1_cells[i, None])))
                area_new = np.sqrt(1.0 + shifted**2 + c2[i, None] ** 2)
                area_corr += g.h2 * float(np.sum(ws[:, None] * (area_new - area_cells[i, None])))
        rows_l1.append(jump_mass * eps * _KERNEL_L1)
        rows_area.append(base_area + area_corr)
        rows_f2.append(k_ref.j_f2)
        rows_j.append(k_ref.j_f1 + k_ref.j_f2 + j_corr)

    return ApproximationTable(
        widths=widths,
        l1_distance=rows_l1,
        area_integral=rows_area,
        f2_energy=rows_f2,
        j_value=rows_j,
        area_reference=area_ref,
        k_reference=k_ref.j_total,
        terminal_j_deviation=abs(rows_j[-1] - k_ref.j_total),
    )


# ---------------------------------------------------------------------------
# relaxation gap
# ---------------------------------------------------------------------------


def relaxation_gap(
    candidates: Optional[Sequence[BVCandidate]], cfg: SolveConfig
) -> dict:
    """Minimum relaxed energy over the candidates minus the continuation limit.

    The gap should be nonnegative up to solver tolerance: the relaxed
    functional of any admissible candidate cannot undercut the infimum the
    continuation approaches from above.  ``candidates=None`` uses the lifted
    final iterate of the continuation itself.  K does not depend on the
    solve, so given candidates are priced first: one that breaks its trace
    raises CandidateInvariantError before the continuation runs.
    """
    if candidates is not None and len(candidates) == 0:
        raise ValueError("need at least one candidate")
    k_values = [eval_K(w, cfg.densities, cfg.u0).j_total for w in candidates or ()]
    report = continuation(cfg)
    j_final = report.records[-1].j_value
    if candidates is None:
        lifted = lift_to_candidate(report.u_final)
        k_values = [eval_K(lifted, cfg.densities, cfg.u0).j_total]
    k_best = min(k_values)
    gap = k_best - j_final
    return {
        "j_final": j_final,
        "k_values": k_values,
        "k_best": k_best,
        "gap": gap,
        "contract_ok": gap >= -1e-3 * (1.0 + abs(j_final)),
    }
