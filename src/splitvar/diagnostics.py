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

from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .densities import DensityPair
from .energy import BVCandidate, _cell_sums, eval_K, lift_to_candidate
from .grid import GridFunction, _inset_mask, gradient, write_csv
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
    """Interior integrals of gradient powers along the schedule, per exponent."""

    deltas: list
    margin: float
    chi_integrals: dict
    kappa_integrals: dict
    chi_flags: dict
    kappa_flags: dict

    def to_dict(self) -> dict:
        return {
            "deltas": self.deltas,
            "margin": self.margin,
            "chi": {
                repr(k): {"integrals": v, "flag": self.chi_flags[k]}
                for k, v in self.chi_integrals.items()
            },
            "kappa": {
                repr(k): {"integrals": v, "flag": self.kappa_flags[k]}
                for k, v in self.kappa_integrals.items()
            },
        }

    def write_csv(self, path: str) -> None:
        rows = [
            (delta, kind, expo, val, flags[expo])
            for kind, table, flags in (
                ("second_component", self.chi_integrals, self.chi_flags),
                ("full_gradient", self.kappa_integrals, self.kappa_flags),
            )
            for expo, vals in table.items()
            for delta, val in zip(self.deltas, vals)
        ]
        write_csv(
            path, ["delta", "kind", "exponent", "integral", "flag"], list(zip(*rows))
        )


def _bounded_flag(vals: Sequence[float]) -> str:
    last, prev = vals[-1], vals[-2]
    return "BOUNDED" if abs(last - prev) <= BOUNDED_REL_TOL * abs(prev) else "GROWING"


def integrability_sweep(
    report: SolveReport,
    chis: Sequence[float],
    kappas: Sequence[float] = (),
    margin: float = 0.1,
) -> SweepTable:
    """Track interior integrals of (1+|grad_2 u|^2)^(chi/2) along the schedule.

    ``report`` must come from a continuation run with stored fields and at
    least three levels.  ``margin`` insets the integration window by that
    fraction of each side.  Optional ``kappas`` add the analogous integrals
    of the first gradient component (the full-gradient diagnostics).  An
    exponent is flagged BOUNDED when the last two levels agree within 10%.
    """
    if not (0.0 < margin < 0.5):
        raise ValueError(f"margin must lie in (0, 0.5), got {margin}")
    stored = [r for r in report.records if r.u is not None]
    if len(stored) < 3:
        raise ValueError("need at least 3 schedule levels with stored fields")

    grid = report.u_final.grid
    mask = _inset_mask(grid, margin)
    area = grid.cell_area

    deltas = [r.delta for r in stored]
    chi_integrals = {float(chi): [] for chi in chis}
    kappa_integrals = {float(k): [] for k in kappas}
    for rec in stored:
        u = GridFunction(grid, rec.u)
        g = gradient(u)
        base2 = 1.0 + g.comp2[mask] ** 2
        base1 = 1.0 + g.comp1[mask] ** 2
        for chi in chi_integrals:
            chi_integrals[chi].append(area * float(np.sum(base2 ** (0.5 * chi))))
        for kappa in kappa_integrals:
            kappa_integrals[kappa].append(area * float(np.sum(base1 ** (0.5 * kappa))))

    chi_flags = {chi: _bounded_flag(vals) for chi, vals in chi_integrals.items()}
    kappa_flags = {k: _bounded_flag(vals) for k, vals in kappa_integrals.items()}
    return SweepTable(
        deltas=deltas,
        margin=margin,
        chi_integrals=chi_integrals,
        kappa_integrals=kappa_integrals,
        chi_flags=chi_flags,
        kappa_flags=kappa_flags,
    )


# ---------------------------------------------------------------------------
# approximation experiment
# ---------------------------------------------------------------------------

# Epanechnikov kernel on [-1/2, 1/2], the slope of the C1 mollified step
def _kernel(u: np.ndarray) -> np.ndarray:
    inside = np.abs(u) < 0.5
    return np.where(inside, 1.5 * (1.0 - 4.0 * u * u), 0.0)


# 16-point Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(16)
# written out, digit for digit (repr round trips), so that importing the
# package does not load numpy.polynomial
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


def _gauss_panels(a: float, b: float, n_panels: int = 8):
    edges = np.linspace(a, b, n_panels + 1)
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


def _candidate_own_boundary(w: BVCandidate) -> np.ndarray:
    """Boundary array matching the candidate's own traces (zero detachment)."""
    g = w.smooth_part.grid
    vals = w.smooth_part.values.copy()
    vals[0, :] = w.trace_left
    vals[-1, :] = w.trace_right
    vals[:, 0] = w.edge_values("bottom")
    vals[:, -1] = w.edge_values("top")
    return vals


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
    other jump lines by the largest width.  When ``u0`` is omitted the
    relaxed reference energy uses the candidate's own traces, the only case
    in which the smoothed split energies can converge to it.
    """
    widths = [float(x) for x in widths]
    if not widths or not all(x > 0.0 for x in widths):
        raise ValueError("widths must be positive")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly decreasing")

    g = w.smooth_part.grid
    for seg in w.jumps:
        if seg.cell_start != 0 or seg.cell_end != g.n2:
            raise ValueError(
                "approximation experiment requires jumps spanning the full x2 range"
            )
    w_max = widths[0]
    lines = [-1.0 + 2.0 * seg.line_index / g.n1 for seg in w.jumps]
    for x_line in lines:
        if x_line - 0.5 * w_max <= -1.0 or x_line + 0.5 * w_max >= 1.0:
            raise ValueError("width exceeds the margin to the lateral boundary")
    for a_idx in range(len(lines)):
        for b_idx in range(a_idx + 1, len(lines)):
            if abs(lines[a_idx] - lines[b_idx]) <= w_max:
                raise ValueError("smoothing zones of distinct jumps overlap")

    if u0 is None:
        u0 = _candidate_own_boundary(w)
    k_ref = eval_K(w, d, u0)

    grad_smooth = gradient(w.smooth_part)
    c1, c2 = grad_smooth.comp1, grad_smooth.comp2
    base_j1, base_j2, _ = _cell_sums(grad_smooth, d)
    base_area = g.cell_area * float(np.sum(np.sqrt(1.0 + c1**2 + c2**2)))
    jump_mass = sum(
        abs(seg.height) * (seg.cell_end - seg.cell_start) * g.h2 for seg in w.jumps
    )
    area_ref = base_area + jump_mass

    x1_nodes, _ = g.node_coords()
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
                c1_row = c1[i, :]
                c2_row = c2[i, :]
                shifted = c1_row[None, :] + ramp[:, None]
                f1_new = np.asarray(d.f1.eval(shifted))
                f1_old = np.asarray(d.f1.eval(c1_row))[None, :]
                j_corr += g.h2 * float(np.sum(ws[:, None] * (f1_new - f1_old)))
                area_new = np.sqrt(1.0 + shifted**2 + c2_row[None, :] ** 2)
                area_old = np.sqrt(1.0 + c1_row**2 + c2_row**2)[None, :]
                area_corr += g.h2 * float(np.sum(ws[:, None] * (area_new - area_old)))
        rows_l1.append(jump_mass * eps * _KERNEL_L1)
        rows_area.append(base_area + area_corr)
        rows_f2.append(base_j2)
        rows_j.append(base_j1 + base_j2 + j_corr)

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
    final iterate of the continuation itself.
    """
    if candidates is not None and len(candidates) == 0:
        raise ValueError("need at least one candidate")
    report = continuation(cfg)
    j_final = report.records[-1].j_value
    if candidates is None:
        candidates = [lift_to_candidate(report.u_final)]
    k_values = [eval_K(w, cfg.densities, cfg.u0).j_total for w in candidates]
    k_best = min(k_values)
    gap = k_best - j_final
    return {
        "j_final": j_final,
        "k_values": k_values,
        "k_best": k_best,
        "gap": gap,
        "contract_ok": gap >= -1e-3 * (1.0 + abs(j_final)),
    }
