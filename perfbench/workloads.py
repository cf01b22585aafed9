"""The two workloads: their inputs, one operation, its checks.

Both use f1 = phi_nu:1.5 and fixed boundary data.  One operation takes one
problem to a checked result: ``compute`` runs the package and returns a
plain dict of results, ``check`` feeds it to ``checks.py``; ``selftest.py``
perturbs such dicts.  The seed drives what the checks probe with, through
``numpy.random.default_rng([seed, index])``: the perturbation fields of the
minimality check, the Fenchel-Young sample slopes, the jump line and the
ramp height.  The solver inputs do not vary with the seed, because some
seeded variations of the data make a level stall (see CHANGES.md).

- ``smooth``: tanh(3 x1) + 0.2 x2, f2 = power:2, ``continuation`` with its
  contracts on 1e-1, 1e-2, 1e-3 on a grid where the CG loop dominates, then
  the integrability sweep of the family and K of the lifted result.
- ``jump``: step:0:1, f2 = power:2, a warm-started ``minimize_J_delta`` chain
  over 1e-1 .. 1e-4, then the certificates: dual gap, relaxed energy of the
  unit-jump candidate, the approximation experiment, CSV and VSGF round
  trips, and the nfun_tlog conjugate at sampled slopes.  The chain bypasses
  ``continuation``, whose delta-term ratio contract rejects step data; the
  true two-sided inequality is checked here instead.
"""

from __future__ import annotations

import math
import os

import numpy as np

import checks
from splitvar import (
    BVCandidate,
    Grid,
    GridFunction,
    JumpSegment,
    SolveConfig,
    lift_to_candidate,
    make_pair,
)
from splitvar.densities import make_phi_nu, power_density2, tlog_density2

# cells per axis: the measured size and the smoke-test size
SIZES = {
    "smooth": {"full": 96, "smoke": 16},
    "jump": {"full": 64, "smoke": 16},
}
DECADE_SCHEDULE = (1e-1, 1e-2, 1e-3)
JUMP_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
PROBE_EPS = 1e-3
SWEEP_CHIS = (3.0, 4.0, 6.0)
SWEEP_KAPPAS = (4.0, 8.0)
SWEEP_MARGIN = 0.1
APPROX_WIDTHS = (1e-1, 1e-2, 1e-3)


def std_pair():
    return make_pair(make_phi_nu(1.5), power_density2(2.0))


def affine_oracle(layers) -> None:
    """Set-up check: affine data 2*x1 - x2 solves to J = 20 - 8*sqrt(3)."""
    g = Grid(16, 16)
    u0 = GridFunction.from_callable(g, lambda x1, x2: 2.0 * x1 - x2)
    report = layers.continuation(SolveConfig(g, std_pair(), u0, DECADE_SCHEDULE))
    err = float(np.max(np.abs(report.u_final.values - u0.values)))
    checks.affine_oracle(report.records[-1].j_value, err)


def interior_l1(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a[1:-1, 1:-1])))


def direct_sweep(grid: Grid, fields) -> dict:
    """Sweep integrals from nodal differences, apart from the kernels."""
    xc, yc = grid.cell_centers()
    inset = 1.0 - 2.0 * SWEEP_MARGIN
    mask = (np.abs(xc)[:, None] <= inset) & (np.abs(yc)[None, :] <= inset)
    out = {("chi", e): [] for e in SWEEP_CHIS}
    out.update({("kappa", e): [] for e in SWEEP_KAPPAS})
    for v in fields:
        d1 = 0.5 * (v[1:, :-1] - v[:-1, :-1] + v[1:, 1:] - v[:-1, 1:]) / grid.h1
        d2 = 0.5 * (v[:-1, 1:] - v[:-1, :-1] + v[1:, 1:] - v[1:, :-1]) / grid.h2
        for (kind, e), vals in out.items():
            base = 1.0 + (d2 if kind == "chi" else d1)[mask] ** 2
            vals.append(grid.cell_area * math.fsum((base ** (0.5 * e)).ravel()))
    return out


class Workload:
    """Shared plumbing: the plain and the traced density pair, solver results."""

    def __init__(self, layers, pair, n: int):
        self.layers = layers
        self.grid = Grid(n, n)
        self._pairs = self.both(pair)

    def both(self, pair) -> tuple:
        """(plain, traced) copies of a density pair."""
        return pair, self.layers.pair(pair)

    def active(self, pairs):
        return pairs[self.layers.tracer.enabled]

    @property
    def pair(self):
        return self.active(self._pairs)

    def close(self) -> None:
        """Release what set-up created; nothing by default."""

    def op(self, rng) -> None:
        result = self.compute(rng)
        with self.layers.tracer.span("bench.checks"):
            self.check(result)

    def solver_result(self, cfg, levels, rng) -> dict:
        """Per-level figures of a chain of (record, nodal array) pairs, and
        J_delta at seeded +/- interior perturbations of the last iterate."""
        L = self.layers
        rec, u = levels[-1]
        center = L.eval_J_delta(GridFunction(self.grid, u), self.pair, rec.delta, cfg.p_reg)
        probes = []
        first_order = 0.0
        for _ in range(2):
            phi = np.zeros(self.grid.node_shape)
            phi[1:-1, 1:-1] = rng.uniform(-1.0, 1.0, size=(self.grid.n1 - 1, self.grid.n2 - 1))
            first_order = max(first_order, cfg.tol_grad * PROBE_EPS * interior_l1(phi))
            for sign in (1.0, -1.0):
                v = GridFunction(self.grid, u + sign * PROBE_EPS * phi)
                probes.append(L.eval_J_delta(v, self.pair, rec.delta, cfg.p_reg).j_total)
        return {
            "tol_grad": cfg.tol_grad,
            "levels": [
                {"delta": r.delta, "converged": r.converged, "flags": r.flags,
                 "j": r.j_value, "i_reg": r.delta_term / r.delta, "u": u}
                for r, u in levels
            ],
            "j_delta": center.j_total,
            "probes": probes,
            "first_order": first_order,
        }

    @staticmethod
    def check_solver(res) -> None:
        levels = res["levels"]
        checks.levels_converged([(v["delta"], v["converged"], v["flags"]) for v in levels])
        checks.schedule_inequality(
            [(v["delta"], v["j"], v["i_reg"], v["u"]) for v in levels], res["tol_grad"]
        )
        checks.local_minimality(res["j_delta"], res["probes"], res["first_order"])


class Smooth(Workload):
    """tanh data solved by ``continuation``, then its family swept."""

    def __init__(self, layers, n: int, seed: int):
        super().__init__(layers, std_pair(), n)

    def compute(self, rng) -> dict:
        L = self.layers
        u0 = GridFunction.from_callable(
            self.grid, lambda x1, x2: np.tanh(3.0 * x1) + 0.2 * x2
        )
        cfg = SolveConfig(self.grid, self.pair, u0, DECADE_SCHEDULE, store_fields=True)
        report = L.continuation(cfg)
        res = self.solver_result(cfg, [(r, r.u) for r in report.records], rng)
        res["k_lift"] = L.eval_K(lift_to_candidate(report.u_final), self.pair, u0).j_total
        table = L.integrability_sweep(report, SWEEP_CHIS, SWEEP_KAPPAS, SWEEP_MARGIN)
        res["sweep"] = {("chi", e): v for e, v in table.chi_integrals.items()}
        res["sweep"].update({("kappa", e): v for e, v in table.kappa_integrals.items()})
        res["sweep_direct"] = direct_sweep(self.grid, [r.u for r in report.records])
        return res

    def check(self, res) -> None:
        self.check_solver(res)
        checks.relaxation_identity(res["k_lift"], res["levels"][-1]["j"])
        checks.sweep_integrals(res["sweep"], res["sweep_direct"])


class Jump(Workload):
    """step:0:1 data, solved level by level from the step itself, then
    certified."""

    def __init__(self, layers, n: int, seed: int):
        super().__init__(layers, std_pair(), n)
        self._tlog = self.both(make_pair(make_phi_nu(1.5), tlog_density2()))
        self.io_dir = os.path.join("perfbench", "results", f"io-{os.getpid()}")
        os.makedirs(self.io_dir, exist_ok=True)

    def close(self) -> None:
        for name in os.listdir(self.io_dir):
            os.remove(os.path.join(self.io_dir, name))
        os.rmdir(self.io_dir)

    def compute(self, rng) -> dict:
        L = self.layers
        g = self.grid
        # the same node values as the CLI's step:0:1
        data = GridFunction.from_callable(
            g, lambda x1, x2: np.where(x1 < 0.0, 0.0, 1.0) + 0.0 * x2
        )
        cfg = SolveConfig(g, self.pair, data, JUMP_SCHEDULE)
        levels = []
        u = None
        for delta in JUMP_SCHEDULE:
            u, rec = L.minimize_J_delta(cfg, delta, warm_start=u)
            levels.append((rec, u.values))
        res = self.solver_result(cfg, levels, rng)

        delta = JUMP_SCHEDULE[-1]
        sigma, _, _ = L.stress(u, self.pair, delta, cfg.p_reg)
        dual = L.duality_gap(u, sigma, self.pair, u0=data, delta=delta, p_reg=cfg.p_reg)
        zero = GridFunction(g, np.zeros(g.node_shape))
        unit = BVCandidate(zero, [JumpSegment(g.n1 // 2, 0, g.n2, 1.0)])
        line = g.n1 // 2 + int(rng.integers(-(g.n1 // 8), g.n1 // 8 + 1))
        height = rng.uniform(0.5, 1.5)
        ramped = BVCandidate(zero, [JumpSegment(line, 0, g.n2, height)])
        approx = L.approximation_experiment(ramped, self.pair, APPROX_WIDTHS)
        ts = 10.0 ** rng.uniform(-3.0, 2.0, size=8)
        res.update(
            dual_j=dual.j_value,
            dual_r=dual.r_value,
            certified=dual.certified,
            dual_slack=dual.div_residual_max * interior_l1(u.values - data.values),
            k_jump=L.eval_K(unit, self.pair, data).j_total,
            approx=(approx.widths, approx.l1_distance, approx.j_value, approx.k_reference),
            jump_mass=2.0 * height,
            ts=ts,
            conj=self.active(self._tlog).conjugate_f2(np.log1p(ts) + ts / (1.0 + ts)),
            round_trips=self.round_trips(u),
        )
        return res

    def check(self, res) -> None:
        self.check_solver(res)
        checks.weak_duality(res["dual_j"], res["dual_r"], res["certified"], res["dual_slack"])
        checks.unit_jump(res["k_jump"])
        checks.upper_bound(res["levels"][-1]["j"], res["k_jump"])
        checks.approximation_rows(*res["approx"], res["jump_mass"])
        checks.fenchel_young(res["conj"], res["ts"])
        for label, before, after in res["round_trips"]:
            checks.bitwise_equal(label, before, after)

    def round_trips(self, u) -> list:
        """Save, load and save again: (label, original, round-tripped) bytes."""
        L = self.layers
        out = []
        for label, save, load in (
            ("csv", L.save_csv, L.load_csv),
            ("vsgf", L.save_vsgf, L.load_vsgf),
        ):
            first = os.path.join(self.io_dir, f"u.{label}")
            second = os.path.join(self.io_dir, f"again.{label}")
            save(u, first)
            back = load(first)
            save(back, second)
            with open(first, "rb") as fh_a, open(second, "rb") as fh_b:
                a, b = fh_a.read(), fh_b.read()
            out.append((label + " values", u.values.tobytes(), back.values.tobytes()))
            out.append((label + " file", a, b))
            # written, read back, written again
            L.tracer.count("grid.io_bytes", 3 * len(a))
        return out


WORKLOADS = {"smooth": Smooth, "jump": Jump}
