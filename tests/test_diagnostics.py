import csv
import math

import numpy as np
import pytest

from splitvar import (
    BVCandidate,
    Grid,
    GridFunction,
    JumpSegment,
    SolveConfig,
    approximation_experiment,
    continuation,
    integrability_sweep,
    lift_to_candidate,
    relaxation_gap,
)
from splitvar import diagnostics
from tests.conftest import affine_field


@pytest.fixture(scope="module")
def affine_sweep_report(pair_std):
    g = Grid(16, 16)
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=affine_field(g, 2.0, -1.0),
        delta_schedule=[1e-1, 1e-2, 1e-3, 1e-4],
        store_fields=True,
    )
    return continuation(cfg)


def unit_jump_candidate(n=16):
    g = Grid(n, n)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    return BVCandidate(smooth, jumps=(JumpSegment(n // 2, 0, n, 1.0),))


# ---------------------------------------------------------------------------
# integrability sweep
# ---------------------------------------------------------------------------


def test_sweep_affine_closed_form(affine_sweep_report):
    table = integrability_sweep(
        affine_sweep_report, chis=[3.0, 4.0, 6.0], kappas=[4.0, 8.0], margin=0.1
    )
    # 12x12 cells survive the 10% inset on a 16x16 grid; the gradient is
    # constant (2, -1), so each integral has a closed form
    n_cells = 144.0
    area = 4.0 / 256.0
    for chi, vals in table.chi_integrals.items():
        expect = n_cells * area * 2.0 ** (0.5 * chi)
        assert np.allclose(vals, expect, rtol=1e-12)
        assert table.chi_flags[chi] == "BOUNDED"
    for kappa, vals in table.kappa_integrals.items():
        expect = n_cells * area * 5.0 ** (0.5 * kappa)
        assert np.allclose(vals, expect, rtol=1e-12)
        assert table.kappa_flags[kappa] == "BOUNDED"
    assert table.deltas == [1e-1, 1e-2, 1e-3, 1e-4]


def test_sweep_integrals_grow_with_exponent(affine_sweep_report):
    table = integrability_sweep(affine_sweep_report, chis=[3.0, 4.0, 6.0])
    per_level = list(zip(*[table.chi_integrals[c] for c in (3.0, 4.0, 6.0)]))
    for row in per_level:
        assert row[0] <= row[1] <= row[2]


def test_sweep_margin_validation(affine_sweep_report):
    for bad in (0.0, 0.5, 0.6, -0.1):
        with pytest.raises(ValueError):
            integrability_sweep(affine_sweep_report, chis=[3.0], margin=bad)


def test_sweep_needs_three_stored_levels(pair_std):
    g = Grid(8, 8)
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=affine_field(g, 2.0, -1.0),
        delta_schedule=[1e-1, 1e-2],
        store_fields=True,
    )
    with pytest.raises(ValueError):
        integrability_sweep(continuation(cfg), chis=[3.0])
    # fields not stored at all
    lean = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=affine_field(g, 2.0, -1.0),
        delta_schedule=[1e-1, 1e-2, 1e-3],
    )
    with pytest.raises(ValueError):
        integrability_sweep(continuation(lean), chis=[3.0])


def test_sweep_csv_layout(affine_sweep_report, tmp_path):
    table = integrability_sweep(
        affine_sweep_report, chis=[3.0, 4.0], kappas=[4.0], margin=0.1
    )
    path = tmp_path / "sweep.csv"
    table.write_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delta", "kind", "exponent", "integral", "flag"]
    assert len(rows) == 1 + 4 * 3  # four levels, three exponents
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"second_component", "full_gradient"}
    assert all(r[4] == "BOUNDED" for r in rows[1:])


def test_sweep_dict_round_trip(affine_sweep_report):
    table = integrability_sweep(affine_sweep_report, chis=[3.0], kappas=[4.0])
    payload = table.to_dict()
    assert payload["margin"] == 0.1
    assert payload["chi"]["3.0"]["flag"] == "BOUNDED"
    assert len(payload["kappa"]["4.0"]["integrals"]) == len(payload["deltas"])


# ---------------------------------------------------------------------------
# approximation experiment
# ---------------------------------------------------------------------------


def test_approx_unit_jump_frozen_values(pair_std):
    w = unit_jump_candidate()
    table = approximation_experiment(
        w, pair_std, widths=[1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    )
    assert table.k_reference == 2.0
    assert table.area_reference == 6.0
    # the L1 distance of the mollified step is (3/16) * width * jump mass
    assert np.allclose(table.l1_distance, [0.375 * w_ for w_ in table.widths], rtol=1e-12)
    # the second-component energy never moves: ramps only load component one
    assert table.f2_energy == [0.0] * 5
    devs = [abs(j - table.k_reference) for j in table.j_value]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert table.terminal_j_deviation == devs[-1]
    assert table.terminal_j_deviation <= 0.02 * table.k_reference
    # graph area approaches the relaxed reference from below
    assert abs(table.area_integral[-1] - 6.0) <= 1e-4
    assert all(a <= 6.0 + 1e-12 for a in table.area_integral)


def test_gauss_literals_equal_leggauss_bitwise():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert diagnostics._GAUSS_NODES.tobytes() == nodes.tobytes()
    assert diagnostics._GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_approx_table_bitwise_frozen(pair_std):
    # values of the implementation that called leggauss once per cell
    g = Grid(16, 12)
    smooth = GridFunction.from_callable(g, lambda x1, x2: np.tanh(3 * x1) + 0.2 * x2)
    w = BVCandidate(smooth, jumps=(JumpSegment(9, 0, 12, 0.8),))
    table = approximation_experiment(w, pair_std, widths=[0.2, 0.05, 1e-3, 1e-5])
    assert table.area_integral == [
        7.884094721701767, 7.912740197071848, 7.928540165232661, 7.928932445845518
    ]
    assert table.j_value == [
        2.0915850942692042, 2.2775840536670837, 2.6650434694772405, 2.755858582461696
    ]
    assert table.f2_energy == [0.16000000000000003] * 4
    assert table.l1_distance == [
        0.06000000000000001, 0.015000000000000003, 0.00030000000000000003,
        3.0000000000000005e-06,
    ]
    assert table.area_reference == 7.928936440747158
    assert table.k_reference == 2.766666531078101
    assert table.terminal_j_deviation == 0.010807948616404772


def test_approx_jump_free_rows_equal_base(pair_std):
    g = Grid(8, 8)
    w = lift_to_candidate(affine_field(g, 1.5, -0.5))
    table = approximation_experiment(w, pair_std, widths=[1e-1, 1e-2])
    assert table.l1_distance == [0.0, 0.0]
    assert table.j_value[0] == table.j_value[1]
    assert table.terminal_j_deviation <= 1e-12
    assert table.area_integral[0] == table.area_reference


def test_approx_rejects_partial_span(pair_std):
    g = Grid(8, 8)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(smooth, jumps=(JumpSegment(4, 0, 4, 1.0),))
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[1e-2])


def test_approx_rejects_wide_ramp_near_boundary(pair_std):
    g = Grid(16, 16)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(smooth, jumps=(JumpSegment(15, 0, 16, 1.0),))
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[0.3])


def test_approx_rejects_overlapping_zones(pair_std):
    g = Grid(16, 16)
    smooth = GridFunction(g, np.zeros(g.node_shape))
    w = BVCandidate(
        smooth,
        jumps=(JumpSegment(8, 0, 16, 1.0), JumpSegment(9, 0, 16, -1.0)),
    )
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[0.5])


def test_approx_width_validation(pair_std):
    w = unit_jump_candidate()
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[])
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[0.1, 0.1])
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[0.01, 0.1])
    with pytest.raises(ValueError):
        approximation_experiment(w, pair_std, widths=[-0.1])


def test_approx_nan_width_rejected(pair_std):
    # NaN passes neither the sign check nor the ordering check silently
    w = unit_jump_candidate()
    for widths in ([math.nan], [0.1, math.nan]):
        with pytest.raises(ValueError, match="positive"):
            approximation_experiment(w, pair_std, widths=widths)


def test_approx_csv_layout(pair_std, tmp_path):
    table = approximation_experiment(unit_jump_candidate(), pair_std, widths=[1e-1, 1e-2])
    path = tmp_path / "approx.csv"
    table.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "width,l1_distance,area_integral,f2_energy,j"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.1


def row_wise_write_csv(path, header, rows):
    """Reference writer: the per-cell rule, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def test_table_csv_bytes_match_row_wise_writer(affine_sweep_report, pair_std, tmp_path):
    report = affine_sweep_report
    report.write_records_csv(str(tmp_path / "records.csv"))
    row_wise_write_csv(
        str(tmp_path / "records_ref.csv"),
        ["delta", "j", "j_delta", "delta_term", "euler_residual", "iterations"],
        [(r.delta, r.j_value, r.j_delta_value, r.delta_term, r.euler_residual_max,
          r.iterations) for r in report.records],
    )
    sweep = integrability_sweep(report, chis=[3.0, 4.0], kappas=[4.0], margin=0.1)
    sweep.write_csv(str(tmp_path / "sweep.csv"))
    row_wise_write_csv(
        str(tmp_path / "sweep_ref.csv"),
        ["delta", "kind", "exponent", "integral", "flag"],
        [(delta, kind, expo, val, flags[expo])
         for kind, table, flags in (
             ("second_component", sweep.chi_integrals, sweep.chi_flags),
             ("full_gradient", sweep.kappa_integrals, sweep.kappa_flags),
         )
         for expo, vals in table.items()
         for delta, val in zip(sweep.deltas, vals)],
    )
    approx = approximation_experiment(unit_jump_candidate(), pair_std, widths=[1e-1, 1e-3])
    approx.write_csv(str(tmp_path / "approx.csv"))
    row_wise_write_csv(
        str(tmp_path / "approx_ref.csv"),
        ["width", "l1_distance", "area_integral", "f2_energy", "j"],
        zip(approx.widths, approx.l1_distance, approx.area_integral, approx.f2_energy,
            approx.j_value),
    )
    for name in ("records", "sweep", "approx"):
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_ref.csv").read_bytes(), name
        assert written.count(b"\r\n") > 2


# ---------------------------------------------------------------------------
# relaxation gap
# ---------------------------------------------------------------------------


def test_relax_gap_of_lifted_minimizer(pair_std):
    g = Grid(16, 16)
    u0 = GridFunction.from_callable(g, lambda x, y: np.tanh(3.0 * x) + 0.2 * y)
    cfg = SolveConfig(
        grid=g, densities=pair_std, u0=u0, delta_schedule=[1e-1, 1e-2, 1e-3]
    )
    report = continuation(cfg)
    out = relaxation_gap([lift_to_candidate(report.u_final)], cfg)
    assert abs(out["gap"]) <= 1e-9
    assert out["contract_ok"]
    assert out["k_best"] == out["k_values"][0]


def test_relax_gap_default_candidate_is_lifted_final_iterate(affine_config):
    report = continuation(affine_config)
    explicit = relaxation_gap([lift_to_candidate(report.u_final)], affine_config)
    assert relaxation_gap(None, affine_config) == explicit


def test_relax_gap_jump_candidate_stays_above(pair_std):
    # boundary data steps across x1 = 0; pricing the whole transition as a
    # jump costs the full recession rate, so the smooth minimizer wins
    g = Grid(16, 16)
    x1 = g.node_coords()[0]
    step_vals = np.broadcast_to((x1 > 0.0).astype(float)[:, None], g.node_shape).copy()
    u0 = GridFunction(g, step_vals)
    cfg = SolveConfig(
        grid=g,
        densities=pair_std,
        u0=u0,
        delta_schedule=[1e-1, 1e-2, 1e-3],
    )
    out = relaxation_gap([unit_jump_candidate(16)], cfg)
    assert out["k_best"] == 2.0
    assert out["gap"] > 0.1
    assert out["contract_ok"]


def test_relax_gap_empty_candidates(pair_std, affine_config):
    with pytest.raises(ValueError):
        relaxation_gap([], affine_config)
