"""End-to-end CLI checks, run in process through cli.main."""

import json
import math

import numpy as np
import pytest

from splitvar.cli import main
from splitvar.grid import load_csv, load_vsgf

AFFINE_J = 20.0 - 8.0 * math.sqrt(3.0)

AFFINE_ARGS = [
    "--grid", "8x8",
    "--u0", "affine:2:-1",
    "--deltas", "1e-1,1e-2,1e-3",
]
STEP_ARGS = [
    "--grid", "16x16",
    "--u0", "step:0:1",
    "--deltas", "1e-1,3e-2,1e-2,3e-3,1e-3",
]


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_predict_feasible(capsys):
    rc, out, _ = run(["predict", "--p", "3", "--gamma", "0.7"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["chi"] > 4.0


def test_predict_infeasible_and_unbounded(capsys):
    rc, out, _ = run(["predict", "--p", "3", "--gamma", "0.8"], capsys)
    assert rc == 0
    assert json.loads(out)["feasible"] is False
    rc, out, _ = run(["predict", "--p", "2", "--gamma", "0"], capsys)
    assert rc == 0
    assert json.loads(out)["chi"] == "unbounded"


def test_predict_full_gradient_flag(capsys):
    rc, out, _ = run(
        ["predict", "--p", "3", "--gamma", "0.0", "--mu", "1.5"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["full_gradient"] is True
    assert payload["full_gradient_margin"] > 0.0


def test_solve_outputs_and_determinism(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rc, out, _ = run(["solve", *AFFINE_ARGS, "--out-dir", str(d1)], capsys)
    assert rc == 0
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10
    names = ["report.json", "records.csv", "u_final.csv", "u_final.vsgf"]
    for name in names:
        assert (d1 / name).exists()
    report = json.loads((d1 / "report.json").read_text())
    assert report["config"]["grid"] == "8x8"
    assert len(report["report"]["records"]) == 3
    assert all(r["converged"] for r in report["report"]["records"])
    assert len((d1 / "records.csv").read_text().strip().splitlines()) == 4

    rc, _, _ = run(["solve", *AFFINE_ARGS, "--out-dir", str(d2)], capsys)
    assert rc == 0
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_solve_field_files_round_trip(tmp_path, capsys):
    rc, _, _ = run(["solve", *AFFINE_ARGS, "--out-dir", str(tmp_path)], capsys)
    assert rc == 0
    u_csv = load_csv(str(tmp_path / "u_final.csv"))
    u_bin = load_vsgf(str(tmp_path / "u_final.vsgf"))
    assert np.array_equal(u_csv.values, u_bin.values)
    x1, x2 = u_csv.grid.node_coords()
    assert np.array_equal(u_csv.values, 2.0 * x1[:, None] - x2[None, :])


def test_dual_report(tmp_path, capsys):
    rc, out, _ = run(
        [
            "dual-report",
            "--grid", "8x8",
            "--u0", "affine:2:-1",
            "--deltas", "1e-1,1e-2,1e-3,1e-4",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert rc == 0
    dual = json.loads(out)
    assert dual["certified"] is True
    assert dual["gap_abs"] >= -1e-9 * (1.0 + abs(dual["j"]))
    assert dual["gap_rel"] <= 1e-3
    assert dual["extremality"] <= 1e-6
    assert (tmp_path / "dual_report.json").exists()


def test_sweep_command(tmp_path, capsys):
    rc, out, _ = run(
        [
            "sweep", *AFFINE_ARGS,
            "--chis", "3,6",
            "--kappas", "4",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert rc == 0
    assert json.loads(out) == {"3.0": "BOUNDED", "6.0": "BOUNDED", "4.0": "BOUNDED"}
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 3
    assert json.loads((tmp_path / "sweep.json").read_text())["margin"] == 0.1


def test_approx_demo(tmp_path, capsys):
    rc, out, _ = run(
        [
            "approx-demo",
            "--grid", "16x16",
            "--jump", "8:1.0",
            "--widths", "1e-1,1e-2",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["k_reference"] == 2.0
    assert abs(payload["terminal_j_deviation"] - 0.347241) <= 1e-5
    assert len((tmp_path / "approx.csv").read_text().strip().splitlines()) == 3


def test_approx_demo_explicit_span(tmp_path, capsys):
    rc, out, _ = run(
        [
            "approx-demo",
            "--grid", "16x16",
            "--jump", "8:1.0:0:16",
            "--widths", "1e-2",
            "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["k_reference"] == 2.0


def test_conjugate_table(tmp_path, capsys):
    argv = [
        "conjugate-table",
        "--density", "power:2",
        "--slot", "f2",
        "--s-max", "4",
        "--n", "5",
    ]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,conjugate"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert [r[0] for r in rows] == [-4.0, -2.0, 0.0, 2.0, 4.0]
    # conjugate of t^2 is s^2/4
    assert np.allclose([r[1] for r in rows], [4.0, 1.0, 0.0, 1.0, 4.0], rtol=1e-6)

    path = tmp_path / "table.csv"
    rc, _, _ = run(argv + ["--out", str(path)], capsys)
    assert rc == 0
    assert path.read_text() == out


def test_relax_gap_default_candidate(capsys):
    rc, out, _ = run(["relax-gap", *STEP_ARGS], capsys)
    assert rc == 0
    result = json.loads(out)
    assert result["contract_ok"] is True
    assert abs(result["gap"]) <= 1e-9


def test_global_flags_accepted(capsys):
    rc, _, _ = run(
        ["--strict", "predict", "--p", "3", "--gamma", "0.7"],
        capsys,
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def write_config(tmp_path, **extra):
    payload = {
        "command": "solve",
        "grid": {"n1": 8, "n2": 8},
        "u0": "affine:2:-1",
        "delta_schedule": [1e-1, 1e-2, 1e-3],
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(extra)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return path


def test_config_file_runs_full_experiment(tmp_path, capsys):
    path = write_config(tmp_path)
    rc, out, _ = run(["--config", str(path)], capsys)
    assert rc == 0
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10
    assert (tmp_path / "out" / "report.json").exists()


def test_config_file_explicit_flag_wins(tmp_path, capsys):
    path = write_config(tmp_path)
    other = tmp_path / "elsewhere"
    rc, _, _ = run(["--config", str(path), "solve", "--out-dir", str(other)], capsys)
    assert rc == 0
    assert (other / "report.json").exists()
    report = json.loads((other / "report.json").read_text())
    assert report["config"]["grid"] == "8x8"  # config default still applies


def test_config_file_unknown_key(tmp_path, capsys):
    path = write_config(tmp_path, bogus=1)
    rc, _, err = run(["--config", str(path)], capsys)
    assert rc == 2
    payload = last_json(err)
    assert payload["error"]["type"] == "ValueError"
    assert "bogus" in payload["error"]["message"]


def test_config_file_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run(["--config", str(path), "solve"], capsys)
    assert rc == 2
    assert last_json(err)["error"]["type"] == "JSONDecodeError"


def test_config_file_without_command(tmp_path, capsys):
    path = write_config(tmp_path)
    loaded = json.loads(path.read_text())
    del loaded["command"]
    path.write_text(json.dumps(loaded))
    rc, _, err = run(["--config", str(path)], capsys)
    assert rc == 2
    assert "command" in last_json(err)["error"]["message"]


# ---------------------------------------------------------------------------
# failure exits
# ---------------------------------------------------------------------------


def test_exit_2_bad_grid(capsys):
    rc, _, err = run(["solve", "--grid", "8"], capsys)
    assert rc == 2
    assert last_json(err)["error"]["exit_code"] == 2


def test_exit_2_unknown_density(capsys):
    rc, _, err = run(["solve", "--f1", "mystery:1"], capsys)
    assert rc == 2
    assert last_json(err)["error"]["type"] == "ValueError"


def test_exit_2_custom_table_grid_mismatch(tmp_path, capsys):
    rc, _, _ = run(
        ["solve", "--grid", "4x4", "--u0", "zero", "--deltas", "1e-1",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    rc, _, err = run(
        ["solve", "--grid", "8x8",
         "--u0", f"custom-table:{tmp_path / 'u_final.csv'}"],
        capsys,
    )
    assert rc == 2
    assert "does not match" in last_json(err)["error"]["message"]


def test_exit_2_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert last_json(err)["error"]["type"] == "ArgumentError"


def test_exit_3_energy_overflow(tmp_path, capsys):
    rc, _, err = run(
        ["solve", "--grid", "4x4", "--u0", "affine:0:1e200",
         "--deltas", "1e-1", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 3
    payload = last_json(err)
    assert payload["error"]["type"] == "EnergyOverflowError"
    assert payload["error"]["exit_code"] == 3


@pytest.fixture()
def converged_step_table(tmp_path, capsys):
    rc, _, _ = run(["solve", *STEP_ARGS, "--out-dir", str(tmp_path)], capsys)
    assert rc == 0
    return str(tmp_path / "u_final.csv")


def test_exit_4_capped_continuation(converged_step_table, capsys):
    rc, out, err = run(
        ["relax-gap", *STEP_ARGS, "--candidate-table", converged_step_table,
         "--max-iter", "1"],
        capsys,
    )
    assert rc == 4
    assert out == ""
    assert last_json(err)["error"]["type"] == "ContinuationContractError"


def test_exit_4_gap_violation(converged_step_table, capsys):
    # freezing the iterate at the raw step leaves j_final at the unrelaxed
    # transition cost, which the converged candidate undercuts
    rc, out, err = run(
        ["relax-gap", *STEP_ARGS, "--candidate-table", converged_step_table,
         "--tol-grad", "1e9"],
        capsys,
    )
    assert rc == 4
    result = last_json(out)
    assert result["contract_ok"] is False
    assert result["j_final"] == 1.0
    assert result["gap"] < -0.4
    assert last_json(err)["error"]["type"] == "RelaxationGapViolation"
