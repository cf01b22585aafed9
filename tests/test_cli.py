"""End-to-end CLI checks, run in process through cli.main."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from splitvar import cli
from splitvar import solve as solve_module
from splitvar.cli import main
from splitvar.densities import conjugate_scalar
from splitvar.duality import duality_gap
from splitvar.grid import Grid, GridFunction, load_csv, load_vsgf, save_csv

AFFINE_J = 20.0 - 8.0 * math.sqrt(3.0)

AFFINE_ARGS = [
    "--grid", "8x8",
    "--u0", "affine:2:-1",
    "--deltas", "1e-1,1e-2,1e-3",
]
STEP_ARGS = [
    "--grid", "16x16",
    "--u0", "step:0:1",
    "--deltas", "1e-1,1e-2,1e-3",
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
    assert dual["scale"] == 1.0
    assert (tmp_path / "dual_report.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        # the paper's jump scenario at default settings
        ["--grid", "256x256", "--u0", "step:0:1"],
        ["--grid", "32x32", "--u0", "step:0:5", "--deltas", "1e-1"],
        ["--grid", "32x32", "--f1", "hencky:1:0.3", "--u0", "affine:3:0"],
    ],
    ids=["step_256", "step_5", "hencky"],
)
def test_dual_report_scales_out_of_range_stress(args, tmp_path, capsys):
    # sigma_1 leaves the recession interval of f1 in each run
    rc, out, _ = run(["dual-report", *args, "--out-dir", str(tmp_path)], capsys)
    assert rc == 0
    dual = json.loads(out)
    assert dual["scale"] < 1.0 and dual["certified"] is True
    assert math.isfinite(dual["gap_abs"])
    assert dual["gap_abs"] >= -1e-9 * (1.0 + abs(dual["j"]))
    saved = json.loads((tmp_path / "dual_report.json").read_text())
    assert saved["dual"] == dual


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

    # --out's missing folders are made when the table is written
    path = tmp_path / "adir" / "x" / "table.csv"
    rc, out_file, _ = run(argv + ["--out", str(path)], capsys)
    assert (rc, out_file) == (0, "")
    # the same CSV bytes as every other writer: CRLF line ends
    assert out.startswith("s,conjugate\r\n")
    assert path.read_bytes() == out.encode()


def test_conjugate_table_bad_out_evaluates_no_conjugate(tmp_path, monkeypatch, capsys):
    # --out is checked as the flags are parsed, before the first conjugate
    def no_conjugate(s):
        raise AssertionError("a conjugate was evaluated")

    spec = cli.density_from_id("power:2")
    monkeypatch.setattr(cli, "density_from_id", lambda ident: dataclasses.replace(
        spec, conjugate=no_conjugate))
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    argv = ["conjugate-table", "--density", "power:2", "--out"]
    with pytest.raises(AssertionError, match="a conjugate was evaluated"):
        main([*argv, str(tmp_path / "adir" / "t.csv")])
    for out in (tmp_path / "adir", tmp_path / "afile" / "t.csv"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(out)])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "argument --out:" in json.loads(line)["error"]["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_conjugate_table_nfun_tlog_needs_no_slot(capsys):
    # like power:2 above, an f2 id tabulates without naming its slot
    rc, out, err = run(["conjugate-table", "--density", "nfun_tlog", "--n", "9"], capsys)
    assert rc == 0, err
    rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    reference = [conjugate_scalar(lambda t: t * np.log1p(t), abs(s)) for s, _ in rows]
    assert np.allclose([v for _, v in rows], reference, rtol=1e-9, atol=1e-15)


def test_relax_gap_jump_without_table_uses_zero_smooth_part(capsys):
    # as in approx-demo, --jump alone builds a candidate with a zero smooth
    # part: the unit jump at x1 = 0 costs recession slope 1 times length 2
    rc, out, err = run(["relax-gap", *STEP_ARGS, "--jump", "8:1.0"], capsys)
    assert rc == 0, err
    result = json.loads(out)
    assert result["k_values"] == [2.0]
    assert result["contract_ok"] is True


def test_relax_gap_default_candidate(capsys):
    rc, out, _ = run(["relax-gap", *STEP_ARGS], capsys)
    assert rc == 0
    result = json.loads(out)
    assert result["contract_ok"] is True
    assert abs(result["gap"]) <= 1e-9


def test_removed_strict_flag_is_rejected(capsys):
    for argv in (
        # --strict escalated a warning that no command can raise
        ["--strict", "predict", "--p", "3", "--gamma", "0.7"],
        # --seed was only echoed into report.json; no command runs multi_start
        ["solve", "--seed", "0"],
        # --store-fields had no effect: no command writes stored fields
        ["solve", "--store-fields"],
        # the density id fixes its slot
        ["conjugate-table", "--density", "power:2", "--slot", "f2"],
        # the certificate tolerance and the sweep window are fixed settings
        ["dual-report", "--div-tol", "1e-6"],
        ["sweep", "--chis", "3", "--margin", "0.1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert last_json(err)["error"]["type"] == "ArgumentError"


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


def write_json(tmp_path, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return path


def test_config_file_inline_path_before_subcommand(tmp_path, capsys):
    # the inline form before an explicit subcommand still applies the file
    path = write_config(tmp_path)
    rc, out, _ = run([f"--config={path}", "solve"], capsys)
    assert rc == 0
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10
    assert (tmp_path / "out" / "report.json").exists()
    path = write_config(tmp_path, bogus_key=1)
    rc, _, err = run([f"--config={path}", "solve"], capsys)
    assert rc == 2
    assert last_json(err)["error"]["message"] == "unknown config keys: bogus_key"


SWEEP_CONFIG = {
    "command": "sweep",
    "grid": {"n1": 8, "n2": 8},
    "u0": "affine:2:-1",
    "delta_schedule": [1e-1, 1e-2, 1e-3],
}


@pytest.mark.parametrize(
    "payload, expect",
    [
        ({**SWEEP_CONFIG, "chis": "3,4"}, {"3.0": "BOUNDED", "4.0": "BOUNDED"}),
        ({**SWEEP_CONFIG, "chis": [3, 4]}, {"3.0": "BOUNDED", "4.0": "BOUNDED"}),
        ({"command": "predict", "p": 3, "gamma": 0.0, "mu": 1.5}, {"full_gradient": True}),
    ],
    ids=["sweep_chis", "sweep_chis_list", "predict"],
)
def test_config_file_supplies_required_options(payload, expect, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the sweep writes to the default --out-dir
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 0, err
    assert expect.items() <= json.loads(out).items()


def test_config_file_supplies_conjugate_density(tmp_path, capsys):
    payload = {"command": "conjugate-table", "density": "power:2", "s_max": 4, "n": 5}
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 0, err
    explicit = ["conjugate-table", "--density", "power:2", "--s-max", "4", "--n", "5"]
    assert run(explicit, capsys) == (0, out, "")


def test_config_file_command_with_explicit_flags_only(tmp_path, capsys):
    # the command line starts with an option, so the file names the
    # subcommand and "--chis 3" is one of its flags
    path = write_json(tmp_path, {**SWEEP_CONFIG, "output_dir": str(tmp_path)})
    rc, out, err = run(["--config", str(path), "--chis", "3"], capsys)
    assert rc == 0, err
    assert json.loads(out) == {"3.0": "BOUNDED"}
    assert (tmp_path / "sweep.csv").exists()


def test_config_file_number_lists(tmp_path, capsys):
    payload = {
        "command": "approx-demo",
        "grid": {"n1": 16, "n2": 16},
        "jump": ["8:1.0"],
        "widths": [0.1, 0.01],
        "output_dir": str(tmp_path),
    }
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 0, err
    assert abs(json.loads(out)["terminal_j_deviation"] - 0.347241) <= 1e-5
    assert len((tmp_path / "approx.csv").read_text().strip().splitlines()) == 3
    # null leaves --deltas to the other key that stands for it
    path = write_config(tmp_path, deltas=[1e-1, 1e-2, 1e-3], delta_schedule=None)
    rc, out, err = run(["--config", str(path)], capsys)
    assert rc == 0, err
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10


def test_config_file_string_list_on_single_value_flag(tmp_path, capsys):
    # only --jump collects; a list of strings on any other flag is one
    # comma-joined value, not a repeat that keeps the last entry
    path = write_config(tmp_path, delta_schedule=["1e-1", "1e-2", "1e-3"])
    rc, out, err = run(["--config", str(path)], capsys)
    assert rc == 0, err
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["deltas"] == [0.1, 0.01, 0.001]
    # an explicit flag still wins over the joined list
    rc, _, err = run(["--config", str(path), "solve", "--deltas", "1e-1"], capsys)
    assert rc == 0, err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["deltas"] == [0.1]
    payload = {
        "command": "approx-demo",
        "grid": {"n1": 16, "n2": 16},
        "jump": ["8:1.0", "4:0.5"],
        "widths": ["1e-1", "1e-2"],
        "output_dir": str(tmp_path),
    }
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 0, err
    assert json.loads(out)["k_reference"] == 3.0  # both jumps kept
    assert len((tmp_path / "approx.csv").read_text().strip().splitlines()) == 3


@pytest.mark.parametrize(
    "command, key",
    [
        ("solve", "max"),
        ("solve", "delta"),
        ("solve", "tol"),
        ("solve", "p"),
        ("solve", "out"),
        ("sweep", "kappa"),
        ("approx-demo", "width"),
    ],
)
def test_config_file_key_is_not_a_prefix(command, key, tmp_path, capsys):
    # a key names its flag exactly; a prefix of a flag is an unknown key
    payload = {"command": command, "grid": "8x8", key: 1}
    if command == "sweep":
        payload["chis"] = "3"  # its required flag
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 2
    assert out == ""
    assert last_json(err)["error"]["message"] == f"unknown config keys: {key}"


def test_config_file_jumps_add_to_explicit_jumps(tmp_path, capsys):
    payload = {
        "command": "approx-demo",
        "grid": {"n1": 16, "n2": 16},
        "jump": ["8:1.0"],
        "widths": "1e-1,1e-2",
        "output_dir": str(tmp_path),
    }
    path = write_json(tmp_path, payload)
    rc, out, err = run(["--config", str(path), "approx-demo", "--jump", "4:0.5"], capsys)
    assert rc == 0, err
    # recession slope 1 times length 2 times the heights 1.0 and 0.5
    assert json.loads(out)["k_reference"] == 3.0


def test_config_flag_without_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert last_json(err)["error"]["type"] == "ArgumentError"
    assert "--config" in last_json(err)["error"]["message"]


def test_config_flag_is_not_abbreviated(tmp_path, capsys):
    # no prefix of --config may name a file that then goes unread
    path = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--conf", str(path), "solve"])
    assert exc.value.code == 2
    assert last_json(capsys.readouterr().err)["error"]["type"] == "ArgumentError"
    assert not (tmp_path / "out").exists()


def test_config_file_grid_missing_a_size(tmp_path, capsys):
    rc, _, err = run(["--config", str(write_config(tmp_path, grid={"n1": 8}))], capsys)
    assert rc == 2
    assert "8xNone" in last_json(err)["error"]["message"]


def test_config_file_key_of_another_command(tmp_path, capsys):
    # relax-gap writes no files, so output_dir is not one of its keys
    payload = {"command": "relax-gap", "grid": {"n1": 8, "n2": 8}, "output_dir": "out"}
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 2
    assert out == ""
    assert last_json(err)["error"]["message"] == "unknown config keys: output_dir"


@pytest.mark.parametrize("key", ["func", "config"])
@pytest.mark.parametrize("value", [None, 1])
def test_config_file_namespace_entry_is_no_key(key, value, tmp_path, capsys):
    # func (set_defaults) and config (the top-level flag) sit in the parsed
    # namespace but are no flags of the subcommand, so even a null is unknown
    payload = {"command": "solve", "grid": "8x8", key: value}
    rc, out, err = run(["--config", str(write_json(tmp_path, payload))], capsys)
    assert rc == 2
    assert out == ""
    assert last_json(err)["error"]["message"] == f"unknown config keys: {key}"


def test_config_file_must_hold_an_object(tmp_path, capsys):
    rc, _, err = run(["--config", str(write_json(tmp_path, ["solve"])), "solve"], capsys)
    assert rc == 2
    assert "JSON object" in last_json(err)["error"]["message"]


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


def test_exit_2_custom_table_short_row(tmp_path, capsys):
    rc, _, _ = run(
        ["solve", "--grid", "4x4", "--u0", "zero", "--deltas", "1e-1",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    table = tmp_path / "u_final.csv"
    lines = table.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:2])
    table.write_text("\n".join(lines) + "\n")
    rc, _, err = run(["solve", "--grid", "4x4", "--u0", f"custom-table:{table}"], capsys)
    assert rc == 2
    assert last_json(err)["error"]["type"] == "ValueError"


def test_exit_2_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert last_json(err)["error"]["type"] == "ArgumentError"


def test_exit_3_energy_overflow(tmp_path, capsys):
    # the output folder is made at write time, so a failed solve leaves none
    rc, _, err = run(
        ["solve", "--grid", "4x4", "--u0", "affine:0:1e200",
         "--deltas", "1e-1", "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert rc == 3
    assert list(tmp_path.iterdir()) == []
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "EnergyOverflowError"
    assert json.loads(line)["error"]["exit_code"] == 3


@pytest.mark.parametrize("flag", ["--tol-grad", "--p-reg"])
def test_exit_2_nan_solver_setting(flag, tmp_path, capsys):
    rc, out, err = run(
        ["solve", *AFFINE_ARGS, flag, "nan", "--out-dir", str(tmp_path)], capsys
    )
    assert (rc, out) == (2, "")
    assert list(tmp_path.iterdir()) == []
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "args", [["--p", "nan", "--gamma", "0.7"], ["--p", "3", "--gamma", "nan"],
             ["--p", "3", "--gamma", "0", "--mu", "nan"]],
    ids=["p", "gamma", "mu"],
)
def test_exit_2_predict_non_finite(args, capsys):
    rc, out, err = run(["predict", *args], capsys)
    assert (rc, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("max_iter, code", [("-1", 2), ("0", 4)])
def test_max_iter_below_zero_is_an_input_error(max_iter, code, tmp_path, capsys):
    # a negative cap is a bad input (exit 2); a cap of 0 that leaves the
    # first level unconverged stays a contract violation (exit 4)
    rc, out, err = run(
        ["solve", *STEP_ARGS, "--max-iter", max_iter, "--out-dir", str(tmp_path)], capsys
    )
    assert (rc, out) == (code, "")
    (line,) = err.splitlines()
    if code == 2:
        assert json.loads(line)["error"] == {
            "type": "ValueError", "exit_code": 2,
            "message": "max_iter must be an integer >= 0, got -1",
        }


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("use", ["u0", "smooth", "candidate"])
def test_exit_2_non_finite_table(use, value, tmp_path, capsys):
    rc, _, _ = run(
        ["solve", "--grid", "16x16", "--u0", "zero", "--deltas", "1e-1",
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0
    table = tmp_path / "u_final.csv"
    lines = table.read_text().splitlines()
    lines[5] = ",".join(lines[5].split(",")[:2] + [value])
    table.write_text("\n".join(lines) + "\n")
    out_dir = ["--out-dir", str(tmp_path)]
    argv = {
        "u0": ["solve", *STEP_ARGS, "--u0", f"custom-table:{table}", *out_dir],
        "smooth": ["approx-demo", "--grid", "16x16", "--smooth-table", str(table), *out_dir],
        "candidate": ["relax-gap", *STEP_ARGS, "--candidate-table", str(table)],
    }[use]
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    # every stderr line is JSON without NaN or Infinity
    for line in err.strip().splitlines():
        json.loads(line, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
    assert "non-finite" in last_json(err)["error"]["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--u0", "affine:nan:1"],
        ["solve", "--u0", "step:0:inf"],
        ["solve", "--f2", "power:nan"],
        ["solve", "--f1", "hencky:nan:1"],
        ["conjugate-table", "--density", "power:2", "--s-max", "nan"],
    ],
    ids=["affine", "step", "power", "hencky", "s-max"],
)
def test_exit_2_non_finite_number_in_id(args, tmp_path, capsys):
    # nan or inf inside an id is an input error, caught before the numerics
    # run: no numpy warning joins the one JSON line on stderr
    if args[0] == "solve":
        args = [*args, "--grid", "8x8", "--out-dir", str(tmp_path)]
    rc, out, err = run(args, capsys)
    assert rc == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    error = last_json(err)["error"]
    assert error["type"] == "ValueError"
    assert "must be a finite number" in error["message"]


@pytest.mark.parametrize(
    "prefix, bad, flag, good",
    [("--max", "1", "--max-iter", "200"), ("--p", "1.5", "--p-reg", "2")],
    ids=["max-iter", "p-reg"],
)
def test_exit_2_abbreviated_flag(prefix, bad, flag, good, tmp_path, capsys):
    # a prefix of a subcommand flag is not that flag
    argv = ["solve", *AFFINE_ARGS, "--out-dir", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, prefix, bad])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert last_json(captured.err)["error"]["type"] == "ArgumentError"
    assert not (tmp_path / "report.json").exists()
    rc, out, err = run([*argv, flag, good], capsys)
    assert rc == 0, err
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10


@pytest.fixture()
def converged_step_table(tmp_path, capsys):
    rc, _, _ = run(["solve", *STEP_ARGS, "--out-dir", str(tmp_path)], capsys)
    assert rc == 0
    return str(tmp_path / "u_final.csv")


@pytest.mark.parametrize("grid", ["32x32", "64x64"])
def test_step_data_default_schedule_succeeds(grid, tmp_path, capsys):
    # the paper's jump scenario at default settings: every level converges
    # and the two-sided schedule bound of continuation holds
    rc, _, err = run(
        ["solve", "--grid", grid, "--u0", "step:0:1", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert rc == 0, err
    records = json.loads((tmp_path / "report.json").read_text())["report"]["records"]
    assert [r["delta"] for r in records] == [1e-1, 1e-2, 1e-3]
    assert all(r["converged"] and r["flags"] == [] for r in records)


def test_exit_4_capped_continuation(converged_step_table, capsys):
    # the custom table's u0 note prints only on exit 0, so the error line is
    # the only one
    rc, out, err = run(
        ["relax-gap", "--grid", "16x16", "--u0", f"custom-table:{converged_step_table}",
         "--deltas", "1e-1,1e-2,1e-3", "--candidate-table", converged_step_table,
         "--max-iter", "1"],
        capsys,
    )
    assert rc == 4
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "ContinuationContractError"


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
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "RelaxationGapViolation", "exit_code": 4,
        "message": f"candidate energy undercuts the continuation limit by {-result['gap']}",
    }


def test_custom_table_u0_reports_its_largest_slope(tmp_path, capsys):
    grid = Grid(8, 8)
    u = GridFunction.from_callable(grid, lambda x1, x2: 2.0 * x1 - x2)
    table = tmp_path / "u0.csv"
    save_csv(u, str(table))
    argv = ["solve", "--grid", "8x8", "--u0", f"custom-table:{table}",
            "--deltas", "1e-1,1e-2,1e-3", "--out-dir", str(tmp_path / "out")]
    rc, out, err = run(argv, capsys)
    assert rc == 0, err
    assert abs(json.loads(out)["j_final"] - AFFINE_J) <= 1e-10
    # one stderr line, valid JSON holding the largest difference quotient
    (line,) = err.strip().splitlines()
    slopes = [np.abs(np.diff(u.values, axis=k)).max() / h for k, h in ((0, grid.h1), (1, grid.h2))]
    assert json.loads(line) == {"u0_table_lipschitz": max(slopes)}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--grid", "8x8", "--u0", "ramp:1"],
        ["approx-demo", "--grid", "8x8", "--jump", "4:1:2"],
        ["relax-gap", "--grid", "8x8", "--jump", "4:1,4"],
        ["approx-demo", "--grid", "8x8", "--jump", "4:1,"],
        ["solve", "--grid", "8x8", "--f2", "power:1"],
    ],
    ids=["u0-id", "jump-approx-demo", "jump-relax-gap", "jump-blank-entry", "f2-power-1"],
)
def test_exit_2_malformed_id(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert list(tmp_path.iterdir()) == []
    assert out == ""
    assert last_json(err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "spec, form",
    [("affine:1", "affine:<a>:<b>"), ("step:0", "step:<left>:<right>"),
     ("affine:1:2:3", "affine:<a>:<b>")],
)
def test_exit_2_u0_id_arity_names_its_form(spec, form, tmp_path, capsys):
    rc, _, err = run(["solve", "--grid", "8x8", "--u0", spec, "--out-dir", str(tmp_path)], capsys)
    assert rc == 2
    assert last_json(err)["error"]["message"] == f"u0 id {spec!r} must be {form}"


def run_module(argv, cwd):
    """``python -m splitvar.cli`` in a subprocess: the console entry point."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "splitvar.cli", *argv],
        env=env, capture_output=True, text=True, cwd=cwd,
    )


def test_exit_3_conjugate_table_overflow(tmp_path):
    # run as a subprocess: numpy's overflow warning would reach stderr, which
    # must hold only the one JSON error line
    out = run_module(
        ["conjugate-table", "--density", "power:1.0000001", "--s-max", "2", "--n", "3",
         "--out", "table.csv"],
        tmp_path,
    )
    assert out.returncode == 3
    assert out.stdout == ""
    (line,) = out.stderr.splitlines()
    assert json.loads(line)["error"]["type"] == "FloatingPointError"
    assert not (tmp_path / "table.csv").exists()


def test_console_entry_point_exit_codes(tmp_path):
    # the module's SystemExit(main()) carries main's exit code to the shell
    out = run_module(["predict", "--p", "3", "--gamma", "0.7"], tmp_path)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["feasible"] is True
    (tmp_path / "afile").write_text("")
    out = run_module(
        ["solve", "--grid", "128x128", "--u0", "step:0:1", "--out-dir", "afile"], tmp_path
    )
    assert (out.returncode, out.stdout) == (2, "")
    (line,) = out.stderr.splitlines()
    assert "--out-dir" in json.loads(line)["error"]["message"]
    assert [path.name for path in tmp_path.iterdir()] == ["afile"]


def test_exit_4_weak_duality_violation(tmp_path, capsys, monkeypatch):
    # a certified dual value above the primal energy is a contract violation
    def negative_gap(*args, **kwargs):
        return dataclasses.replace(duality_gap(*args, **kwargs), gap_absolute=-1.0)

    monkeypatch.setattr(cli, "duality_gap", negative_gap)
    rc, out, err = run(["dual-report", *AFFINE_ARGS, "--out-dir", str(tmp_path)], capsys)
    assert rc == 4
    assert last_json(out)["gap_abs"] == -1.0
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "WeakDualityViolation", "exit_code": 4,
        "message": "certified dual value exceeds the primal energy by 1.0",
    }
    assert (tmp_path / "dual_report.json").exists()


def test_jump_comma_list_repeated_flag_and_config_list_agree(tmp_path, capsys):
    # one comma list, two flags, and a config list all give the same jumps
    common = ["--grid", "16x16", "--widths", "1e-1,1e-2"]
    forms = {
        "comma": ["approx-demo", *common, "--jump", "8:1.0,4:0.5"],
        "repeat": ["approx-demo", *common, "--jump", "8:1.0", "--jump", "4:0.5"],
        "config": ["--config", str(write_json(tmp_path, {
            "command": "approx-demo", "grid": "16x16", "widths": [0.1, 0.01],
            "jump": ["8:1.0", "4:0.5"]}))],
    }
    outputs = {}
    for name, argv in forms.items():
        out_dir = tmp_path / name
        assert cli._parse(cli.build_parser(), [*argv, "--out-dir", str(out_dir)]).jump == [
            "8:1.0", "4:0.5"]
        rc, out, err = run([*argv, "--out-dir", str(out_dir)], capsys)
        assert rc == 0, err
        outputs[name] = (out, (out_dir / "approx.csv").read_bytes())
    assert json.loads(outputs["comma"][0])["k_reference"] == 3.0
    assert outputs["comma"] == outputs["repeat"] == outputs["config"]


def test_exit_3_out_of_memory(tmp_path, monkeypatch, capsys):
    # numpy raises a MemoryError subclass when a grid's arrays do not fit; a
    # test must not allocate one, since calloc may succeed lazily
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "_resolve_u0", out_of_memory)
    rc, out, err = run(["solve", "--grid", "8x8", "--out-dir", str(tmp_path / "out")], capsys)
    assert (rc, out) == (3, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "MemoryError", "exit_code": 3,
        "message": "Unable to allocate 74.5 GiB for an array",
    }
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# every flag of every command, checked before the first solve
# ---------------------------------------------------------------------------

# flags that no input rule constrains
FREE_FORM = {"help"}
# commands that run a continuation once their input is built
SOLVING = {"solve", "dual-report", "sweep", "relax-gap"}

PROBLEM = {"grid": "16x16", "u0": "step:0:1", "deltas": "1e-1,1e-2,1e-3"}
# one valid set of flags per command; each bad-input case changes one entry
BASE = {
    "solve": {**PROBLEM, "out_dir": "out"},
    "dual-report": {**PROBLEM, "out_dir": "out"},
    "sweep": {**PROBLEM, "chis": "3", "kappas": "4", "out_dir": "out"},
    "relax-gap": {**PROBLEM, "jump": "8:1"},
    "approx-demo": {"grid": "16x16", "jump": "8:1", "widths": "1e-1,1e-2", "out_dir": "out"},
    "conjugate-table": {"density": "power:2", "s_max": "4", "n": "5", "out": "table.csv"},
    "predict": {"p": "3", "gamma": "0.7", "mu": "1.5"},
}

NON_FINITE_ID = "ValueError: each parameter must be a finite number"
NOT_A_TABLE = [
    ("{missing}", "FileNotFoundError: No such file"),
    ("{small}", "ValueError: has grid 8x8, which does not match --grid 16x16"),
    ("{nan}", "ValueError: holds a non-finite value"),
]
JUMP_FORM = "ValueError: jump must be line:height[:start:end] with integer line, start, end"
# each flag's bad values, with the type of the error and a part of its message;
# -1 and 0 appear where the flag's rule rejects them (a sweep exponent, a
# number of a u0 id, --s-max and a jump height may take either)
BAD_VALUES = {
    "grid": [
        ("8", "ValueError: grid must look like '64x64'"),
        ("8.5x8", "ValueError: grid must look like '64x64'"),
        ("nanx8", "ValueError: grid must look like '64x64'"),
        ("infx8", "ValueError: grid must look like '64x64'"),
        ("-1x8", "ValueError: need at least 2 cells per axis, got -1x8"),
        ("16x0", "ValueError: need at least 2 cells per axis, got 16x0"),
    ],
    "f1": [
        ("phi_nu:nan", NON_FINITE_ID),
        ("phi_nu:inf", NON_FINITE_ID),
        ("phi_nu:-1", "ValueError: nu must lie in (1, 2), got -1.0"),
        ("phi_nu:0", "ValueError: nu must lie in (1, 2), got 0.0"),
        ("hencky:nan:0.3", NON_FINITE_ID),
        ("hencky:1:inf", NON_FINITE_ID),
        ("hencky:-1:0.3", "ValueError: k and nu must be positive"),
        ("hencky:1:0", "ValueError: k and nu must be positive"),
        ("power:2", "ValueError: 'power:2' is superlinear; not usable as f1"),
        ("mystery:1", "ValueError: invalid density id 'mystery:1': unknown density id"),
    ],
    "f2": [
        ("power:nan", NON_FINITE_ID),
        ("power:inf", NON_FINITE_ID),
        ("power:two", "ValueError: each parameter must be a finite number, got 'two'"),
        ("power:-1", "ValueError: power N-function needs p > 1, got -1.0"),
        ("power:0", "ValueError: power N-function needs p > 1, got 0.0"),
        ("power:1", "ValueError: power N-function needs p > 1, got 1.0"),
        ("phi_nu:1.5", "ValueError: 'phi_nu:1.5' has linear growth; not usable as f2"),
    ],
    "u0": [
        ("affine:nan:1", "ValueError: each parameter of u0 id 'affine:nan:1' must be a finite"),
        ("step:0:inf", "ValueError: each parameter of u0 id 'step:0:inf' must be a finite"),
        ("step:0:one", "ValueError: each parameter of u0 id 'step:0:one' must be a finite"),
        ("affine:1", "ValueError: u0 id 'affine:1' must be affine:<a>:<b>"),
        *((f"custom-table:{path}", expected) for path, expected in NOT_A_TABLE),
    ],
    "deltas": [
        ("nan", "ValueError: delta schedule must be finite, positive and below 1: (nan,)"),
        ("inf", "ValueError: delta schedule must be finite, positive and below 1: (inf,)"),
        ("-1", "ValueError: delta schedule must be finite, positive and below 1: (-1.0,)"),
        ("0", "ValueError: delta schedule must be finite, positive and below 1: (0.0,)"),
        (",", "ValueError: delta schedule must be nonempty"),
        ("abc", "ValueError: --deltas must be a comma list of numbers, got 'abc'"),
        ("1e-2,1e-1", "ValueError: delta schedule must be strictly decreasing"),
    ],
    "max_iter": [
        ("-1", "ValueError: max_iter must be an integer >= 0, got -1"),
        ("1.5", "ArgumentError: argument --max-iter: invalid int value: '1.5'"),
        ("nan", "ArgumentError: argument --max-iter: invalid int value: 'nan'"),
    ],
    "p_reg": [
        ("nan", "ValueError: p_reg must be finite and >= 2, got nan"),
        ("inf", "ValueError: p_reg must be finite and >= 2, got inf"),
        ("-1", "ValueError: p_reg must be finite and >= 2, got -1.0"),
        ("0", "ValueError: p_reg must be finite and >= 2, got 0.0"),
    ],
    "tol_grad": [
        ("nan", "ValueError: tol_grad must be finite and positive, got nan"),
        ("inf", "ValueError: tol_grad must be finite and positive, got inf"),
        ("-1", "ValueError: tol_grad must be finite and positive, got -1.0"),
        ("0", "ValueError: tol_grad must be finite and positive, got 0.0"),
    ],
    "chis": [
        ("nan", "ValueError: sweep exponents must be finite, got chis (nan,), kappas (4.0,)"),
        ("3,inf", "ValueError: sweep exponents must be finite, got chis (3.0, inf)"),
        (",", "ValueError: need at least one chi exponent"),
        ("abc", "ValueError: --chis must be a comma list of numbers, got 'abc'"),
    ],
    "kappas": [
        ("nan", "ValueError: sweep exponents must be finite, got chis (3.0,), kappas (nan,)"),
        ("-inf", "ValueError: sweep exponents must be finite"),
        ("abc", "ValueError: --kappas must be a comma list of numbers, got 'abc'"),
    ],
    "widths": [
        ("nan,1e-2", "ValueError: widths must be finite and positive: (nan, 0.01)"),
        ("inf", "ValueError: widths must be finite and positive: (inf,)"),
        ("-1", "ValueError: widths must be finite and positive: (-1.0,)"),
        ("0", "ValueError: widths must be finite and positive: (0.0,)"),
        (",", "ValueError: widths must be nonempty"),
        ("abc", "ValueError: --widths must be a comma list of numbers, got 'abc'"),
        ("1e-2,1e-1", "ValueError: widths must be strictly decreasing"),
        ("3", "ValueError: width exceeds the margin to the lateral boundary"),
    ],
    "jump": [
        ("4.5:1", JUMP_FORM),
        ("nan:1", JUMP_FORM),
        ("inf:1", JUMP_FORM),
        ("8:1:0.5:16", JUMP_FORM),
        ("8:1:0:16.0", JUMP_FORM),
        ("8:1:2", JUMP_FORM),
        ("8:1,", JUMP_FORM),
        ("-1:1", "CandidateInvariantError: jump line index -1 not an interior grid line"),
        ("0:1", "CandidateInvariantError: jump line index 0 not an interior grid line"),
        ("16:1", "CandidateInvariantError: jump line index 16 not an interior grid line"),
        ("8:nan", "CandidateInvariantError: jump height must be finite"),
        ("8:inf", "CandidateInvariantError: jump height must be finite"),
        ("8:1:-1:16", "CandidateInvariantError: bad jump cell range (-1, 16)"),
        ("8:1:0:0", "CandidateInvariantError: bad jump cell range (0, 0)"),
        ("8:1:0:17", "CandidateInvariantError: bad jump cell range (0, 17)"),
    ],
    "smooth_table": NOT_A_TABLE,
    # an existing file, and a path under one
    "out_dir": [
        ("{small}", "ArgumentError: argument --out-dir: no folder can be written at '"),
        ("{small}/out", "ArgumentError: argument --out-dir: no folder can be written at '"),
    ],
    "candidate_table": NOT_A_TABLE,
    # an existing folder, and a path under a file
    "out": [
        ("{folder}", "ArgumentError: argument --out: no file can be written at '"),
        ("{small}/t.csv", "ArgumentError: argument --out: no folder can be written at '"),
    ],
    "density": [
        ("power:nan", NON_FINITE_ID),
        ("phi_nu:inf", NON_FINITE_ID),
        ("power:0", "ValueError: power N-function needs p > 1, got 0.0"),
        ("phi_nu:-1", "ValueError: nu must lie in (1, 2), got -1.0"),
        ("hencky:1", "ValueError: invalid density id 'hencky:1': unknown density id"),
    ],
    "s_max": [
        ("nan", "ValueError: --s-max must be a finite number, got 'nan'"),
        ("inf", "ValueError: --s-max must be a finite number, got 'inf'"),
        ("abc", "ValueError: --s-max must be a finite number, got 'abc'"),
        ("-inf", "ValueError: --s-max must be a finite number, got '-inf'"),
    ],
    "n": [
        ("0", "ValueError: --n must be at least 1, got 0"),
        ("-1", "ValueError: --n must be at least 1, got -1"),
        ("1.5", "ArgumentError: argument --n: invalid int value: '1.5'"),
        ("nan", "ArgumentError: argument --n: invalid int value: 'nan'"),
    ],
    "p": [
        ("nan", "ValueError: p must be finite and exceed 1, got nan"),
        ("inf", "ValueError: p must be finite and exceed 1, got inf"),
        ("-1", "ValueError: p must be finite and exceed 1, got -1.0"),
        ("0", "ValueError: p must be finite and exceed 1, got 0.0"),
    ],
    "gamma": [
        ("nan", "ValueError: gamma must be finite and nonnegative, got nan"),
        ("inf", "ValueError: gamma must be finite and nonnegative, got inf"),
        ("-1", "ValueError: gamma must be finite and nonnegative, got -1.0"),
    ],
    "mu": [
        ("nan", "ValueError: mu must be finite and exceed 1, got nan"),
        ("inf", "ValueError: mu must be finite and exceed 1, got inf"),
        ("-1", "ValueError: mu must be finite and exceed 1, got -1.0"),
        ("0", "ValueError: mu must be finite and exceed 1, got 0.0"),
    ],
}
# values that are bad only together with another flag of the base
CROSS_INPUT = [
    ("relax-gap", {"jump": "8:2"}, "CandidateInvariantError: bottom trace mismatches"),
    # the table's u0 note must not join the error line
    ("solve", {"u0": "custom-table:{valid}", "deltas": "nan"},
     "ValueError: delta schedule must be finite, positive and below 1: (nan,)"),
    ("sweep", {"deltas": "1e-1,1e-2", "chis": "4"},
     "ValueError: need at least 3 schedule levels with stored fields"),
    ("approx-demo", {"u0": "step:0:5"}, "CandidateInvariantError: bottom trace mismatches"),
    ("approx-demo", {"jump": "8:1:0:8"}, "ValueError: approximation experiment requires jumps"),
    ("approx-demo", {"jump": "8:1,9:1", "widths": "0.2"},
     "ValueError: smoothing zones of distinct jumps overlap"),
]


def bad_input_cases():
    """One case per bad value of each flag of each command, from the
    parser's own flag lists; a flag with no bad values is a failing case."""
    commands = cli.build_parser().commands
    for command, sub in commands.items():
        for dest in sorted(sub.flag_dests - FREE_FORM):
            for value, expected in BAD_VALUES.get(dest, [(None, None)]):
                yield pytest.param(command, {dest: value}, expected, id=f"{command}-{dest}={value}")
    for command, change, expected in CROSS_INPUT:
        name = ",".join(f"{dest}={value}" for dest, value in change.items())
        yield pytest.param(command, change, expected, id=f"{command}-{name}")


def bad_input_argv(command, change, tables):
    flags = {**BASE[command], **change}
    # --flag=value, so that a value such as -1 is not read as a flag
    return [command, *(f"--{dest.replace('_', '-')}={value.format(**tables)}"
                       for dest, value in flags.items())]


class ReachedSolve(Exception):
    """Raised in place of a Newton level: the command ran a continuation."""


@pytest.fixture()
def no_solve(monkeypatch):
    # every continuation, from any module, looks the level up in solve's globals
    def reached(*args, **kwargs):
        raise ReachedSolve

    monkeypatch.setattr(solve_module, "minimize_J_delta", reached)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Paths of a missing table, one on another grid, one holding nan, a
    valid one and the folder that holds them."""
    folder = tmp_path_factory.mktemp("tables")
    grid, small = Grid(16, 16), Grid(8, 8)
    save_csv(GridFunction(small, np.zeros(small.node_shape)), str(folder / "small.csv"))
    save_csv(GridFunction(grid, np.zeros(grid.node_shape)), str(folder / "valid.csv"))
    values = np.zeros(grid.node_shape)
    values[3, 3] = np.nan
    save_csv(GridFunction(grid, values), str(folder / "nan.csv"))
    names = ("missing", "small", "nan", "valid")
    return {"folder": str(folder), **{name: str(folder / f"{name}.csv") for name in names}}


def test_bad_input_table_covers_every_command(tables, no_solve, tmp_path, monkeypatch, capsys):
    # each base is valid: a solving command reaches its first Newton level,
    # the others exit 0
    assert BASE.keys() == cli.build_parser().commands.keys()
    monkeypatch.chdir(tmp_path)
    for command in BASE:
        argv = bad_input_argv(command, {}, tables)
        if command in SOLVING:
            with pytest.raises(ReachedSolve):
                main(argv)
        else:
            assert main(argv) == 0, capsys.readouterr().err
    ids = {case.id for case in bad_input_cases()}
    for named in ("relax-gap-jump=8:2", "sweep-deltas=1e-1,1e-2,chis=4", "sweep-chis=,",
                  "conjugate-table-n=0", "approx-demo-jump=4.5:1", "solve-out_dir={small}",
                  "conjugate-table-out={folder}",
                  "solve-u0=custom-table:{valid},deltas=nan"):
        assert named in ids


@pytest.mark.parametrize("command, change, expected", bad_input_cases())
def test_bad_input_exits_2_before_any_solve(
    command, change, expected, tables, no_solve, tmp_path, monkeypatch, capsys
):
    assert expected is not None, f"no bad values of {change} for {command} in BAD_VALUES"
    monkeypatch.chdir(tmp_path)
    try:
        rc = main(bad_input_argv(command, change, tables))
    except SystemExit as exc:  # argparse's own errors
        rc = exc.code
    except ReachedSolve:
        pytest.fail("the command ran a solve before rejecting its input")
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    (line,) = captured.err.splitlines()
    error = json.loads(line)["error"]
    kind, fragment = expected.split(": ", 1)
    assert (error["type"], error["exit_code"]) == (kind, 2)
    assert fragment in error["message"]
    assert list(tmp_path.iterdir()) == []
