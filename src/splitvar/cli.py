"""Command-line front end.

Subcommands cover the continuation solver, the duality report, the
integrability sweep, the jump-smoothing demo, conjugate tabulation, the
integrability predictor, and the relaxation-gap check.  All output files are
written with repr() floats so reruns with identical inputs are byte
identical.  Validation problems exit 2, numerical failures exit 3, contract
violations exit 4, and the diagnostic payload goes to stderr as JSON.

List flags (--deltas, --chis, --kappas, --widths, --jump) take comma lists;
--jump may also repeat, and its lists add up.  --config PATH (or
--config=PATH) reads a JSON object as the flags it stands for: key max_iter
is --max-iter, delta_schedule --deltas, output_dir --out-dir, "command" the
subcommand when the command line names none, and a list one comma-joined
value.  Required flags may come from the file, explicit flags win, and a key
that is not exactly a flag of the running subcommand exits 2, as does a
prefix of a flag on the command line.  A number inside an id
(affine:<a>:<b>, power:<p>, ...) or a list must be finite; nan or inf exits
2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .densities import (
    DensityPair,
    _finite_float,
    density_from_id,
    make_pair,
    predict_integrability,
)
from .duality import duality_gap, stress
from .diagnostics import approximation_experiment, integrability_sweep, relaxation_gap
from .energy import BVCandidate, JumpSegment
from .grid import Grid, GridFunction, load_csv, save_csv, save_vsgf, write_csv
from .solve import ContinuationContractError, SolveConfig, continuation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONTRACT = 4


class _Parser(argparse.ArgumentParser):
    """argparse with JSON errors, and with every flag matched only whole:
    subparsers are made by this class too, so no prefix of a flag (--max
    for --max-iter) is read as the flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse prints usage text by default; keep stderr machine readable
    def error(self, message):
        _emit_error("ArgumentError", message, EXIT_VALIDATION)
        raise SystemExit(EXIT_VALIDATION)


def _emit_error(kind: str, message: str, code: int) -> None:
    payload = {"error": {"type": kind, "message": message, "exit_code": code}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _parse_grid(text: str) -> Grid:
    try:
        n1, n2 = (int(part) for part in text.lower().split("x"))
    except Exception:
        raise ValueError(f"grid must look like '64x64', got {text!r}")
    return Grid(n1, n2)


def _parse_floats(text: str, flag: str) -> list:
    return [_finite_float(tok, f"each entry of {flag}") for tok in text.split(",") if tok.strip()]


def _resolve_u0(spec: str, grid: Grid) -> GridFunction:
    """Boundary data ids: affine:<a>:<b>, step:<left>:<right>, zero,
    custom-table:<path>; the numbers of affine and step must be finite."""
    what = f"each parameter of u0 id {spec!r}"
    if spec == "zero":
        return GridFunction(grid, np.zeros(grid.node_shape))
    if spec.startswith("affine:"):
        _, a, b = spec.split(":")
        a, b = _finite_float(a, what), _finite_float(b, what)
        return GridFunction.from_callable(grid, lambda x1, x2: a * x1 + b * x2)
    if spec.startswith("step:"):
        _, lo, hi = spec.split(":")
        lo, hi = _finite_float(lo, what), _finite_float(hi, what)
        return GridFunction.from_callable(
            grid, lambda x1, x2: np.where(x1 < 0.0, lo, hi)
        )
    if spec.startswith("custom-table:"):
        u = _load_table(spec.split(":", 1)[1], grid)
        # Lipschitz constant of the table is reported, not enforced
        d1 = np.abs(np.diff(u.values, axis=0)).max(initial=0.0) / grid.h1
        d2 = np.abs(np.diff(u.values, axis=1)).max(initial=0.0) / grid.h2
        print(json.dumps({"u0_table_lipschitz": max(float(d1), float(d2))}), file=sys.stderr)
        return u
    raise ValueError(f"unknown u0 id {spec!r}")


def _load_table(path: str, grid: Grid) -> GridFunction:
    """A nodal CSV table of finite values whose grid must be the requested one."""
    u = load_csv(path)
    if not np.all(np.isfinite(u.values)):
        raise ValueError(f"table {path} holds a non-finite value")
    if u.grid != grid:
        raise ValueError(
            f"table {path} has grid {u.grid.n1}x{u.grid.n2}, which does not "
            f"match --grid {grid.n1}x{grid.n2}"
        )
    return u


def _candidate(grid: Grid, table, jump_tokens) -> BVCandidate:
    """A jump candidate: the smooth part from ``table`` (zero without one)
    plus the ``--jump`` segments."""
    smooth = _load_table(table, grid) if table else _resolve_u0("zero", grid)
    jumps = tuple(_parse_jump(tok, grid) for tok in jump_tokens or ())
    return BVCandidate(smooth_part=smooth, jumps=jumps)


def _add_density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f1", default="phi_nu:1.5", help="linear-growth density id")
    p.add_argument("--f2", default="power:2", help="superlinear density id")
    p.add_argument("--grid", default="32x32", help="cells per axis, e.g. 64x64")


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    _add_density_args(p)
    p.add_argument("--u0", default="zero", help="boundary data id")
    p.add_argument("--deltas", default="1e-1,1e-2,1e-3", help="decreasing schedule")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--p-reg", type=float, default=None, help="default: growth of f2")
    p.add_argument("--tol-grad", type=float, default=1e-10)


def _add_jump_arg(p: argparse.ArgumentParser) -> None:
    # a blank entry is kept, and rejected as a malformed segment
    p.add_argument(
        "--jump", action="extend", type=lambda text: text.split(","),
        help="comma list of line:height (full span) or line:height:start:end",
    )


def _pair(args) -> DensityPair:
    return make_pair(density_from_id(args.f1), density_from_id(args.f2))


def _build_config(args, store_fields=False) -> SolveConfig:
    grid = _parse_grid(args.grid)
    return SolveConfig(
        grid=grid,
        densities=_pair(args),
        u0=_resolve_u0(args.u0, grid),
        delta_schedule=_parse_floats(args.deltas, "--deltas"),
        p_reg=args.p_reg,
        tol_grad=args.tol_grad,
        max_iter=args.max_iter,
        store_fields=store_fields,
    )


def _echo(args) -> dict:
    return {
        "f1": args.f1,
        "f2": args.f2,
        "u0": args.u0,
        "grid": args.grid,
        "deltas": _parse_floats(args.deltas, "--deltas"),
    }


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_jump(text: str, grid: Grid) -> JumpSegment:
    parts = text.split(":")
    if len(parts) == 2:
        line, height = int(parts[0]), float(parts[1])
        return JumpSegment(line, 0, grid.n2, height)
    if len(parts) == 4:
        return JumpSegment(int(parts[0]), int(parts[2]), int(parts[3]), float(parts[1]))
    raise ValueError(f"jump must be line:height or line:height:start:end, got {text!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    report = continuation(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    payload = {"config": _echo(args), "report": report.to_dict()}
    _dump_json(payload, os.path.join(args.out_dir, "report.json"))
    report.write_records_csv(os.path.join(args.out_dir, "records.csv"))
    save_csv(report.u_final, os.path.join(args.out_dir, "u_final.csv"))
    save_vsgf(report.u_final, os.path.join(args.out_dir, "u_final.vsgf"))
    print(json.dumps({"j_final": report.records[-1].j_value}, sort_keys=True))
    return EXIT_OK


def _cmd_dual_report(args) -> int:
    cfg = _build_config(args)
    report = continuation(cfg)
    delta_last = cfg.delta_schedule[-1]
    # the converged regularized stress is divergence free by the Euler
    # equation, so it is the certifiable dual candidate
    sigma, _, _ = stress(report.u_final, cfg.densities, delta_last, cfg.p_reg)
    dual = duality_gap(
        report.u_final, sigma, cfg.densities, u0=cfg.u0, delta=delta_last, p_reg=cfg.p_reg
    )
    payload = {"config": _echo(args), "dual": dual.to_dict()}
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        _dump_json(payload, os.path.join(args.out_dir, "dual_report.json"))
    print(json.dumps(payload["dual"], sort_keys=True))
    if dual.gap_absolute < -1e-9 * (1.0 + abs(dual.j_value)):
        _emit_error(
            "WeakDualityViolation",
            f"certified dual value exceeds the primal energy by {-dual.gap_absolute}",
            EXIT_CONTRACT,
        )
        return EXIT_CONTRACT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args, store_fields=True)
    report = continuation(cfg)
    table = integrability_sweep(
        report,
        chis=_parse_floats(args.chis, "--chis"),
        kappas=_parse_floats(args.kappas, "--kappas"),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    table.write_csv(os.path.join(args.out_dir, "sweep.csv"))
    _dump_json(table.to_dict(), os.path.join(args.out_dir, "sweep.json"))
    flags = {repr(k): v for k, v in table.chi_flags.items()}
    flags.update({repr(k): v for k, v in table.kappa_flags.items()})
    print(json.dumps(flags, sort_keys=True))
    return EXIT_OK


def _cmd_approx_demo(args) -> int:
    grid = _parse_grid(args.grid)
    pair = _pair(args)
    w = _candidate(grid, args.smooth_table, args.jump)
    u0 = _resolve_u0(args.u0, grid) if args.u0 else None
    table = approximation_experiment(w, pair, _parse_floats(args.widths, "--widths"), u0=u0)
    os.makedirs(args.out_dir, exist_ok=True)
    table.write_csv(os.path.join(args.out_dir, "approx.csv"))
    _dump_json(table.to_dict(), os.path.join(args.out_dir, "approx.json"))
    deviation = table.terminal_j_deviation
    summary = {"k_reference": table.k_reference, "terminal_j_deviation": deviation}
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_conjugate_table(args) -> int:
    spec = density_from_id(args.density)
    s_max = _finite_float(args.s_max, "--s-max")
    ss = np.linspace(-s_max, s_max, args.n)
    values = [float(spec.conjugate(s)) for s in ss]
    write_csv(args.out or sys.stdout, ["s", "conjugate"], [ss, values])
    return EXIT_OK


def _cmd_predict(args) -> int:
    pred = predict_integrability(args.p, args.gamma, mu=args.mu)
    print(json.dumps(pred.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_relax_gap(args) -> int:
    cfg = _build_config(args)
    candidates = None  # default: the solver's own final iterate, lifted
    if args.candidate_table or args.jump:
        candidates = [_candidate(cfg.grid, args.candidate_table, args.jump)]
    result = relaxation_gap(candidates, cfg)
    print(json.dumps(result, sort_keys=True))
    if not result["contract_ok"]:
        _emit_error(
            "RelaxationGapViolation",
            f"candidate energy undercuts the continuation limit by {-result['gap']}",
            EXIT_CONTRACT,
        )
        return EXIT_CONTRACT
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _config_parser() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="JSON file of flags (see README)")
    return p


def build_parser() -> argparse.ArgumentParser:
    config = _config_parser()
    parser = _Parser(prog="splitvar", description=__doc__, parents=[config])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the continuation solver")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dual-report", help="duality gap for the continuation output")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_dual_report)

    p = sub.add_parser("sweep", help="interior integrability sweep over the schedule")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--chis", required=True, help="comma list of exponents")
    p.add_argument("--kappas", default="", help="full-gradient exponents")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("approx-demo", help="jump smoothing experiment")
    _add_density_args(p)
    p.add_argument("--smooth-table", default=None, help="CSV for the smooth part")
    _add_jump_arg(p)
    p.add_argument("--u0", default=None, help="boundary data id (optional)")
    p.add_argument("--widths", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_approx_demo)

    p = sub.add_parser("conjugate-table", help="tabulate a convex conjugate")
    p.add_argument("--density", required=True, help="f1 or f2 density id")
    p.add_argument("--s-max", type=float, default=0.9)
    p.add_argument("--n", type=int, default=33)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_conjugate_table)

    p = sub.add_parser("predict", help="integrability exponent prediction")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("relax-gap", help="candidate energy vs continuation limit")
    _add_problem_args(p)
    p.add_argument("--candidate-table", default=None, help="CSV for the smooth part")
    _add_jump_arg(p)
    p.set_defaults(func=_cmd_relax_gap)

    return parser


def _config_flags(path: str):
    """A JSON config file as (command, flags): its "command" (None without
    one) and a (key, name, token) triple for each other key, ``name`` being
    the destination the key stands for ("_" for "-"; delta_schedule is
    deltas, output_dir out_dir) and ``token`` its "--flag=value" (None for
    null).  A ``grid`` dict {"n1": N, "n2": M} is NxM, a list one
    comma-joined value, as every list flag takes, and an empty list null."""
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    command = loaded.pop("command", None)
    flags = []
    for key, val in loaded.items():
        name = key.replace("-", "_")
        name = {"delta_schedule": "deltas", "output_dir": "out_dir"}.get(name, name)
        if name == "grid" and isinstance(val, dict):
            val = f"{val.get('n1')}x{val.get('n2')}"
        elif isinstance(val, list):
            val = ",".join(map(str, val)) if val else None
        token = None if val is None else f"--{name.replace('_', '-')}={val}"
        flags.append((key, name, token))
    return command, flags


def _parse(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """One argparse pass over ``argv`` with the --config file's flags right
    after the subcommand, so explicit flags parse later and win.  The
    subcommand is the first token left once --config is out, unless that is
    an option; then it is the file's "command"."""
    opts, rest = _config_parser().parse_known_args(argv)
    flags = []
    if opts.config is not None:
        command, flags = _config_flags(opts.config)
        if rest and not rest[0].startswith("-"):
            command, rest = rest[0], rest[1:]
        elif command is None:
            raise ValueError("config file gives no command and none was passed")
        rest = [str(command), *rest]
    tokens = [tok for _, _, tok in flags if tok is not None]
    args, extra = parser.parse_known_args([*rest[:1], *tokens, *rest[1:]])
    # a key names its flag exactly, never a prefix of it
    unknown = [key for key, name, tok in flags if tok in extra or name not in vars(args)]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return args.func(args)
    except SystemExit:
        raise
    except ContinuationContractError as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_CONTRACT)
        return EXIT_CONTRACT
    except (ValueError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_SOLVER)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
