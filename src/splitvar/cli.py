"""Command-line front end.

Subcommands cover the continuation solver, the duality report, the
integrability sweep, the jump-smoothing demo, conjugate tabulation, the
integrability predictor, and the relaxation-gap check.  All output files are
written with repr() floats so reruns with identical inputs are byte
identical.  Validation problems exit 2, numerical failures exit 3, contract
violations exit 4, and the diagnostic payload goes to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .densities import (
    ConjugateBoundaryWarning,
    NonConcaveObjectiveError,
    density_from_id,
    make_pair,
    predict_integrability,
)
from .duality import duality_gap
from .diagnostics import approximation_experiment, integrability_sweep, relaxation_gap
from .energy import BVCandidate, JumpSegment
from .grid import Grid, GridFunction, load_csv, save_csv, save_vsgf
from .solve import ContinuationContractError, SolveConfig, continuation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONTRACT = 4


class _Parser(argparse.ArgumentParser):
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


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _resolve_u0(spec: str, grid: Grid) -> GridFunction:
    """Boundary data ids: affine:<a>:<b>, step:<left>:<right>, zero,
    custom-table:<path>."""
    if spec == "zero":
        return GridFunction(grid, np.zeros(grid.node_shape))
    if spec.startswith("affine:"):
        _, a, b = spec.split(":")
        a, b = float(a), float(b)
        return GridFunction.from_callable(grid, lambda x1, x2: a * x1 + b * x2)
    if spec.startswith("step:"):
        _, lo, hi = spec.split(":")
        lo, hi = float(lo), float(hi)
        return GridFunction.from_callable(
            grid, lambda x1, x2: np.where(x1 < 0.0, lo, hi)
        )
    if spec.startswith("custom-table:"):
        path = spec.split(":", 1)[1]
        u = load_csv(path)
        if u.grid != grid:
            raise ValueError(
                f"table grid {u.grid.n1}x{u.grid.n2} does not match requested "
                f"{grid.n1}x{grid.n2}"
            )
        # Lipschitz constant of the table is reported, not enforced
        d1 = np.abs(np.diff(u.values, axis=0)).max(initial=0.0) / grid.h1
        d2 = np.abs(np.diff(u.values, axis=1)).max(initial=0.0) / grid.h2
        print(
            json.dumps({"u0_table_lipschitz": max(float(d1), float(d2))}),
            file=sys.stderr,
        )
        return u
    raise ValueError(f"unknown u0 id {spec!r}")


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f1", default="phi_nu:1.5", help="linear-growth density id")
    p.add_argument("--f2", default="power:2", help="superlinear density id")
    p.add_argument("--u0", default="zero", help="boundary data id")
    p.add_argument("--grid", default="32x32", help="cells per axis, e.g. 64x64")
    p.add_argument("--deltas", default="1e-1,1e-2,1e-3", help="decreasing schedule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--p-reg", type=float, default=None, help="default: growth of f2")
    p.add_argument("--tol-grad", type=float, default=1e-10)
    p.add_argument("--store-fields", action="store_true")


def _build_config(args, store_fields=None) -> SolveConfig:
    grid = _parse_grid(args.grid)
    pair = make_pair(density_from_id(args.f1, "f1"), density_from_id(args.f2, "f2"))
    u0 = _resolve_u0(args.u0, grid)
    store = args.store_fields if store_fields is None else store_fields
    return SolveConfig(
        grid=grid,
        densities=pair,
        u0=u0,
        delta_schedule=_parse_floats(args.deltas),
        p_reg=args.p_reg,
        tol_grad=args.tol_grad,
        seed=args.seed,
        max_iter=args.max_iter,
        store_fields=store,
    )


def _echo(args) -> dict:
    return {
        "f1": args.f1,
        "f2": args.f2,
        "u0": args.u0,
        "grid": args.grid,
        "deltas": _parse_floats(args.deltas),
        "seed": args.seed,
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
    dual = duality_gap(
        report.u_final,
        report.stress_final,
        cfg.densities,
        u0=cfg.u0,
        div_tol=args.div_tol,
        delta=delta_last,
        p_reg=cfg.p_reg,
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
        chis=_parse_floats(args.chis),
        kappas=_parse_floats(args.kappas) if args.kappas else (),
        margin=args.margin,
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
    pair = make_pair(density_from_id(args.f1, "f1"), density_from_id(args.f2, "f2"))
    if args.smooth_table:
        smooth = load_csv(args.smooth_table)
        if smooth.grid != grid:
            raise ValueError("smooth table grid does not match --grid")
    else:
        smooth = GridFunction(grid, np.zeros(grid.node_shape))
    jumps = tuple(_parse_jump(tok, grid) for tok in args.jump or ())
    w = BVCandidate(smooth_part=smooth, jumps=jumps)
    u0 = _resolve_u0(args.u0, grid) if args.u0 else None
    table = approximation_experiment(w, pair, _parse_floats(args.widths), u0=u0)
    os.makedirs(args.out_dir, exist_ok=True)
    table.write_csv(os.path.join(args.out_dir, "approx.csv"))
    _dump_json(table.to_dict(), os.path.join(args.out_dir, "approx.json"))
    print(
        json.dumps(
            {
                "k_reference": table.k_reference,
                "terminal_j_deviation": table.terminal_j_deviation,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_conjugate_table(args) -> int:
    spec = density_from_id(args.density, args.slot)
    ss = np.linspace(-args.s_max, args.s_max, args.n)
    rows = [(float(s), float(spec.conjugate(s))) for s in ss]
    lines = ["s,conjugate"]
    lines += [f"{repr(s)},{repr(v)}" for s, v in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_predict(args) -> int:
    pred = predict_integrability(args.p, args.gamma, mu=args.mu)
    print(json.dumps(pred.to_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_relax_gap(args) -> int:
    cfg = _build_config(args)
    candidates = None  # default: the solver's own final iterate, lifted
    if args.candidate_table:
        smooth = load_csv(args.candidate_table)
        if smooth.grid != cfg.grid:
            raise ValueError("candidate table grid does not match --grid")
        jumps = tuple(_parse_jump(tok, cfg.grid) for tok in args.jump or ())
        candidates = [BVCandidate(smooth_part=smooth, jumps=jumps)]
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitvar", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON file with option defaults")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="escalate conjugate-boundary warnings to errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="run the continuation solver")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dual-report", help="duality gap for the continuation output")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--div-tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_dual_report)

    p = sub.add_parser("sweep", help="interior integrability sweep over the schedule")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--chis", required=True, help="comma list of exponents")
    p.add_argument("--kappas", default="", help="full-gradient exponents")
    p.add_argument("--margin", type=float, default=0.1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("approx-demo", help="jump smoothing experiment")
    p.add_argument("--f1", default="phi_nu:1.5")
    p.add_argument("--f2", default="power:2")
    p.add_argument("--grid", default="32x32")
    p.add_argument("--smooth-table", default=None, help="CSV for the smooth part")
    p.add_argument("--jump", action="append", help="line:height (full span)")
    p.add_argument("--u0", default=None, help="boundary data id (optional)")
    p.add_argument("--widths", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_approx_demo)

    p = sub.add_parser("conjugate-table", help="tabulate a convex conjugate")
    p.add_argument("--density", required=True)
    p.add_argument("--slot", choices=("f1", "f2"), default="f1")
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
    p.add_argument("--candidate-table", default=None)
    p.add_argument("--jump", action="append")
    p.set_defaults(func=_cmd_relax_gap)

    return parser


_BOOL_FLAGS = ("--strict", "--store-fields")


def _has_subcommand(argv: list) -> bool:
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            i += 1 if (tok in _BOOL_FLAGS or "=" in tok) else 2
        else:
            return True
    return False


def _normalize_config(loaded: dict) -> dict:
    """Map the experiment-config schema onto flag destinations."""
    out = {}
    for key, val in loaded.items():
        key = key.replace("-", "_")
        if key == "grid" and isinstance(val, dict):
            out["grid"] = f"{val['n1']}x{val['n2']}"
        elif key == "delta_schedule":
            out["deltas"] = ",".join(repr(float(x)) for x in val)
        elif key == "tolerances":
            out.update({k.replace("-", "_"): v for k, v in val.items()})
        elif key == "output_dir":
            out["out_dir"] = val
        else:
            out[key] = val
    return out


def _apply_config_file(parser: argparse.ArgumentParser, argv: list) -> list:
    """Load --config JSON as option defaults; explicit flags still win.

    The file may name the subcommand itself under "command", so a bare
    ``splitvar --config exp.json`` runs a full experiment.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        raise ValueError("--config requires a path")
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ValueError("config file must hold a JSON object")
    defaults = _normalize_config(loaded)
    command = defaults.pop("command", None)

    subs = list(parser._subparsers._group_actions[0].choices.values())
    known_anywhere = {a.dest for sub in subs for a in sub._actions}
    known_anywhere |= {a.dest for a in parser._actions}
    unknown = sorted(set(defaults) - known_anywhere)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for sub in subs:
        known = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in defaults.items() if k in known})

    if not _has_subcommand(argv):
        if command is None:
            raise ValueError("config file gives no command and none was passed")
        argv = argv + [str(command)]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error", ConjugateBoundaryWarning)
            return args.func(args)
    except SystemExit:
        raise
    except ContinuationContractError as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_CONTRACT)
        return EXIT_CONTRACT
    except (ValueError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)
        return EXIT_VALIDATION
    except (ArithmeticError, NonConcaveObjectiveError, ConjugateBoundaryWarning) as exc:
        _emit_error(type(exc).__name__, str(exc), EXIT_SOLVER)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
