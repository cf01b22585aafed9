"""Command-line front end: batch runs of the continuation solver and of its
certificates.  Output files are written with repr() floats, so reruns with
identical inputs are byte identical.

One function, main, decides how a run ends; a command only builds its
inputs, runs and writes, and raises on failure.  Input errors exit 2,
numerical failures 3 (MemoryError, and in every command a numpy overflow
or invalid value, raised as FloatingPointError) and contract violations 4,
each with exactly one JSON line on stderr; input notes (a custom table's
u0_table_lipschitz) print there only on exit 0.  --out-dir and --out are
checked as the flags are parsed and their folders made when the first file
is written, and each command checks all of its input before its first
solve, so exit 2 runs no solve and writes no file.  Each input has one
owner, the library object that uses it (the README lists them); this module
parses ids, lists and tables.

List flags (--deltas, --chis, --kappas, --widths, --jump) take comma lists,
in which a blank entry exits 2; --jump may also repeat, and its lists add
up.  Flags are named whole.
--config PATH (or --config=PATH) reads a JSON object as the flags it stands
for (see the README); explicit flags win, and a key that is not exactly a
flag of the running subcommand exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .densities import DensityPair, _finite_float, density_from_id, make_pair
from .densities import predict_integrability
from .duality import WEAK_DUALITY_TOL, duality_gap, stress
from .diagnostics import _sweep_inputs, approximation_experiment
from .diagnostics import integrability_sweep, relaxation_gap
from .energy import BVCandidate, JumpSegment
from .grid import Grid, GridFunction, load_csv, save_csv, save_vsgf, write_csv
from .solve import ContinuationContractError, SolveConfig, continuation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONTRACT = 4


class WeakDualityViolation(Exception):
    """dual-report's certified dual value exceeds the primal energy."""


class RelaxationGapViolation(Exception):
    """relax-gap's candidate energy undercuts the continuation limit."""


class _Parser(argparse.ArgumentParser):
    """argparse with JSON errors, and with every flag matched only whole:
    subparsers are made by this class too, so no prefix of a flag (--max
    for --max-iter) is read as the flag.  Each parser records its flags'
    destinations (``flag_dests``) and its subcommands' parsers by name
    (``commands``), which is what a config key is checked against."""

    def __init__(self, *args, **kwargs):
        self.flag_dests = set()
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flag_dests.add(action.dest)
        return action

    def add_subparsers(self, **kwargs):
        action = super().add_subparsers(**kwargs)
        self.commands = action.choices  # filled as subcommands are added
        return action

    # argparse prints usage text by default; keep stderr machine readable
    def error(self, message):
        raise SystemExit(_emit_error("ArgumentError", message, EXIT_VALIDATION))


def _emit_error(kind: str, message: str, code: int) -> int:
    """Print the one JSON line of a failed run on stderr; returns ``code``."""
    payload = {"error": {"type": kind, "message": message, "exit_code": code}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def _parse_grid(text: str) -> Grid:
    try:
        n1, n2 = (int(part) for part in text.lower().split("x"))
    except Exception:
        raise ValueError(f"grid must look like '64x64', got {text!r}")
    return Grid(n1, n2)


def _parse_floats(args, dest: str) -> list:
    """The numbers of list flag ``dest``, none for an empty value; a blank
    entry is malformed, as in --jump.  The list's owner checks the numbers."""
    text = getattr(args, dest)
    try:
        return [float(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise ValueError(f"--{dest} must be a comma list of numbers, got {text!r}") from None


def _resolve_u0(spec: str, grid: Grid, notes: list) -> GridFunction:
    """Boundary data ids: affine:<a>:<b>, step:<left>:<right>, zero,
    custom-table:<path> (its note goes to ``notes``); the numbers of affine
    and step must be finite."""
    if spec == "zero":
        return GridFunction(grid, np.zeros(grid.node_shape))
    if spec.startswith(("affine:", "step:")):
        kind, *params = spec.split(":")
        if len(params) != 2:
            form = "affine:<a>:<b>" if kind == "affine" else "step:<left>:<right>"
            raise ValueError(f"u0 id {spec!r} must be {form}")
        a, b = (_finite_float(x, f"each parameter of u0 id {spec!r}") for x in params)
        if kind == "affine":
            return GridFunction.from_callable(grid, lambda x1, x2: a * x1 + b * x2)
        return GridFunction.from_callable(grid, lambda x1, x2: np.where(x1 < 0.0, a, b))
    if spec.startswith("custom-table:"):
        u = _load_table(spec.split(":", 1)[1], grid)
        # Lipschitz constant of the table is reported, not enforced
        d1 = np.abs(np.diff(u.values, axis=0)).max(initial=0.0) / grid.h1
        d2 = np.abs(np.diff(u.values, axis=1)).max(initial=0.0) / grid.h2
        notes.append({"u0_table_lipschitz": max(float(d1), float(d2))})
        return u
    raise ValueError(f"unknown u0 id {spec!r}")


def _load_table(path: str, grid: Grid) -> GridFunction:
    """A nodal CSV table whose grid must be the requested one."""
    u = load_csv(path)
    if u.grid != grid:
        raise ValueError(
            f"table {path} has grid {u.grid.n1}x{u.grid.n2}, which does not "
            f"match --grid {grid.n1}x{grid.n2}"
        )
    return u


def _candidate(grid: Grid, table, jump_tokens) -> BVCandidate:
    """A jump candidate: the smooth part from ``table`` (zero without one)
    plus the ``--jump`` segments."""
    smooth = _load_table(table, grid) if table else _resolve_u0("zero", grid, [])
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
    p.add_argument("--max-iter", type=int, default=None, help="default: SolveConfig's")
    p.add_argument("--p-reg", type=float, default=None, help="default: growth of f2")
    p.add_argument("--tol-grad", type=float, default=None, help="default: SolveConfig's")


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
    # a setting not given keeps SolveConfig's default, which it alone owns
    settings = {"tol_grad": args.tol_grad, "max_iter": args.max_iter}
    return SolveConfig(
        grid=grid,
        densities=_pair(args),
        u0=_resolve_u0(args.u0, grid, args.notes),
        delta_schedule=_parse_floats(args, "deltas"),
        p_reg=args.p_reg,
        store_fields=store_fields,
        **{key: val for key, val in settings.items() if val is not None},
    )


def _echo(args, cfg: SolveConfig) -> dict:
    echo = {name: getattr(args, name) for name in ("f1", "f2", "u0", "grid")}
    return {**echo, "deltas": list(cfg.delta_schedule)}


def _out_dir(path: str) -> str:
    """--out-dir's type, checked as the flags are parsed: a writable folder,
    or a missing path whose nearest existing ancestor is one."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not (path and os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise argparse.ArgumentTypeError(f"no folder can be written at {path!r}")
    return path


def _out_file(path: str) -> str:
    """--out's type, checked as the flags are parsed: a path that is not a
    folder, in a folder that --out-dir would take."""
    folder, name = os.path.split(path)
    if not name or os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"no file can be written at {path!r}")
    _out_dir(folder or ".")
    return path


def _made(path: str) -> str:
    """``path`` with its folder made: output folders are made at write time."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _out(args, name: str) -> str:
    """The path of output file ``name`` in --out-dir, made at write time."""
    return _made(os.path.join(args.out_dir, name))


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parse_jump(text: str, grid: Grid) -> JumpSegment:
    """A --jump entry: line:height (full span) or line:height:start:end."""
    parts = text.split(":")
    form = f"jump must be line:height[:start:end] with integer line, start, end, got {text!r}"
    if len(parts) not in (2, 4):
        raise ValueError(form)
    try:
        line, *span = (int(part) for part in parts[:1] + parts[2:])
        height = float(parts[1])
    except ValueError:
        raise ValueError(form) from None
    start, end = span or (0, grid.n2)
    return JumpSegment(line, start, end, height)


def _cmd_solve(args) -> None:
    cfg = _build_config(args)
    report = continuation(cfg)
    payload = {"config": _echo(args, cfg), "report": report.to_dict()}
    _dump_json(payload, _out(args, "report.json"))
    report.write_records_csv(_out(args, "records.csv"))
    save_csv(report.u_final, _out(args, "u_final.csv"))
    save_vsgf(report.u_final, _out(args, "u_final.vsgf"))
    print(json.dumps({"j_final": report.records[-1].j_value}, sort_keys=True))


def _cmd_dual_report(args) -> None:
    cfg = _build_config(args)
    report = continuation(cfg)
    delta_last = cfg.delta_schedule[-1]
    # the converged regularized stress is divergence free by the Euler
    # equation, so it is the certifiable dual candidate
    sigma, _, _ = stress(report.u_final, cfg.densities, delta_last, cfg.p_reg)
    dual = duality_gap(
        report.u_final, sigma, cfg.densities, u0=cfg.u0, delta=delta_last, p_reg=cfg.p_reg
    )
    payload = {"config": _echo(args, cfg), "dual": dual.to_dict()}
    if args.out_dir:
        _dump_json(payload, _out(args, "dual_report.json"))
    print(json.dumps(payload["dual"], sort_keys=True))
    if dual.gap_absolute < -WEAK_DUALITY_TOL * (1.0 + abs(dual.j_value)):
        raise WeakDualityViolation(
            f"certified dual value exceeds the primal energy by {-dual.gap_absolute}"
        )


def _cmd_sweep(args) -> None:
    cfg = _build_config(args, store_fields=True)
    chis, kappas = _sweep_inputs(
        _parse_floats(args, "chis"), _parse_floats(args, "kappas"), len(cfg.delta_schedule)
    )
    table = integrability_sweep(continuation(cfg), chis, kappas)
    table.write_csv(_out(args, "sweep.csv"))
    _dump_json(table.to_dict(), _out(args, "sweep.json"))
    flags = {repr(k): v for k, v in [*table.chi_flags.items(), *table.kappa_flags.items()]}
    print(json.dumps(flags, sort_keys=True))


def _cmd_approx_demo(args) -> None:
    grid = _parse_grid(args.grid)
    pair = _pair(args)
    w = _candidate(grid, args.smooth_table, args.jump)
    u0 = _resolve_u0(args.u0, grid, args.notes) if args.u0 else None
    table = approximation_experiment(w, pair, _parse_floats(args, "widths"), u0=u0)
    table.write_csv(_out(args, "approx.csv"))
    _dump_json(table.to_dict(), _out(args, "approx.json"))
    summary = {key: getattr(table, key) for key in ("k_reference", "terminal_j_deviation")}
    print(json.dumps(summary, sort_keys=True))


def _cmd_conjugate_table(args) -> None:
    spec = density_from_id(args.density)
    s_max = _finite_float(args.s_max, "--s-max")
    if s_max <= 0.0:
        raise ValueError(f"--s-max must be positive, got {s_max}")
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    ss = np.linspace(-s_max, s_max, args.n)
    values = [float(spec.conjugate(s)) for s in ss]
    write_csv(_made(args.out) if args.out else sys.stdout, ["s", "conjugate"], [ss, values])


def _cmd_predict(args) -> None:
    pred = predict_integrability(args.p, args.gamma, mu=args.mu)
    print(json.dumps(pred.to_dict(), sort_keys=True))


def _cmd_relax_gap(args) -> None:
    cfg = _build_config(args)
    candidates = None  # default: the solver's own final iterate, lifted
    if args.candidate_table or args.jump:
        candidates = [_candidate(cfg.grid, args.candidate_table, args.jump)]
    result = relaxation_gap(candidates, cfg)
    print(json.dumps(result, sort_keys=True))
    if not result["contract_ok"]:
        raise RelaxationGapViolation(
            f"candidate energy undercuts the continuation limit by {-result['gap']}"
        )


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
    p.add_argument("--out-dir", default=".", type=_out_dir)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("dual-report", help="duality gap for the continuation output")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=None, type=_out_dir)
    p.set_defaults(func=_cmd_dual_report)

    p = sub.add_parser("sweep", help="interior integrability sweep over the schedule")
    _add_problem_args(p)
    p.add_argument("--out-dir", default=".", type=_out_dir)
    p.add_argument("--chis", required=True, help="comma list of exponents")
    p.add_argument("--kappas", default="", help="full-gradient exponents")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("approx-demo", help="jump smoothing experiment")
    _add_density_args(p)
    p.add_argument("--smooth-table", default=None, help="CSV for the smooth part")
    _add_jump_arg(p)
    p.add_argument("--u0", default=None, help="boundary data id (optional)")
    p.add_argument("--widths", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    p.add_argument("--out-dir", default=".", type=_out_dir)
    p.set_defaults(func=_cmd_approx_demo)

    p = sub.add_parser("conjugate-table", help="tabulate a convex conjugate")
    p.add_argument("--density", required=True, help="f1 or f2 density id")
    p.add_argument("--s-max", default=0.9, help="the table spans [-s_max, s_max]")
    p.add_argument("--n", type=int, default=33)
    p.add_argument("--out", default=None, type=_out_file)
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
    # a key names a flag of the running subcommand exactly, never a prefix of
    # it, nor a namespace entry that is no flag (func, config)
    dests = parser.commands[args.command].flag_dests
    unknown = [key for key, name, tok in flags if tok in extra or name not in dests]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    """Run one command; the one place that decides how the run ends."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        args.notes = []
        # a numpy overflow or invalid value is a numerical failure, not an
        # inf or nan in the output
        with np.errstate(over="raise", invalid="raise"):
            args.func(args)
    except (ContinuationContractError, WeakDualityViolation, RelaxationGapViolation) as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_CONTRACT)
    except (ValueError, OSError) as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_VALIDATION)
    except (ArithmeticError, MemoryError) as exc:
        return _emit_error(type(exc).__name__, str(exc), EXIT_SOLVER)
    for note in args.notes:
        print(json.dumps(note), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
