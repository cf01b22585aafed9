"""Benchmark of the splitvar solver and its certificates.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload smooth|jump --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # both workloads at a tiny size
    python3 perfbench/run.py --self-test    # every check rejects a bad result

A measured run starts one workload process at a time from the checkout's
``src`` (nothing is installed or built), single-threaded, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
the metrics.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The full record of the run, every operation's time and,
when traced, its spans, goes to ``perfbench/results/``.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join("perfbench", "results")
WORKLOADS = ("smooth", "jump")
SETUP_SAMPLES = 3  # the measured process plus two set-up-only ones
DEADLINE_S = 170.0  # the whole run, set-ups included


class RunError(RuntimeError):
    """A workload process failed, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def start_worker(args, timeout_s: float, size="full", setup_only=False, trace=None):
    """Run one workload process; returns (setup_s, result or None).

    ``setup_s`` runs from the process start to its READY line: interpreter
    start, imports, inputs, the affine oracle and the first operation.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace if trace is None else trace),
        "--size", size,
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    watchdog = threading.Timer(max(timeout_s, 1.0), proc.kill)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (result is None and not setup_only):
        raise RunError(f"{args.workload} process exited with {code} (set-up done: {setup_s is not None})")
    return setup_s, result


def median_of(ops, key):
    vals = [key(op) for op in ops]
    return statistics.median(vals) if vals else 0.0


def layer_metrics(ops) -> dict:
    """Per-operation layer figures of the traced operations, as medians."""
    traced = [op for op in ops if op["traced"] and not op["failed"]]
    plain = [op for op in ops if not op["traced"] and not op["failed"]]

    def self_s(*names):
        return lambda op: sum(op["layers"].get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return lambda op: op["layers"].get(name, (0, 0.0, 0.0))[0]

    def counter(name, scale=1.0):
        return lambda op: op["counters"].get(name, 0.0) * scale

    def per(num, den):
        return lambda op: num(op) / den(op) if den(op) else 0.0

    level_incl = lambda op: op["layers"].get("solve.minimize_J_delta", (0, 0.0, 0.0))[1]
    steps = counter("solve.newton_steps")
    table = [
        ("kernels.hessvec_calls", "count", calls("kernels.hessvec")),
        ("kernels.hessvec_s", "s", self_s("kernels.hessvec")),
        ("kernels.hessvec_mb", "MB", counter("kernels.hessvec_bytes", 1e-6)),
        ("kernels.other_s", "s", self_s("kernels.cell_gradient", "kernels.scatter_adjoint",
                                        "kernels.scatter_diag")),
        ("solve.newton_steps", "count", steps),
        ("solve.levels", "count", calls("solve.minimize_J_delta")),
        ("solve.level_s", "s", per(level_incl, calls("solve.minimize_J_delta"))),
        ("solve.cg_per_step", "count", per(counter("solve.hessvec_calls"), steps)),
        ("solve.energy_evals", "count", counter("solve.energy_evals")),
        ("solve.self_s", "s", self_s("solve.continuation", "solve.minimize_J_delta")),
        ("densities.eval_s", "s", self_s("densities.eval")),
        ("densities.conjugate_s", "s", self_s("densities.conjugate")),
        ("densities.conjugate_points", "count", counter("densities.conjugate_points")),
        ("duality.gap_s", "s", self_s("duality.duality_gap")),
        ("energy.eval_K_s", "s", self_s("energy.eval_K")),
        ("diagnostics.sweep_s", "s", self_s("diagnostics.integrability_sweep")),
        ("diagnostics.approx_s", "s", self_s("diagnostics.approximation_experiment")),
        ("grid.io_s", "s", self_s("grid.io")),
        ("grid.io_bytes", "bytes", counter("grid.io_bytes")),
        ("bench.checks_s", "s", lambda op: op["layers"].get("bench.checks", (0, 0.0, 0.0))[1]),
    ]
    out = {name: {"value": median_of(traced, fn), "unit": unit} for name, unit, fn in table}
    op_traced = median_of(traced, lambda op: op["wall_s"])
    op_plain = median_of(plain, lambda op: op["wall_s"])
    out["trace.op_s"] = {"value": op_traced, "unit": "s"}
    out["trace.overhead_pct"] = {"value": 100.0 * (op_traced / op_plain - 1.0), "unit": "%"}
    return out


def measure(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(start_worker(args, deadline - time.perf_counter(), setup_only=True)[0])
    setup_s, result = start_worker(args, deadline - time.perf_counter())
    setups.append(setup_s)
    ops = result["ops"]
    done = [op for op in ops if not op["failed"]]
    summary = {
        "correct": all(op["wrong"] is None for op in done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
    }
    if args.trace:
        metrics = layer_metrics(ops)
    else:
        metrics = {
            "op_s": {"value": median_of(done, lambda op: op["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    summary["metrics"] = metrics
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "setup_samples_s": setups, **summary, "ops": ops}, fh)
    return summary


def smoke(args) -> int:
    """Every workload at a tiny size, one untraced and one traced operation."""
    ok = True
    for name in WORKLOADS:
        args.workload = name
        t0 = time.perf_counter()
        _, result = start_worker(args, DEADLINE_S, size="smoke", trace=1)
        ops = result["ops"]
        bad = [op["failed"] or op["wrong"] for op in ops if op["failed"] or op["wrong"]]
        ok = ok and not bad
        status = "ok" if not bad else "FAIL " + "; ".join(bad)
        print(f"smoke {name}: {len(ops)} operations in {time.perf_counter() - t0:.2f} s, {status}")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "splitvar", "__init__.py")):
        print("run from the root of a splitvar checkout: src/splitvar is missing", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "selftest.py")], env=child_env(),
                timeout=DEADLINE_S,
            ).returncode
        if args.smoke:
            args.seconds = 0.0
            return smoke(args)
        if args.workload is None:
            ap.error("--workload is required for a measured run")
        summary = measure(args)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
