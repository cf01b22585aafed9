"""One workload process: set up, run operations for a fixed time, report.

Started by ``run.py`` with ``PYTHONPATH=src`` and one thread per native
library.  Prints ``READY`` once set-up (imports, inputs, the affine oracle
and one untimed operation) is done, then, unless ``--setup-only``, one
``RESULT <json>`` line with every operation's wall time and, when traced,
its layer aggregates.  With ``--trace 1`` operations alternate between
untraced and traced, so the traced run measures its own overhead.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np

    import splitvar

    src = os.path.realpath(os.path.join("src", "splitvar"))
    if os.path.dirname(os.path.realpath(splitvar.__file__)) != src:
        print(f"splitvar imported from {splitvar.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Layers, Tracer

    layers = Layers(Tracer())
    n = workloads.SIZES[args.workload][args.size]
    workloads.affine_oracle(layers)
    wl = workloads.WORKLOADS[args.workload](layers, n, args.seed)
    try:
        wl.op(np.random.default_rng([args.seed, 0]))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        ops = run_ops(wl, layers, args)
    finally:
        wl.close()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("RESULT " + json.dumps({"ops": ops, "peak_rss_kib": rss_kib}), flush=True)
    return 0


def run_ops(wl, layers, args) -> list:
    """Operations 1, 2, ... until ``--seconds`` have passed (at least one
    operation, or one of each kind when traced)."""
    import numpy as np

    import checks

    tracer = layers.tracer
    ops = []
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < args.seconds or len(ops) < 1 + args.trace:
        traced = bool(args.trace) and index % 2 == 0
        rng = np.random.default_rng([args.seed, index])
        tracer.begin_op()
        entry = {"index": index, "traced": traced, "failed": None, "wrong": None}
        with layers.traced() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                wl.op(rng)
            except checks.CheckFailed as exc:
                entry["wrong"] = str(exc)
            except Exception as exc:  # an operation that raises counts as failed
                entry["failed"] = f"{type(exc).__name__}: {exc}"
            entry["wall_s"] = time.perf_counter() - t0
            entry["cpu_s"] = time.process_time() - c0
        if traced:
            entry["layers"] = {k: list(v) for k, v in tracer.totals.items()}
            entry["counters"] = dict(tracer.counters)
            entry["spans"] = tracer.spans
        ops.append(entry)
        index += 1
    return ops


if __name__ == "__main__":
    sys.exit(main())
