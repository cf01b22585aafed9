"""Self-test of the benchmark's checks: each must reject a perturbed result.

Computes one real result per workload at the smoke size, confirms that it
passes, then feeds each check a copy with one defect and confirms that the
check raises.  Run through ``python3 perfbench/run.py --self-test``; exits
non-zero if a clean result fails or a perturbed one passes.
"""

import copy
import sys

import numpy as np

import checks
import workloads
from tracer import Layers, Tracer


def shift(x: float, rel: float = 1e-8) -> float:
    return x + rel * abs(x)


def flip_byte(data: bytes) -> bytes:
    out = bytearray(data)
    out[len(out) // 2] ^= 0x01
    return bytes(out)


def set_level(key, value_fn, index=-1):
    def mutate(res):
        res["levels"][index][key] = value_fn(res["levels"][index])

    return mutate


def set_key(key, value_fn):
    def mutate(res):
        res[key] = value_fn(res)

    return mutate


def lift_all_levels(amount):
    """Every level's J raised alike: the schedule checks cannot see it."""

    def mutate(res):
        for level in res["levels"]:
            level["j"] += amount

    return mutate


def broken_upper(res):
    """J' pushed just below the bound J - J' <= delta (I' - I)."""
    a, b = res["levels"][-2], res["levels"][-1]
    b["j"] = a["j"] - a["delta"] * (b["i_reg"] - a["i_reg"]) - 1e-6 * abs(a["j"])


def broken_lower(res):
    """I' shrunk so that delta' (I' - I) exceeds the observed drop."""
    a, b = res["levels"][-2], res["levels"][-1]
    b["i_reg"] = a["i_reg"] + (a["j"] - b["j"]) / b["delta"] * 1.01 + 1.0


def flip_round_trip(index):
    def mutate(res):
        label, before, after = res["round_trips"][index]
        res["round_trips"][index] = (label, before, flip_byte(after))

    return mutate


def approx_field(index, fn):
    def mutate(res):
        rows = list(res["approx"])
        rows[index] = fn(rows[index])
        res["approx"] = tuple(rows)

    return mutate


SOLVER_CASES = [
    ("unconverged level", set_level("converged", lambda v: False, 0)),
    ("flagged level", set_level("flags", lambda v: ("iteration_cap_exceeded",), 1)),
    ("J increases along the schedule", set_level("j", lambda v: v["j"] + 1e-3)),
    ("broken upper inequality", broken_upper),
    ("broken lower inequality", broken_lower),
    ("a probe below the minimum", set_key("probes", lambda r: r["probes"] + [r["j_delta"] - 1e-9])),
]
CASES = {
    "smooth": [
        *SOLVER_CASES,
        ("J shifted by 1e-8|J| breaks K(lift)=J", set_level("j", lambda v: shift(v["j"]))),
        ("K(lift) shifted by 1e-8|K|", set_key("k_lift", lambda r: shift(r["k_lift"]))),
        ("sweep integral shifted by 1e-9",
         set_key("sweep", lambda r: {k: [shift(x, 1e-9) for x in v] for k, v in r["sweep"].items()})),
    ],
    "jump": [
        *SOLVER_CASES,
        ("R above J", set_key("dual_r", lambda r: r["dual_j"] + 1e-6 * abs(r["dual_j"]))),
        ("stress not certified", set_key("certified", lambda r: False)),
        ("K(unit jump) shifted by 1e-8", set_key("k_jump", lambda r: shift(r["k_jump"]))),
        ("J_final above K(unit jump)", lift_all_levels(2.0)),
        ("L1 distance shifted by 1e-8", approx_field(1, lambda v: [shift(x) for x in v])),
        ("smoothed J not monotone", approx_field(2, lambda v: list(reversed(v)))),
        ("conjugate shifted by 1e-8",
         set_key("conj", lambda r: r["conj"] + 1e-8 * (1.0 + np.abs(r["conj"])))),
        *[(f"flipped byte in the {lbl} round trip", flip_round_trip(i))
          for i, lbl in enumerate(("CSV values", "CSV file", "VSGF values", "VSGF file"))],
    ],
}


def rejection(check, res, mutate):
    """The message of the check that rejects the mutated result, or None."""
    bad = copy.deepcopy(res)
    mutate(bad)
    try:
        check(bad)
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def main() -> int:
    layers = Layers(Tracer())
    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    try:
        checks.affine_oracle(shift(checks.AFFINE_J), 0.0)
        report(False, "affine oracle accepts J shifted by 1e-8|J|")
    except checks.CheckFailed:
        report(True, "affine oracle rejects J shifted by 1e-8|J|")
    workloads.affine_oracle(layers)
    report(True, "affine oracle accepts the solved affine data")

    for name, cases in CASES.items():
        wl = workloads.WORKLOADS[name](layers, workloads.SIZES[name]["smoke"], 0)
        try:
            res = wl.compute(np.random.default_rng([0, 1]))
            try:
                wl.check(res)
                report(True, f"{name}: clean result passes")
            except checks.CheckFailed as exc:
                report(False, f"{name}: clean result fails: {exc}")
            for label, mutate in cases:
                msg = rejection(wl.check, res, mutate)
                report(msg is not None, f"{name}: rejects {label}: {msg}")
        finally:
            wl.close()
    print(f"{failures} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
