"""The benchmark's own checks, run as part of the test suite.

``perfbench/run.py --smoke`` runs both workloads at a tiny size and checks
every result; ``--self-test`` feeds each check a perturbed result and
expects a rejection.  A solver change that breaks a benchmark check then
fails here as well.  Both take about a second.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(flag):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), flag],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_perfbench_smoke_passes():
    out = run_bench("--smoke")
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [line for line in out.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 2 and all(line.endswith(", ok") for line in lines), out.stdout


def test_perfbench_self_test_passes():
    out = run_bench("--self-test")
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "0 self-test failure(s)"
