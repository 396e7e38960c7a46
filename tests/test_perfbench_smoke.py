"""Short traced runs of the benchmark harness.

On the Gaussian-kernel trials, the traced path patches the bound functions
that the method registry looks up, and replays the calls it recorded; the
run checks that it still sees them. On the exact oracles, the gate compares
every margin of the four reference rounds, the kl inversion's residual
margins among them, with the reference at 1e-12. Both runs must pass the
benchmark's correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_run(workload: str) -> dict:
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_gaussian_trials_run():
    result = traced_run("gaussian_trials")
    assert result["metrics"]["bounds.certificates.calls_per_s"]["value"] > 0


def test_traced_exact_oracles_run():
    result = traced_run("exact_oracles")
    assert result["metrics"]["bounds.kl_inverse_upper.calls_per_s"]["value"] > 0
