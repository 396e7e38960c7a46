"""A short traced run of the benchmark harness on the Gaussian-kernel trials.

The traced path patches the bound functions that the method registry looks
up, and replays the calls it recorded; this run checks that it still sees
them and that the benchmark's correctness gate passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_gaussian_trials_run():
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "gaussian_trials",
         "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["bounds.certificates.calls_per_s"]["value"] > 0
