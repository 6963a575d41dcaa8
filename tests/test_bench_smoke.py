"""Smoke test of the benchmark: one quick design-large run must pass its checks.

The run exercises the benchmark's independent checks (closed-form phase
errors and profiles, the even-n sandwich bracket, binomial multiplicities)
on cold-process CLI runs, so the benchmark cannot rot unnoticed.
"""

import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_design_large_quick_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "design-large",
         "--seed", "1", "--seconds", "0", "--quick"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0, proc.stderr
