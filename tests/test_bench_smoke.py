"""Smoke test of the benchmark: a quick run of each workload must pass its checks.

The runs exercise the benchmark's independent checks (closed-form phase
errors and profiles, the even-n sandwich bracket, binomial multiplicities,
the z-gate against an independently computed error, the Haar irrep
identities) on cold-process CLI runs, so the benchmark cannot rot
unnoticed.  Traced runs wrap every public function of the package, so they
also catch code that relies on a public function being the package's own
object.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["design-large", "small-n", "mc-large-n"])
def test_quick_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--quick", "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0, proc.stderr
