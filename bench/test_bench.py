"""The benchmark's own test: every workload end to end at tiny sizes, and
every independent check rejecting a deliberately perturbed output.

    python3 -m pytest bench/test_bench.py -q
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from covest import cli, su2  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_workload_runs_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1) * len(
        run.operations(workload, 5, 0, quick=True))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        # Layer self times account for the traced compute time.
        assert abs(result["metrics"]["trace.unattributed_s"]["value"]) < 0.05
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "small-n", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def cli_result(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return json.loads(out.getvalue())["result"]


def perturbed(result, path, change):
    """A deep copy of `result` with the value at `path` replaced by change(value)."""
    bad = copy.deepcopy(result)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return bad


def bump(rel):
    return lambda v: v * (1.0 + rel)


CASES = [
    ("phase-opt", {"n": 12}, [
        (("error",), bump(1e-6)),
        (("amplitudes", 3), bump(1e-6)),
        (("amplitudes",), lambda a: a[1:] + a[:1]),
    ]),
    ("phase-opt", {"n": 12, "method": "bdm"}, [
        (("error",), bump(1e-6)),
        (("amplitudes", 0), bump(1e-6)),
    ]),
    ("su2-design", {"n": 11}, [
        (("error",), bump(1e-6)),
        (("blocks", 2, "multiplicity"), lambda m: m + 1),
        (("blocks", 0, "feasible"), lambda f: not f),
        (("feasibility", "achievable_error"), bump(1e-6)),
    ]),
    ("su2-design", {"n": 12}, [
        (("error",), lambda e: checks.optimal_phase_error(12 // 2 - 1) * 1.001),
        (("error",), lambda e: checks.optimal_phase_error(12 // 2) * 0.999),
        (("blocks", 1, "amplitude"), bump(1e-3)),
    ]),
    ("su2-design", {"n": 12, "mode": "self-entangled"}, [
        (("feasibility", "usable_dims"), lambda u: u + [13]),
        (("error",), lambda e: 0.0),
    ]),
    ("scaling", {"max_n": 6}, [
        (("rows", 3, "phase_exact"), bump(1e-6)),
        (("rows", 2, "phase_bdm"), bump(1e-6)),
        (("rows", 5, "su2_error"), lambda e: checks.optimal_phase_error(1) * 1.01),
        (("rows", 4, "su2_error"), bump(1e-6)),
        (("rows", 1, "su2_asymptote"), bump(1e-6)),
    ]),
    ("verify-integrals", {"kmax": 4}, [
        (("identities", 1, "worst_abs_deviation"), lambda d: 1e-9),
        (("pass",), lambda p: False),
    ]),
    ("simulate", {"protocol": "su2", "n": 5, "trials": 20000, "seed": 3}, [
        (("empirical_mean_error",), lambda m: checks.simulate_target("su2", 5) + 0.01),
        (("closed_form",), bump(1e-6)),
        (("pass",), lambda p: not p),
    ]),
]


@pytest.mark.parametrize("command,params,perturbations", CASES,
                         ids=[f"{c}-{'-'.join(map(str, p.values()))}" for c, p, _ in CASES])
def test_checks_accept_the_program_and_reject_perturbations(command, params, perturbations):
    op = run.cli(command, **params)
    result = cli_result(*op["child"]["argv"])
    check = checks.CHECKS[command]
    assert check(params, result) == []
    for path, change in perturbations:
        assert check(params, perturbed(result, path, change)), path


def test_haar_check_rejects_perturbed_irreps():
    m = su2.haar_matrices(np.random.default_rng(2), 300)
    theta = 2.0 * np.arccos(np.clip((m[:, 0, 0] + m[:, 1, 1]).real / 2.0, -1.0, 1.0))
    j = 4
    irreps, chars = su2.irrep_matrix_batch(j, m), su2.character(j, theta)
    good = {"deviations": [checks.haar_deviations(j, m, irreps, chars)]}
    assert checks.check_haar({"js": [j]}, good) == []
    assert checks.check_haar({"js": [j, j + 1]}, good)  # a batch went unchecked
    phased = irreps.copy()
    phased[7] *= np.exp(0.1j)  # still unitary, wrong trace
    scaled = irreps.copy()
    scaled[9] *= 1.0 + 1e-6  # trace nearly right, not unitary
    wrong_chars = chars.copy()
    wrong_chars[5] += 1e-6
    for v, c in ((phased, chars), (scaled, chars), (irreps, wrong_chars)):
        bad = {"deviations": [checks.haar_deviations(j, m, v, c)]}
        assert checks.check_haar({"js": [j]}, bad)


def test_only_a_pure_z_gate_failure_is_the_known_fault():
    op = run.cli("simulate", protocol="phase", n=40, trials=20000, seed=1, known_fault=True)
    result = cli_result(*op["child"]["argv"])
    far = perturbed(result, ("empirical_mean_error",), lambda m: m * 2)
    assert run.is_known_fault(op, checks.check_simulate(op["params"], far))
    both = perturbed(far, ("closed_form",), bump(1e-3))
    assert not run.is_known_fault(op, checks.check_simulate(op["params"], both))
    other = run.cli("simulate", protocol="phase", n=40, trials=20000, seed=1)
    assert not run.is_known_fault(other, checks.check_simulate(other["params"], far))
