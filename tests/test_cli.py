import argparse
import json
import math
import os
import subprocess
import sys
import time
from importlib import resources

import jsonschema
import numpy as np
import pytest

import covest
from covest import __version__
from covest.cli import (
    MAX_GRID_SIZE,
    MAX_KMAX,
    MAX_PHASE_N,
    MAX_SCALING_N,
    MAX_SIMULATE_N,
    MAX_SU2_N,
    MAX_TRIALS,
    SCALING_HEADER,
    _build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def load_schema():
    path = resources.files("covest") / "schemas" / "run.schema.json"
    return json.loads(path.read_text())


def csv_lines(out):
    return [line for line in out.splitlines() if not line.startswith("#")]


def subprocess_env():
    """The environment with this source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(covest.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_subprocess(*argv, timeout):
    """`covest ARGV` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "covest.cli", *argv],
                          env=subprocess_env(), capture_output=True, text=True,
                          timeout=timeout)


def assert_usage_error(*argv):
    """A fresh `covest ARGV` stops with a usage error before doing any work."""
    start = time.perf_counter()
    proc = run_subprocess(*argv, timeout=60)
    assert proc.returncode == 1
    assert "covest: error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert time.perf_counter() - start < 10.0


class TestPhaseOpt:
    def test_exact(self, capsys):
        code, payload = run_json(capsys, "phase-opt", "--n", "2")
        assert code == 0
        assert payload["result"]["error"] == pytest.approx(0.146447, abs=1e-6)
        assert payload["manifest"]["version"] == __version__

    def test_bdm(self, capsys):
        code, payload = run_json(capsys, "phase-opt", "--n", "2", "--method", "bdm")
        assert code == 0
        assert payload["result"]["error"] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_bdm_rejects_n0(self, capsys):
        code = main(["phase-opt", "--n", "0", "--method", "bdm"])
        assert code == 1

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["phase-opt", "--n", "2", "--method", "sideways"])
        assert exc.value.code == 1

    def test_n_above_limit_is_usage_error(self):
        assert_usage_error("phase-opt", "--n", str(MAX_PHASE_N + 1))

    def test_large_n_runs_quickly(self):
        start = time.perf_counter()
        proc = run_subprocess("phase-opt", "--n", "5000", timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        result = json.loads(proc.stdout)["result"]
        assert len(result["amplitudes"]) == 5001
        assert abs(result["error"] - 0.5 * (1.0 - math.cos(math.pi / 5002))) <= 1e-15


class TestSu2Design:
    def test_external_n3(self, capsys):
        code, payload = run_json(capsys, "su2-design", "--n", "3")
        assert code == 0
        assert payload["result"]["error"] == pytest.approx(0.25, abs=1e-12)
        dims = [b["dim"] for b in payload["result"]["blocks"]]
        assert dims == [2, 4]

    def test_self_entangled_n1_infeasible(self, capsys):
        code = main(["su2-design", "--n", "1", "--mode", "self-entangled"])
        assert code == 1

    def test_n_above_limit_is_usage_error(self):
        assert_usage_error("su2-design", "--n", str(MAX_SU2_N + 1))

    @pytest.mark.parametrize("mode", ["external", "self-entangled"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_blocks_and_feasibility_from_binomials(self, capsys, mode, n):
        code, out = run_cli(capsys, "su2-design", "--n", str(n), "--mode", mode)
        if mode == "self-entangled" and n == 1:
            assert code == 1 and out == ""  # no block can host the reference
            return
        assert code == 0
        payload = json.loads(out)
        # dims 1 + n % 2, ..., n + 1; the block of dim n + 1 - 2i has C(n, i) - C(n, i - 1)
        spectrum = [(n + 1 - 2 * i, math.comb(n, i) - (math.comb(n, i - 1) if i else 0))
                    for i in range(n // 2, -1, -1)]
        usable = [dim for dim, mult in spectrum if mult >= dim]
        top = n + 1 if mode == "external" else n - 1
        raw = [math.sin(math.pi * dim / (top + 2)) if dim <= top else 0.0
               for dim, _ in spectrum]
        norm = math.sqrt(sum(a * a for a in raw))
        result = payload["result"]
        blocks = result["blocks"]
        assert [(b["dim"], b["multiplicity"], b["feasible"]) for b in blocks] == [
            (dim, mult, mult >= dim) for dim, mult in spectrum]
        for b, a in zip(blocks, raw):
            assert b["amplitude"] == pytest.approx(a / norm, abs=1e-12)
        assert result["error"] == pytest.approx(math.sin(math.pi / (top + 2)) ** 2,
                                                abs=1e-15)
        assert result["feasibility"]["usable_dims"] == usable
        achievable = math.sin(math.pi / (max(usable) + 2)) ** 2 if usable else None
        assert result["feasibility"]["achievable_error"] == achievable

    def test_external_n999_scaling(self, capsys):
        code, payload = run_json(capsys, "su2-design", "--n", "999")
        assert code == 0
        ratio = payload["result"]["error"] * 999**2 / math.pi**2
        assert 0.95 <= ratio <= 1.05


class TestVerifyIntegrals:
    def test_small_table_passes(self, capsys):
        code, payload = run_json(capsys, "verify-integrals", "--kmax", "5")
        assert code == 0
        assert all(row["pass"] for row in payload["result"]["identities"])

    def test_kmax_above_limit_is_usage_error(self):
        assert_usage_error("verify-integrals", "--kmax", str(MAX_KMAX + 1))

    def test_limit_runs_cold_within_1e_12(self):
        start = time.perf_counter()
        proc = run_subprocess("verify-integrals", "--kmax", str(MAX_KMAX), timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        rows = json.loads(proc.stdout)["result"]["identities"]
        assert len(rows) == 4
        assert all(row["worst_abs_deviation"] <= 1e-12 for row in rows)

    def test_wrong_character_fails(self, capsys, monkeypatch):
        character = covest.integrals.character
        monkeypatch.setattr(
            covest.integrals, "character",
            lambda j, theta: character(j, theta) + np.cos((j + 1) * theta / 2.0),
        )
        code, payload = run_json(capsys, "verify-integrals", "--kmax", "5")
        assert code == 2
        assert not payload["result"]["pass"]
        verdicts = {row["identity"]: row["pass"] for row in payload["result"]["identities"]}
        assert verdicts == {
            "single-irrep integral": False,
            "su2 character kernel": False,
            "u1 phase kernel": True,
            "kernel equivalence": False,
        }

    def test_impossible_tolerance_fails(self, capsys):
        code, payload = run_json(
            capsys, "verify-integrals", "--kmax", "3", "--tol", "1e-16"
        )
        assert code == 2
        assert not payload["result"]["pass"]


class TestSimulateCommand:
    def test_deterministic_report(self, capsys):
        args = ["simulate", "--protocol", "phase", "--n", "7",
                "--trials", "20000", "--seed", "42"]
        code1, payload1 = run_json(capsys, *args)
        code2, payload2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        del payload1["manifest"]["timestamp"], payload2["manifest"]["timestamp"]
        assert payload1 == payload2

    def test_su2_run_passes(self, capsys):
        code, payload = run_json(
            capsys, "simulate", "--protocol", "su2", "--n", "5", "--trials", "50000"
        )
        assert code == 0
        assert abs(payload["result"]["z_score"]) < 4.0
        result = payload["result"]
        assert abs(result["law_bias"]) < result["standard_error"] / 10.0

    def test_zero_trials_rejected(self, capsys):
        code = main(["simulate", "--protocol", "phase", "--n", "1", "--trials", "0"])
        assert code == 1

    @pytest.mark.parametrize("protocol", ["phase", "su2"])
    def test_n_above_limit_is_usage_error(self, protocol):
        assert_usage_error("simulate", "--protocol", protocol,
                           "--n", str(MAX_SIMULATE_N + 1), "--trials", "1000")

    def test_grid_size_above_limit_is_usage_error(self):
        assert_usage_error("simulate", "--protocol", "phase", "--n", "1", "--trials", "10",
                           "--grid-size", str(2 * MAX_GRID_SIZE))

    def test_trials_above_limit_is_usage_error(self):
        assert_usage_error("simulate", "--protocol", "su2", "--n", "5",
                           "--trials", str(MAX_TRIALS + 1))

    def test_workers_option_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--protocol", "phase", "--n", "1", "--workers", "2"])
        assert exc.value.code == 1

    def test_manifest_parameters(self, capsys):
        _, payload = run_json(capsys, "simulate", "--protocol", "phase", "--n", "1",
                              "--trials", "100")
        assert set(payload["manifest"]["parameters"]) == {
            "protocol", "n", "trials", "grid_size", "format"}

    def test_even_n_su2_passes(self, capsys):
        for n in ("4", "6"):
            code, payload = run_json(
                capsys, "simulate", "--protocol", "su2", "--n", n, "--trials", "100000"
            )
            assert code == 0
            assert abs(payload["result"]["z_score"]) < 4.0


# The benchmark's simulate operations at reduced trials, one fixed seed each,
# with the result fields the one-stream sampler printed for them: any drift
# in a seeded bit fails here.
PINNED_RUNS = {
    ("phase", 10, 200_001, 91): (
        0.016943595791444648, 8.324410322475995e-05, 0.017037086855465844,
        -1.1230953352788107, 1.8940974585643366e-07),
    ("su2", 5, 200_001, 92): (
        0.14625742955985893, 0.00027832339619156385, 0.14644660940672624,
        -0.679712339874948, 1.386575575745841e-07),
    ("su2", 601, 100_000, 93): (
        2.731939093850754e-05, 4.419524884439523e-07, 2.7053406096413445e-05,
        0.6018403539950347, 1.9608078578849258e-07),
}


class TestPinnedSimulateBits:
    @staticmethod
    def argv(protocol, n, trials, seed):
        return ["simulate", "--protocol", protocol, "--n", str(n),
                "--trials", str(trials), "--seed", str(seed)]

    @pytest.mark.parametrize("run", list(PINNED_RUNS))
    def test_json_result(self, capsys, run):
        mean, se, closed, z, law_bias = PINNED_RUNS[run]
        code, payload = run_json(capsys, *self.argv(*run))
        assert code == 0
        assert payload["result"] == {
            "empirical_mean_error": mean, "standard_error": se, "closed_form": closed,
            "z_score": z, "law_bias": law_bias, "pass": True}

    @pytest.mark.parametrize("run", list(PINNED_RUNS))
    def test_csv_row(self, capsys, run):
        protocol, n, trials, _ = run
        fields = ",".join(map(repr, PINNED_RUNS[run][:4]))
        code, out = run_cli(capsys, *self.argv(*run), "--format", "csv")
        assert code == 0
        assert csv_lines(out)[1] == f"{protocol},{n},{trials},{fields},True"


class TestScaling:
    def test_csv_header_exact(self, capsys):
        code, out = run_cli(capsys, "scaling", "--max-n", "10", "--format", "csv")
        assert code == 0
        lines = csv_lines(out)
        assert lines[0] == SCALING_HEADER
        assert len(lines) == 11  # header + 10 rows

    def test_exact_errors_monotone(self, capsys):
        code, payload = run_json(capsys, "scaling", "--max-n", "10")
        rows = payload["result"]["rows"]
        exact = [row["phase_exact"] for row in rows]
        assert exact == sorted(exact, reverse=True)

    def test_max_n_above_limit_is_usage_error(self):
        assert_usage_error("scaling", "--max-n", str(MAX_SCALING_N + 1))

    def test_large_n_ratios(self, capsys):
        code, payload = run_json(
            capsys, "scaling", "--max-n", "1000", "--step", "500"
        )
        last = payload["result"]["rows"][-1]
        assert last["phase_exact"] / last["phase_asymptote"] == pytest.approx(
            1.0, rel=0.05
        )
        assert last["su2_error"] / last["su2_asymptote"] == pytest.approx(
            1.0, rel=0.05
        )


class TestOutputContracts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["phase-opt", "--n", "3"],
            ["su2-design", "--n", "5", "--mode", "self-entangled"],
            ["verify-integrals", "--kmax", "2"],
            ["scaling", "--max-n", "4"],
            ["simulate", "--protocol", "phase", "--n", "2", "--trials", "5000"],
        ],
    )
    def test_json_validates_against_schema(self, capsys, argv):
        _, payload = run_json(capsys, *argv)
        jsonschema.validate(payload, load_schema())

    @pytest.mark.parametrize("argv", [
        ["phase-opt", "--n", "3"],
        ["su2-design", "--n", "3"],
        ["verify-integrals", "--kmax", "2"],
        ["simulate", "--protocol", "phase", "--n", "2", "--trials", "100"],
        ["scaling", "--max-n", "4"],
    ])
    def test_manifest_parameters_are_parser_options(self, capsys, argv):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = [a.option_strings[0] for a in subparsers.choices[argv[0]]._actions
                   if a.option_strings[0] not in ("-h", "--output", "--seed")]
        _, payload = run_json(capsys, *argv)
        keys = list(payload["manifest"]["parameters"])
        assert ["--" + k.replace("_", "-") for k in keys] == options

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COVEST_OUTPUT_DIR", str(tmp_path))
        code = main(["phase-opt", "--n", "1", "--output", "report.json"])
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["result"]["error"] == pytest.approx(0.25, abs=1e-12)

    def test_csv_carries_manifest_comments(self, capsys):
        _, out = run_cli(capsys, "phase-opt", "--n", "1", "--format", "csv")
        assert "# command=phase-opt" in out
        assert f"# version={__version__}" in out

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv", [["su2-design", "--n", "3"], ["scaling", "--max-n", "4"]]
    )
    def test_deterministic_commands_take_no_seed(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 1

    def test_cli_import_loads_no_scipy(self):
        probe = ("import sys, covest.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"
