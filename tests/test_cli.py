import argparse
import csv
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import covest
from covest import __version__, cli
from covest.cli import (
    LAW_GAP_TOL,
    MAX_KMAX,
    MAX_PHASE_N,
    MAX_SCALING_N,
    MAX_SIMULATE_N,
    MAX_SU2_N,
    MAX_TRIALS,
    _build_parser,
    main,
)
from covest.phase import PhaseDesign, bdm_input, min_covariant_error, optimal_input
from covest.su2_design import Su2Design, design_optimal


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
    return proc


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
        closed_form = math.sin(math.pi / 10004) ** 2
        assert abs(result["error"] - closed_form) <= 1e-15 * closed_form


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
    @pytest.mark.parametrize("n", [*range(1, 13), 999, 1000, 1999, 2000])
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

    @pytest.mark.parametrize("mode", ["external", "self-entangled"])
    def test_at_the_limit(self, capsys, mode):
        n = MAX_SU2_N  # one qubit more is a usage error, checked last
        assert n == 10_000
        code, payload = run_json(capsys, "su2-design", "--n", str(n), "--mode", mode)
        assert code == 0
        blocks = payload["result"]["blocks"]
        assert [b["dim"] for b in blocks] == list(range(1, n + 2, 2))
        for b in (blocks[0], blocks[len(blocks) // 2], blocks[-1]):
            i = (n + 1 - b["dim"]) // 2
            assert b["multiplicity"] == math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
        assert sum(b["dim"] * b["multiplicity"] for b in blocks) == 2**n
        assert [b["feasible"] for b in blocks] == [b["dim"] <= n - 1 for b in blocks]
        assert main(["su2-design", "--n", str(n + 1), "--mode", mode]) == 1

    def test_external_n999_scaling(self, capsys):
        code, payload = run_json(capsys, "su2-design", "--n", "999")
        assert code == 0
        ratio = payload["result"]["error"] * 999**2 / math.pi**2
        assert 0.95 <= ratio <= 1.05

    def test_builds_one_design(self, capsys, monkeypatch):
        """The external design's achievable error is the self-entangled
        optimum's closed form; no second design is built to read it."""
        built = []
        check = Su2Design.__post_init__
        monkeypatch.setattr(Su2Design, "__post_init__",
                            lambda self: built.append(self) or check(self))
        code, payload = run_json(capsys, "su2-design", "--n", "40")
        assert code == 0 and len(built) == 1
        assert payload["result"]["feasibility"]["achievable_error"] == design_optimal(
            40, "self-entangled").error


class TestVerifyIntegrals:
    def test_small_table_passes(self, capsys):
        code, payload = run_json(capsys, "verify-integrals", "--kmax", "5")
        assert code == 0
        assert all(row["pass"] for row in payload["result"]["identities"])

    def test_kmax_above_limit_is_usage_error(self):
        assert_usage_error("verify-integrals", "--kmax", str(MAX_KMAX + 1))

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_not_positive_finite_is_usage_error(self, tol):
        assert_usage_error("verify-integrals", "--kmax", "3", "--tol", tol)

    def test_limit_runs_cold_within_1e_12(self):
        start = time.perf_counter()
        proc = run_subprocess("verify-integrals", "--kmax", str(MAX_KMAX), timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 10.0
        rows = json.loads(proc.stdout)["result"]["identities"]
        assert len(rows) == 4
        # the real tables read at most 1.2e-14 here
        assert all(row["worst_abs_deviation"] <= 3e-14 for row in rows)

    def test_wrong_character_fails(self, capsys, monkeypatch):
        """chi^j + cos((j+1) theta/2) in place of every character chi^j, that
        is sin(theta/2) cos((j+1) theta/2) added to every sine row."""
        rows = covest.integrals._sine_rows
        monkeypatch.setattr(
            covest.integrals, "_sine_rows",
            lambda dims, theta: rows(dims, theta) + np.sin(theta / 2.0)
            * np.cos(np.multiply.outer(np.add(dims, 1), theta) / 2.0),
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

    def test_phase_table_without_sines_fails(self, capsys, monkeypatch):
        """The cosine half alone integrates cos(k theta) cos(l theta), which
        adds the (k+l) kernel to the (k-l) one.  (A sign flip of the sine half
        would cancel in the product and pass.)"""
        rows = covest.integrals._phase_rows

        def cosines_only(levels, theta):
            table = rows(levels, theta)
            table[:, theta.size:] = 0.0
            return table

        monkeypatch.setattr(covest.integrals, "_phase_rows", cosines_only)
        code, payload = run_json(capsys, "verify-integrals", "--kmax", "5")
        assert code == 2
        assert not payload["result"]["pass"]
        verdicts = {row["identity"]: row["pass"] for row in payload["result"]["identities"]}
        assert verdicts == {
            "single-irrep integral": True,
            "su2 character kernel": True,
            "u1 phase kernel": False,
            "kernel equivalence": False,
        }

    def test_impossible_tolerance_fails(self, capsys):
        code, payload = run_json(
            capsys, "verify-integrals", "--kmax", "3", "--tol", "1e-16"
        )
        assert code == 2
        assert not payload["result"]["pass"]
        assert not any(row["pass"] for row in payload["result"]["identities"])


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
        assert abs(payload["result"]["law_gap"]) <= LAW_GAP_TOL

    def test_zero_trials_rejected(self, capsys):
        code = main(["simulate", "--protocol", "phase", "--n", "1", "--trials", "0"])
        assert code == 1

    @pytest.mark.parametrize("protocol", ["phase", "su2"])
    def test_n_above_limit_is_usage_error(self, protocol):
        assert_usage_error("simulate", "--protocol", protocol,
                           "--n", str(MAX_SIMULATE_N + 1), "--trials", "1000")

    def test_largest_law_at_most_trials_passes(self, capsys):
        """Phase n = 10^5 at the most trials runs on the fixed grid and passes;
        a grid sized from the law once made it a usage error."""
        code, payload = run_json(capsys, "simulate", "--protocol", "phase",
                                 "--n", str(MAX_SIMULATE_N), "--trials", str(MAX_TRIALS))
        assert code == 0 and payload["result"]["pass"] is True
        assert abs(payload["result"]["law_gap"]) <= LAW_GAP_TOL

    def test_law_gap_fails_the_run(self, capsys, monkeypatch):
        """A law whose mean loss misses the closed form by 10^-9 fails the
        run with exit code 2, though the z-score, at a standard error of
        about 10^-3, cannot see it."""
        module = sys.modules["covest.simulate"]
        coefficients = module.outcome_coefficients

        def perturbed(design):
            c = coefficients(design).copy()
            c[1] += 2e-9 / math.pi  # moves the mean loss by -10^-9
            return c

        argv = ["simulate", "--protocol", "su2", "--n", "5", "--trials", "100000"]
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload["result"]["pass"] is True
        monkeypatch.setattr(module, "outcome_coefficients", perturbed)
        code, spoiled = run_json(capsys, *argv)
        assert code == 2 and spoiled["result"]["pass"] is False
        assert spoiled["result"]["law_gap"] == pytest.approx(
            payload["result"]["law_gap"] - 1e-9, abs=1e-15)
        assert abs(spoiled["result"]["z_score"]) < 4.0

    def test_trials_in_one_bin_are_usage_error(self):
        """Both trials of this seed, the first such seed, land in one bin, so
        they score alike and give no standard error for the z-score."""
        proc = assert_usage_error("simulate", "--protocol", "phase", "--n", "1000",
                                  "--trials", "2", "--seed", "16")
        assert "no standard error" in proc.stderr

    def test_grid_size_option_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--protocol", "phase", "--n", "1", "--grid-size", "4096"])
        assert exc.value.code == 1

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
            "protocol", "n", "trials", "format"}

    def test_even_n_su2_passes(self, capsys):
        for n in ("4", "6"):
            code, payload = run_json(
                capsys, "simulate", "--protocol", "su2", "--n", n, "--trials", "100000"
            )
            assert code == 0
            assert abs(payload["result"]["z_score"]) < 4.0


# The benchmark's simulate operations at reduced trials, one fixed seed each,
# with the result fields printed for them by the sampler that scores each bin
# by its exact loss integral on 4096 bins, the SU(2) law taken as the phase law
# of the mirrored block rows, optimal seeds of exactly 1 and the phase closed
# form sin^2(pi/(2n+4)): any drift in a seeded bit fails here.
PINNED_RUNS = {
    ("phase", 10, 200_001, 91): (
        0.017039529934288512, 4.5389233252831386e-05, 0.01703708685546585,
        0.053825073648034856, 9.71445146547012e-17),
    ("su2", 5, 200_001, 92): (
        0.14598166793563785, 0.0002507641189362375, 0.14644660940672624,
        -1.854098876109979, -5.551115123125783e-17),
    ("su2", 601, 100_000, 93): (
        2.7119350616343714e-05, 1.253786286334774e-07, 2.7053406096413445e-05,
        0.5259630022198314, -2.8494188345634663e-17),
}


class TestPinnedSimulateBits:
    @staticmethod
    def argv(protocol, n, trials, seed):
        return ["simulate", "--protocol", protocol, "--n", str(n),
                "--trials", str(trials), "--seed", str(seed)]

    @pytest.mark.parametrize("run", list(PINNED_RUNS))
    def test_json_result(self, capsys, run):
        mean, se, closed, z, law_gap = PINNED_RUNS[run]
        code, payload = run_json(capsys, *self.argv(*run))
        assert code == 0
        assert payload["result"] == {
            "empirical_mean_error": mean, "standard_error": se, "closed_form": closed,
            "z_score": z, "law_gap": law_gap, "pass": True}

    @pytest.mark.parametrize("run", list(PINNED_RUNS))
    def test_csv_row(self, capsys, run):
        fields = ",".join(map(repr, PINNED_RUNS[run]))
        code, out = run_cli(capsys, *self.argv(*run), "--format", "csv")
        assert code == 0
        assert csv_lines(out)[1] == f"{fields},True"


# The design commands' results as printed at the time they were pinned, each
# as the sha256 of json.dumps(result, sort_keys=True): any drift in a printed
# digit fails here.  The su2-design hashes are of the results printed before
# the constant seed_matrix field was removed, with that field deleted; the
# phase-opt and scaling ones are of the cancellation-free error forms, and
# scaling's phase_bdm column is the O(1) closed form phase._bdm_error.
PINNED_RESULTS = {
    ('phase-opt', '--n', '0'):
        "e20b1da288f29967f24688ebb81f32853706ee4bcd2e205f14fe05001538848b",
    ('phase-opt', '--n', '1'):
        "0462fc271068a3c706bf6bb35973438fdc1aec0d7726810c464f5bd5302e06be",
    ('phase-opt', '--n', '2'):
        "aaac75e56a1f227d8c4eee345fadb75d70b22cda55d287ea266c7a1b26f0907f",
    ('phase-opt', '--n', '10'):
        "cac14c40bfd27d408e5843b963e0a7a314be5f2ae9a81193dbc7b833c34503ca",
    ('phase-opt', '--n', '999'):
        "9627a161ed04d99dcf2b3cc0f3994cbeaa3a3133d1f2f5ecb9955a3528e17762",
    ('phase-opt', '--n', '1000'):
        "7cb36159aa3619e32df45c233a369168a80cf5e8d975c28729803a0e91247cb6",
    ('phase-opt', '--n', '1', '--method', 'bdm'):
        "63a1a0bbc4fab985c9426f94db4f9a2d1d6bd6d11bf48cbb3ddc7f5558b723d3",
    ('phase-opt', '--n', '2', '--method', 'bdm'):
        "9f3b4c8f61a5d060f8e3d45b0387f642cc77c54ccb87c074d2a3f9d2826e565b",
    ('phase-opt', '--n', '10', '--method', 'bdm'):
        "01787fc388faa5ce055b14817634b9d1c44a3c052e916fcbdc2c7c851f69e541",
    ('phase-opt', '--n', '999', '--method', 'bdm'):
        "d107fbaf8ae1d4b23496fd97598e4750c2974318baddee53ce92b74193facc91",
    ('phase-opt', '--n', '1000', '--method', 'bdm'):
        "7c5d1ddb605f9821c0440fc4e8e4ae015f390ab7b0b0f0f9dc16d4d89acc20aa",
    ('su2-design', '--n', '2', '--mode', 'external'):
        "108c821befc928029900f9fb230da970e44efef50f17f33267e22c71882d4d39",
    ('su2-design', '--n', '3', '--mode', 'external'):
        "7978dc66485d731a85a1379aa9e636937417c04cf3748c651267a04ae4866245",
    ('su2-design', '--n', '4', '--mode', 'external'):
        "2deca640ecf568d4ee05aea171936b47eb55cee17d080b5380855d8bfc384bd4",
    ('su2-design', '--n', '10', '--mode', 'external'):
        "6c7ec2de7c76bc15c1afbc31c1886beae5c5f16a73ec4d83bf23c6364bc200d2",
    ('su2-design', '--n', '11', '--mode', 'external'):
        "2713a4fb4f042a0b73572288a21aa8d2fc42b7842f468ef9adba12008991bb37",
    ('su2-design', '--n', '1999', '--mode', 'external'):
        "ebf285ae6baf20b8bf14497378f4785b032f09c87b1fee1b593a545a1694a7b5",
    ('su2-design', '--n', '2000', '--mode', 'external'):
        "4b790b0a0c87675220699689b6e6f68ac3927493ae9990af172ae3e7aba5ca51",
    ('su2-design', '--n', '2', '--mode', 'self-entangled'):
        "c1d22a366224cc44ad76775b399cd6268921f4a2a3ee99d27e3b91eb6f2572d7",
    ('su2-design', '--n', '3', '--mode', 'self-entangled'):
        "23e8b47432cfa42606b205e6edcdb6f6f5c094b008d69fb9609472c5ace0d8c7",
    ('su2-design', '--n', '4', '--mode', 'self-entangled'):
        "e7cf7a6ff52719696507d044c81f478af8926439e694dbe5d372f8f205ef3a5e",
    ('su2-design', '--n', '10', '--mode', 'self-entangled'):
        "70848c346ff5737cd71777442086ef81a02b08dce5871042a37708e061f5dd08",
    ('su2-design', '--n', '11', '--mode', 'self-entangled'):
        "1de7ff595d2cc01c33bee3b646b9a88e5192e7ec959460bc7a388d833f84d863",
    ('su2-design', '--n', '1999', '--mode', 'self-entangled'):
        "ee784f225aa3f729688819a709336edef52bbd09b1c148eae3d3a5b03753048d",
    ('su2-design', '--n', '2000', '--mode', 'self-entangled'):
        "fc94f45b46d0a9ebe626b2ffd2b284984fab37415cbd4164a008c7f65daaf2cd",
    ('su2-design', '--n', '1', '--mode', 'external'):
        "5d0034e1fe12f7aca4a19454aac4d5ecfd48802d543abc8ff4e7af3bd8c810e0",
    ('scaling', '--max-n', '100'):
        "1b006b8ce1a2175e140842d4da9d132b19da79a8a34f13ecd020cf46d9c0a97e",
}

# CSV bodies (the lines after the # manifest comments) of one run per command.
PINNED_CSV = {
    ('phase-opt', '--n', '3'): (
        'n,method,index,amplitudes,error,asymptote,ratio\r\n'
        '3,exact,0,0.37174803446018445,0.09549150281252627,0.27415567780803773,0.3483112353390284\r\n'
        '3,exact,1,0.6015009550075456,0.09549150281252627,0.27415567780803773,0.3483112353390284\r\n'
        '3,exact,2,0.6015009550075456,0.09549150281252627,0.27415567780803773,0.3483112353390284\r\n'
        '3,exact,3,0.37174803446018456,0.09549150281252627,0.27415567780803773,0.3483112353390284\r\n'
    ),
    ('phase-opt', '--n', '3', '--method', 'bdm'): (
        'n,method,index,amplitudes,error,asymptote,ratio\r\n'
        '3,bdm,0,0.2705980500730985,0.10983495705504469,0.27415567780803773,0.40062988274840877\r\n'
        '3,bdm,1,0.6532814824381883,0.10983495705504469,0.27415567780803773,0.40062988274840877\r\n'
        '3,bdm,2,0.6532814824381883,0.10983495705504469,0.27415567780803773,0.40062988274840877\r\n'
        '3,bdm,3,0.2705980500730986,0.10983495705504469,0.27415567780803773,0.40062988274840877\r\n'
    ),
    ('su2-design', '--n', '4', '--mode', 'self-entangled'): (
        'n,mode,error,asymptote,ratio,blocks.dim,blocks.multiplicity,blocks.amplitude,'
        'blocks.feasible,feasibility.usable_dims,feasibility.achievable_error\r\n'
        '4,self-entangled,0.3454915028125263,0.6168502750680849,0.5600897280533638,'
        '1,2,0.5257311121191336,True,"[1, 3]",0.3454915028125263\r\n'
        '4,self-entangled,0.3454915028125263,0.6168502750680849,0.5600897280533638,'
        '3,3,0.85065080835204,True,"[1, 3]",0.3454915028125263\r\n'
        '4,self-entangled,0.3454915028125263,0.6168502750680849,0.5600897280533638,'
        '5,1,0.0,False,"[1, 3]",0.3454915028125263\r\n'
    ),
    ('scaling', '--max-n', '4'): (
        'rows.n,rows.phase_exact,rows.phase_bdm,rows.phase_asymptote,rows.su2_error,'
        'rows.su2_asymptote\r\n'
        '1,0.24999999999999994,0.24999999999999994,2.4674011002723395,0.4999999999999999,9.869604401089358\r\n'
        '2,0.14644660940672624,0.16666666666666663,0.6168502750680849,0.3454915028125263,2.4674011002723395\r\n'
        '3,0.09549150281252627,0.10983495705504467,0.27415567780803773,0.24999999999999994,1.096622711232151\r\n'
        '4,0.06698729810778066,0.07639320225002103,0.15421256876702122,0.18825509907063323,0.6168502750680849\r\n'
    ),
}


class TestPinnedDesignOutputs:
    @pytest.mark.parametrize("argv", list(PINNED_RESULTS), ids=" ".join)
    def test_json_result(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        assert code == 0
        text = json.dumps(payload["result"], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_RESULTS[argv]

    @pytest.mark.parametrize("argv", list(PINNED_CSV), ids=" ".join)
    def test_csv_body(self, capsys, argv):
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert "".join(line for line in lines if not line.startswith("#")) == PINNED_CSV[argv]


class TestScaling:
    def test_csv_header_exact(self, capsys):
        code, out = run_cli(capsys, "scaling", "--max-n", "10", "--format", "csv")
        assert code == 0
        lines = csv_lines(out)
        assert lines[0] == CSV_HEADERS["scaling"]
        assert len(lines) == 11  # header + 10 rows

    def test_exact_errors_monotone(self, capsys):
        code, payload = run_json(capsys, "scaling", "--max-n", "10")
        rows = payload["result"]["rows"]
        exact = [row["phase_exact"] for row in rows]
        assert exact == sorted(exact, reverse=True)

    def test_max_n_above_limit_is_usage_error(self):
        assert_usage_error("scaling", "--max-n", str(MAX_SCALING_N + 1))

    @pytest.mark.parametrize("step", ["0", "5", "10"])
    def test_step_outside_1_to_max_n_is_usage_error(self, step):
        proc = assert_usage_error("scaling", "--max-n", "4", "--step", step)
        assert "step must be between 1 and max-n" in proc.stderr

    @pytest.mark.parametrize("max_n, step", [(300, 1), (10_000, 997), (MAX_SCALING_N, 9973)])
    def test_rows_equal_the_designs(self, capsys, max_n, step):
        """Each row's errors are those of the designs themselves: the optima's
        bit for bit, and the sine profile's O(1) closed form within 1e-15
        relative of the error of its n+1 amplitudes."""
        code, payload = run_json(capsys, "scaling", "--max-n", str(max_n), "--step", str(step))
        rows = payload["result"]["rows"]
        assert code == 0
        assert [row["n"] for row in rows] == list(range(step, max_n + 1, step))
        for row in rows:
            n = row["n"]
            assert row["phase_exact"] == optimal_input(n).error
            assert row["su2_error"] == design_optimal(n).error
            assert row["phase_bdm"] == pytest.approx(min_covariant_error(bdm_input(n)),
                                                     rel=1e-15, abs=0)

    def test_builds_no_design(self, capsys, monkeypatch):
        """The rows come from closed forms, not from an O(n) design per row."""
        built = []
        for cls in (PhaseDesign, Su2Design):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, check=check: built.append(self) or check(self))
        code, payload = run_json(capsys, "scaling", "--max-n", "50")
        assert code == 0 and len(payload["result"]["rows"]) == 50
        assert built == []
        optimal_input(3), design_optimal(3)
        assert len(built) == 2

    def test_output_and_peak_grow_linearly(self, tmp_path):
        """Every row is O(1): twice the rows, at most 2.2 times the bytes and memory."""
        sizes, peaks = [], []
        for max_n in (MAX_SCALING_N // 2, MAX_SCALING_N):
            path = tmp_path / f"scaling-{max_n}.json"
            tracemalloc.start()
            try:
                assert main(["scaling", "--max-n", str(max_n), "--output", str(path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(path.stat().st_size)
        assert sizes[1] / sizes[0] <= 2.2
        assert peaks[1] / peaks[0] <= 2.2

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

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code = main(["phase-opt", "--n", "3", "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f"covest: error: cannot write {path}: No such file or directory\n")

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

    @staticmethod
    def modules_loaded_by_cli_import(package):
        probe = ("import sys, covest.cli; "
                 f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
        out = subprocess.run([sys.executable, "-c", probe], env=subprocess_env(),
                             capture_output=True, text=True, check=True).stdout
        return out.strip()

    def test_cli_import_loads_no_scipy(self):
        assert self.modules_loaded_by_cli_import("scipy") == "[]"

    def test_cli_import_loads_no_jsonschema(self):
        """The schema is for tests and consumers; the CLI never validates."""
        assert self.modules_loaded_by_cli_import("jsonschema") == "[]"


def untimed(text):
    """A run's output without its manifest timestamp line, in either format."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"timestamp":' not in line and not line.startswith("# timestamp="))


def traced_peak(*argv):
    """Traced peak bytes of an in-process `covest ARGV` that writes to os.devnull."""
    tracemalloc.start()
    try:
        assert main([*argv, "--output", os.devnull]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_result_peak(*argv):
    """Traced peak bytes of building the JSON result of `covest ARGV` alone."""
    args = _build_parser().parse_args(list(argv))
    tracemalloc.start()
    try:
        _, code = args.func(args)
        assert code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWritePath:
    """Each run is written once, straight into stdout or the --output file."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [["phase-opt", "--n", "1000"], ["su2-design", "--n", "40"]],
                             ids=" ".join)
    def test_file_holds_the_stdout_bytes(self, capsys, tmp_path, argv, fmt):
        """The same bytes in both destinations, apart from the timestamp;
        stdout alone ends JSON with a newline."""
        path = tmp_path / f"run.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        _, out = run_cli(capsys, *argv, "--format", fmt)
        written = untimed(path.read_bytes().decode())
        assert written + ("\n" if fmt == "json" else "") == untimed(out)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_pipe_ends_quietly(self, fmt):
        """`covest ... | head -1` ends by SIGPIPE, as cat does, with no traceback."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "covest.cli", "phase-opt", "--n", "100000", "--format", fmt],
            env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGPIPE
        assert err == b""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["phase-opt", "--n", "100000"],
        ["su2-design", "--n", "4000"],
        ["su2-design", "--n", "4000", "--mode", "self-entangled"],
    ], ids=" ".join)
    def test_peak_within_a_mib_of_the_result(self, argv, fmt):
        """Both formats stream, a chunk of items or a row at a time, so writing
        a run holds at most 1 MiB beyond what building its result peaks at.
        A writer that builds the whole JSON text first exceeds it by 4.7-5.2 MiB."""
        assert traced_peak(*argv, "--format", fmt) <= traced_result_peak(*argv) + 2**20

    def test_csv_peak_grows_linearly(self):
        small = traced_peak("phase-opt", "--n", "100000", "--format", "csv")
        large = traced_peak("phase-opt", "--n", "200000", "--format", "csv")
        assert large / small <= 2.2

    def test_json_peak_grows_linearly(self):
        small = traced_peak("phase-opt", "--n", "100000", "--format", "json")
        large = traced_peak("phase-opt", "--n", "200000", "--format", "json")
        assert large / small <= 2.2


# JSON values of every kind the writer meets, and the ones that its fast
# paths must get right: big ints, non-finite and extreme floats, and strings
# that JSON escapes or that a %-template would misread.
_odd_text = st.text(st.sampled_from(["a", "%", "s", '"', "\n", "\\", "é", "\u2028", "∞", " "]),
                    max_size=4)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**200), st.integers(max_value=-2**64),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]), _odd_text,
)


@st.composite
def _flat_rows(draw, values):
    """Flat objects that share one key order, then perhaps more in another."""
    keys = draw(st.lists(_odd_text, unique=True, max_size=4))
    orders = [keys, keys[::-1]][:draw(st.integers(1, 2))]
    return [{key: draw(values) for key in order}
            for order in orders for _ in range(draw(st.integers(0, 5)))]


_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.dictionaries(_odd_text, children, max_size=4),
                               _flat_rows(_scalars), _flat_rows(children)),
    max_leaves=40,
)


def _writer_runs():
    """Each command at n (or kmax, or max-n) in {0, 1, 2, 50}, where it accepts it."""
    for n in ("0", "1", "2", "50"):
        yield ["phase-opt", "--n", n]
        yield ["simulate", "--protocol", "phase", "--n", n, "--trials", "1000"]
        if n != "0":
            yield ["phase-opt", "--n", n, "--method", "bdm"]
            yield ["su2-design", "--n", n]
            yield ["simulate", "--protocol", "su2", "--n", n, "--trials", "1000"]
            yield ["verify-integrals", "--kmax", n]
        if n not in ("0", "1"):
            yield ["su2-design", "--n", n, "--mode", "self-entangled"]
            yield ["scaling", "--max-n", n]


def written_json(value):
    fh = io.StringIO()
    cli._json(fh, value)
    return fh.getvalue()


class TestJsonWriter:
    """The streaming writer gives the bytes of json.dumps(value, indent=2)."""

    # 3 puts many chunk boundaries inside small lists; 128 is the writer's own
    @pytest.mark.parametrize("chunk", [3, cli._CHUNK])
    @given(value=_json_values)
    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_bytes_as_json_dumps(self, chunk, value):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK", chunk)
            assert written_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [{}], [{}, {}], [[], {}], {"": []}, [1, [2]], [[1], 2],
        [{"a": 1}, {"a": [1]}], [{"a": 1}, {"a": {}}], [{"a": 1}, 2], [1, {"a": 1}],
        [{"%s": "%s", "%": "%%"}], [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    ], ids=repr)
    def test_edge_shapes(self, value):
        assert written_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("argv", list(_writer_runs()), ids=" ".join)
    def test_command_run(self, argv):
        args = _build_parser().parse_args(argv)
        result, _ = args.func(args)
        manifest = cli._manifest(args)
        fh = io.StringIO()
        cli._write(fh, manifest, result, "json")
        assert fh.getvalue() == json.dumps({"manifest": manifest, "result": result}, indent=2)


def _oracle_cells(prefix, obj):
    """(dotted path, cell) for every value of the JSON object obj, in key order."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _oracle_cells(f"{prefix}{key}.", value)
        else:
            yield prefix + key, json.dumps(value) if isinstance(value, list) else value


def csv_oracle(result):
    """The CSV table of a JSON result by the rule of covest.cli._csv_table,
    its rows built as lists and written by csv.writer."""
    keys = list(result)
    listed = next((k for k in keys if isinstance(result[k], list)), None)
    cut = keys.index(listed) if listed else len(keys)
    head, tail = ({name: "" if cell is None else str(cell)
                   for name, cell in _oracle_cells("", {k: result[k] for k in part})}
                  for part in (keys[:cut], keys[cut + 1:]))
    items = result[listed] if listed else [{}]
    if isinstance(items[0], dict):
        names = [name for name, _ in _oracle_cells(f"{listed}.", items[0])]
        body = ([cell for _, cell in _oracle_cells("", item)] for item in items)
    else:
        names, body = ("index", listed), ([i, item] for i, item in enumerate(items))
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow([*head, *names, *tail])
    writer.writerows([*head.values(), *cells, *tail.values()] for cells in body)
    return fh.getvalue()


def written_csv(result):
    fh = io.StringIO()
    cli._csv_table(fh, result)
    return fh.getvalue()


# Cell values of every kind a CSV table meets: strings that csv quotes (a
# delimiter, a quote, a line break) or leaves alone (leading spaces, "%"),
# the empty string, big ints, -0.0, subnormal and non-finite floats, bools
# and null.
_csv_text = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "%", "s", "é", "."]),
                    max_size=5)
_csv_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e-310, math.inf, math.nan]), _csv_text,
)
# a value inside an object: a list there is one cell of JSON text
_csv_inner = st.one_of(_csv_scalars, st.lists(_csv_scalars, max_size=3))
_csv_fixed = st.dictionaries(_csv_text, st.one_of(
    _csv_scalars, st.dictionaries(_csv_text, st.one_of(
        _csv_inner, st.dictionaries(_csv_text, _csv_inner, max_size=2)), max_size=3)), max_size=3)


@st.composite
def _csv_results(draw):
    """Flat values and nested objects around at most one list field, which
    holds scalars or flat objects that share one key set."""
    result = draw(_csv_fixed)
    if draw(st.booleans()):
        if draw(st.booleans()):
            items = draw(st.lists(_csv_scalars, min_size=1, max_size=8))
        else:
            keys = draw(st.lists(_csv_text, unique=True, max_size=3))
            items = [{key: draw(_csv_inner) for key in keys}
                     for _ in range(draw(st.integers(1, 8)))]
        result[draw(_csv_text.filter(lambda key: key not in result))] = items
    for key, value in draw(_csv_fixed).items():
        result.setdefault(key, value)
    return result


class TestCsvWriter:
    """The template writer gives the bytes that csv.writer gives for the same rows."""

    # 1 writes a row per chunk and 64 a few; 2**16 is the writer's own
    @pytest.mark.parametrize("text", [1, 64, cli._CSV_TEXT])
    @given(result=_csv_results())
    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_bytes_as_csv_writer(self, text, result):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CSV_TEXT", text)
            assert written_csv(result) == csv_oracle(result)

    @pytest.mark.parametrize("result", [
        {}, {"a": ""}, {"": None}, {"a": None, "b": ""}, {"rows": [{}]}, {"rows": [{}, {}]},
        {"rows": [{"x": None}, {"x": ""}, {"x": 0}]}, {"a": [None, ""]}, {"a": [[]]},
        {"%s": "%", "rows": [{"%": "%s"}], "t": "%%"}, {"a": {"b": []}, "c": [{"d": [1, "e"]}]},
        {"a": " x", "b": "\r", "c": "\n", "d": '"', "e": "a,b", "f": 10**100, "g": -0.0},
    ], ids=repr)
    def test_edge_shapes(self, result):
        assert written_csv(result) == csv_oracle(result)

    @pytest.mark.parametrize("argv", list(_writer_runs()), ids=" ".join)
    def test_command_run(self, argv):
        args = _build_parser().parse_args(argv)
        result, _ = args.func(args)
        assert written_csv(result) == csv_oracle(result)


# The CSV header of each command, as the rule of covest.cli._csv_table
# derives it from the command's JSON result.
CSV_HEADERS = {
    "phase-opt": "n,method,index,amplitudes,error,asymptote,ratio",
    "su2-design": ("n,mode,error,asymptote,ratio,blocks.dim,blocks.multiplicity,"
                   "blocks.amplitude,blocks.feasible,feasibility.usable_dims,"
                   "feasibility.achievable_error"),
    "verify-integrals": "pass,identities.identity,identities.worst_abs_deviation,identities.pass",
    "simulate": "empirical_mean_error,standard_error,closed_form,z_score,law_gap,pass",
    "scaling": ("rows.n,rows.phase_exact,rows.phase_bdm,rows.phase_asymptote,"
                "rows.su2_error,rows.su2_asymptote"),
}

# Runs of every command, with null cells (phase-opt n = 0), an empty nested
# list and a null (su2-design n = 1) and a failing verdict (--tol 1e-16).
CONTRACT_RUNS = [
    ["phase-opt", "--n", "0"],
    ["phase-opt", "--n", "3"],
    ["phase-opt", "--n", "3", "--method", "bdm"],
    ["su2-design", "--n", "1"],
    ["su2-design", "--n", "4"],
    ["su2-design", "--n", "2", "--mode", "self-entangled"],
    ["su2-design", "--n", "4", "--mode", "self-entangled"],
    ["verify-integrals", "--kmax", "3"],
    ["verify-integrals", "--kmax", "3", "--tol", "1e-16"],
    ["scaling", "--max-n", "4"],
    ["scaling", "--max-n", "10", "--step", "3"],
    ["simulate", "--protocol", "phase", "--n", "2", "--trials", "5000"],
    ["simulate", "--protocol", "su2", "--n", "4", "--trials", "5000"],
]


def typed_cell(text, schema):
    """A CSV cell read back as the JSON value of the type its schema gives."""
    types = schema.get("type", "string")  # an enum of strings has no type
    types = [types] if isinstance(types, str) else types
    if text == "" and "null" in types:
        return None
    if "array" in types:
        return json.loads(text)
    if "boolean" in types:
        return {"True": True, "False": False}[text]
    if "integer" in types:
        return int(text)
    if "number" in types:
        return float(text)
    assert types == ["string"]
    return text


def result_from_csv(out, schema):
    """The JSON result rebuilt from a CSV table, each cell typed by the schema.

    Also checks that the values outside the row list repeat on every row, and
    that a list of numbers is indexed 0, 1, ...
    """
    reader = csv.DictReader(csv_lines(out))
    rows = list(reader)
    props = schema["properties"]
    listed = next((k for k, sub in props.items() if sub.get("type") == "array"), None)
    for column in reader.fieldnames:
        if column.split(".")[0] not in (listed, "index"):
            assert len({row[column] for row in rows}) == 1, column
    result = {}
    for key, sub in props.items():
        if key == listed and sub["items"]["type"] == "object":
            fields = sub["items"]["properties"]
            result[key] = [{f: typed_cell(row[f"{key}.{f}"], fields[f]) for f in fields}
                           for row in rows]
        elif key == listed:
            assert [row["index"] for row in rows] == [str(i) for i in range(len(rows))]
            result[key] = [typed_cell(row[key], sub["items"]) for row in rows]
        elif sub.get("type") == "object":
            result[key] = {f: typed_cell(rows[0][f"{key}.{f}"], fs)
                           for f, fs in sub["properties"].items()}
        else:
            result[key] = typed_cell(rows[0][key], sub)
    return result


_MISSING = object()

# One valid run per command.
VALID_RUNS = {
    "phase-opt": ["phase-opt", "--n", "3"],
    "su2-design": ["su2-design", "--n", "4"],
    "verify-integrals": ["verify-integrals", "--kmax", "2"],
    "simulate": ["simulate", "--protocol", "phase", "--n", "2", "--trials", "1000"],
    "scaling": ["scaling", "--max-n", "4"],
}

# Three ways to spoil each command's result, which the schema must reject:
# (command, kind, path into the result, new value or _MISSING to delete it).
SPOILED = [
    ("phase-opt", "extra", ["k"], 0),
    ("phase-opt", "missing", ["ratio"], _MISSING),
    ("phase-opt", "wrong type", ["amplitudes", 1], "0.6015009550075456"),
    ("su2-design", "extra", ["seed_matrix"],
     "rank-one optimal seed built from the amplitude phases"),
    ("su2-design", "missing", ["feasibility", "achievable_error"], _MISSING),
    ("su2-design", "wrong type", ["blocks", 0, "feasible"], "True"),
    ("verify-integrals", "extra", ["identities", 0, "tol"], 1e-10),
    ("verify-integrals", "missing", ["pass"], _MISSING),
    ("verify-integrals", "wrong type", ["identities", 2, "worst_abs_deviation"], None),
    ("simulate", "extra", ["trials"], 1000),
    ("simulate", "missing", ["law_gap"], _MISSING),
    ("simulate", "wrong type", ["pass"], 1),
    ("scaling", "extra", ["rows", 1, "ratio"], 1.0),
    ("scaling", "missing", ["rows", 3, "su2_asymptote"], _MISSING),
    ("scaling", "wrong type", ["rows", 0, "n"], 1.5),
]


class TestOneContract:
    @pytest.mark.parametrize("argv", CONTRACT_RUNS, ids=" ".join)
    def test_csv_is_the_json_result(self, capsys, argv):
        """Both formats of a run: the JSON validates against the schema, and
        the CSV, read back with cell types from the command's $defs entry,
        is the JSON result exactly."""
        code, payload = run_json(capsys, *argv)
        schema = load_schema()
        jsonschema.validate(payload, schema)
        csv_code, out = run_cli(capsys, *argv, "--format", "csv")
        assert csv_code == code
        assert csv_lines(out)[0] == CSV_HEADERS[argv[0]]
        assert result_from_csv(out, schema["$defs"][argv[0]]) == payload["result"]

    @pytest.mark.parametrize("command,kind,path,value", SPOILED,
                             ids=[f"{c} {k} {'.'.join(map(str, p))}" for c, k, p, _ in SPOILED])
    def test_spoiled_result_fails_validation(self, capsys, command, kind, path, value):
        _, payload = run_json(capsys, *VALID_RUNS[command])
        schema = load_schema()
        jsonschema.validate(payload, schema)
        target = payload
        for key in ["result", *path[:-1]]:
            target = target[key]
        if value is _MISSING:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema)

    @pytest.mark.parametrize("own", list(VALID_RUNS))
    def test_result_is_typed_by_its_command(self, capsys, own):
        """manifest.command picks the $defs entry: no result fits another's."""
        _, payload = run_json(capsys, *VALID_RUNS[own])
        for command in VALID_RUNS:
            payload["manifest"]["command"] = command
            if command == own:
                jsonschema.validate(payload, load_schema())
            else:
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(payload, load_schema())
