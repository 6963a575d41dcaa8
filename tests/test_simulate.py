import dataclasses
import functools
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import gram, random_phase_design, random_seed
from covest import (
    PhaseDesign,
    PhaseInputState,
    Seed,
    SimConfig,
    Su2Design,
    bdm_input,
    character,
    design_optimal,
    optimal_input,
    optimal_seed,
    outcome_coefficients,
    phase_error,
    simulate,
    su2_error,
)
from covest.simulate import (
    _CELLS,
    _autocorrelation,
    _bins,
    _guide_table,
    _on_grid,
    _padded_fft,
    _run_split,
    _self_convolution,
)
from mc_oracle import haar_mean_loss, povm_identity_deviation

# the module, which the package's `simulate` function shadows as an attribute
SIMULATE_MODULE = importlib.import_module("covest.simulate")

GRID = np.linspace(0.0, 2.0 * math.pi, 4097)


def reference_phase_density(design, phi):
    """Quadratic form sum_{k,l} t_kl v_k conj(v_l) / (2 pi), v_k = x_k e^{i k phi}."""
    x = design.input.amplitudes
    v = x * np.exp(1j * np.multiply.outer(phi, np.arange(x.size)))
    return np.einsum("...k,kl,...l->...", v, gram(design.seed), v.conj()).real / (
        2.0 * math.pi
    )


def reference_su2_density(design, theta):
    """sin^2(theta/2)/pi times the quadratic form in v_k = x_k chi^{d_k}(theta)."""
    chi = np.stack([character(dim, theta) for dim in design.block_dims], axis=-1)
    v = design.input.amplitudes * chi
    quad = np.einsum("...k,kl,...l->...", v, gram(design.seed), v.conj()).real
    return np.sin(theta / 2.0) ** 2 / math.pi * quad


def law(design, phi):
    """Re sum_m C_m e^{i m phi} at arbitrary angles, summed directly from the
    design's outcome coefficients."""
    coefficients = outcome_coefficients(design)
    m = np.arange(coefficients.size)
    return (np.exp(1j * np.multiply.outer(phi, m)) @ coefficients).real


def assert_matches_reference(design, grid_size=4096):
    """FFT grid values and the directly summed law agree with the quadratic form."""
    if isinstance(design, PhaseDesign):
        reference = reference_phase_density
    else:
        reference = reference_su2_density
    edges = np.linspace(0.0, 2.0 * math.pi, grid_size + 1)
    want = reference(design, edges)
    tol = 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(_on_grid(outcome_coefficients(design), grid_size) - want)) <= tol
    assert np.max(np.abs(law(design, edges) - want)) <= tol


def quadrature_mean(design, f):
    vals = law(design, GRID) * f(GRID)
    return float(np.trapezoid(vals, GRID))


class TestPhaseDensity:
    def test_single_level_uniform(self):
        design = optimal_input(0)
        assert np.allclose(law(design, GRID), 1.0 / (2.0 * math.pi), atol=1e-14)

    def test_two_level_cosine(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        design = PhaseDesign(x, Seed(np.ones((2, 1))), 0.25)
        expected = (1.0 + np.cos(GRID)) / (2.0 * math.pi)
        assert np.allclose(law(design, GRID), expected, atol=1e-12)

    def test_normalized_and_nonnegative(self, rng):
        for d in [1, 3, 6]:
            design = random_phase_design(rng, d)
            vals = law(design, GRID)
            assert vals.min() > -1e-10
            assert quadrature_mean(design, np.ones_like) == pytest.approx(1.0, abs=1e-10)

    def test_mean_loss_matches_phase_error(self, rng):
        design = random_phase_design(rng, 5)
        mean = quadrature_mean(design, lambda t: np.sin(t / 2.0) ** 2)
        assert mean == pytest.approx(design.error, abs=1e-10)

    def test_optimal_seed_reduces_to_squared_sum(self, rng):
        design = optimal_input(4)
        mags = np.abs(design.input.amplitudes)
        k = np.arange(mags.size)
        direct = (
            np.abs(np.exp(1j * np.multiply.outer(GRID, k)) @ mags) ** 2
            / (2.0 * math.pi)
        )
        assert np.allclose(law(design, GRID), direct, atol=1e-12)


class TestSu2ClassDensity:
    def test_single_block(self):
        design = design_optimal(1)
        expected = (
            4.0 / math.pi * np.sin(GRID / 2.0) ** 2 * np.cos(GRID / 2.0) ** 2
        )
        assert np.allclose(law(design, GRID), expected, atol=1e-12)

    def test_normalized(self):
        assert quadrature_mean(design_optimal(3), np.ones_like) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_mean_loss_matches_closed_form(self):
        design = design_optimal(7)
        mean = quadrature_mean(design, lambda t: np.sin(t / 2.0) ** 2)
        assert mean == pytest.approx(
            su2_error(design.input, design.seed, design.n), abs=1e-8
        )

    def test_even_designs_pass_z_test(self):
        for n in (4, 6):
            res = simulate(SimConfig(100_000, 42), design_optimal(n))
            assert res.closed_form == pytest.approx(
                math.sin(math.pi / (n + 3)) ** 2, abs=1e-12
            )
            assert abs(res.z_score) < 4.0


class TestFourierDensity:
    @pytest.mark.parametrize("d", [1, 2, 3, 6, 9])
    def test_random_phase_designs(self, rng, d):
        assert_matches_reference(random_phase_design(rng, d))

    @pytest.mark.parametrize("n", [5, 6, 41, 42])
    def test_su2_designs(self, n):
        assert_matches_reference(design_optimal(n))

    def test_degree_above_half_grid_folds_exactly(self):
        assert_matches_reference(optimal_input(700), grid_size=256)
        assert_matches_reference(design_optimal(601), grid_size=256)

    @pytest.mark.parametrize("n", [5, 6, 41, 42])
    def test_su2_random_seeds(self, rng, n):
        design = design_optimal(n)
        seed = random_seed(rng, design.input.dim)
        x = design.input
        assert_matches_reference(Su2Design(x, seed, n, su2_error(x, seed, n)))

    def test_no_dense_seed_in_design_or_coefficients(self):
        # a dense seed at d = 4001 would take 256 MB
        tracemalloc.start()
        try:
            outcome_coefficients(optimal_input(4000))
            outcome_coefficients(design_optimal(8001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def direct_autocorrelation(y):
    """sum_r sum_k y[k+m, r] conj(y[k, r]), one lag at a time."""
    d = y.shape[0]
    return np.array([np.sum(y[m:] * y[: d - m].conj()) for m in range(d)])


class TestAutocorrelation:
    @pytest.mark.parametrize("d", [1, 2, 7, 300])
    @pytest.mark.parametrize("r", [1, 3])
    def test_matches_direct_lag_sum(self, rng, d, r):
        y = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        # unit norm, as y = x ∘ F for a unit input and a unit-row factor
        y /= np.linalg.norm(y)
        got = _autocorrelation(_padded_fft(y), d)
        assert np.abs(got - direct_autocorrelation(y)).max() < 1e-13


class TestSelfConvolution:
    @pytest.mark.parametrize("d", [1, 2, 7, 300])
    @pytest.mark.parametrize("r", [1, 3])
    def test_matches_np_convolve(self, rng, d, r):
        y = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        y /= np.linalg.norm(y)
        direct = sum(np.convolve(col, col.conj()) for col in y.T)
        got = _self_convolution(_padded_fft(y), d)
        assert got.shape == direct.shape
        assert np.abs(got - direct).max() < 1e-13


class TestLawBias:
    def test_accounts_for_large_n_grid_fault(self):
        res = simulate(SimConfig(1_000_000, 20040725), optimal_input(1000))
        # the value of the one-shot sampler, pinned to the last bit
        assert res.z_score == 14.359998513941788
        offset = res.law_bias / res.standard_error
        assert offset > 10.0
        assert abs(res.z_score - offset) < 4.0

    @pytest.mark.parametrize("protocol, n", [("phase", 10), ("su2", 5)])
    def test_negligible_at_small_n(self, protocol, n):
        design = optimal_input(n) if protocol == "phase" else design_optimal(n)
        res = simulate(SimConfig(100_000, 42), design)
        assert abs(res.law_bias) < res.standard_error / 10.0


def oracle_designs():
    """Every kind of design simulate accepts, small n to large."""
    designs = {f"phase n={n}": optimal_input(n) for n in (1, 10, 1000, 100_000)}
    for n in (10, 1000):
        x = bdm_input(n)
        seed = optimal_seed(x)
        designs[f"bdm n={n}"] = PhaseDesign(x, seed, phase_error(x, seed))
    for n in (5, 601, 999, 2000):
        for mode in ("external", "self-entangled"):
            designs[f"su2 n={n} {mode}"] = design_optimal(n, mode)
    return designs


class TestMeanLossOracle:
    def test_first_coefficient_gives_closed_form(self):
        # E sin^2(phi/2) = (1 - E cos phi) / 2, and cos phi picks pi Re C_1
        # out of the coefficient series of either density
        for name, design in oracle_designs().items():
            c1 = outcome_coefficients(design)[1].real
            assert abs(0.5 * (1.0 - math.pi * c1) - design.error) <= 1e-13, name


class TestSimulate:
    def test_phase_optimal_design(self):
        res = simulate(SimConfig(100_000, 42), optimal_input(1))
        assert res.empirical_mean_error == pytest.approx(0.25, abs=0.01)
        assert abs(res.z_score) < 4.0

    def test_su2_optimal_design(self):
        design = design_optimal(3)
        res = simulate(SimConfig(100_000, 42), design)
        assert res.closed_form == design.error == pytest.approx(0.25, abs=1e-12)
        assert abs(res.z_score) < 4.0

    @pytest.mark.xfail(strict=True, reason=(
        "the |z| < 4 gate standardises heavy-tailed su2 losses by their empirical "
        "standard error (ROADMAP item 2); this is round 5 of bench/run.py --seed 24"))
    def test_su2_n601_gate_on_heavy_tailed_seed(self):
        res = simulate(SimConfig(100_000, 1245426431), design_optimal(601))
        assert abs(res.z_score) < 4.0

    def test_deterministic_replay(self, rng):
        design = random_phase_design(rng, 4)
        config = SimConfig(20_000, 7)
        assert simulate(config, design) == simulate(config, design)

    def test_random_designs_pass_z_test(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 9))
            design = random_phase_design(rng, d)
            seed = int(rng.integers(0, 2**32))
            res = simulate(SimConfig(100_000, seed), design)
            assert abs(res.z_score) < 4.0

    def test_single_trial_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(1, 0)

    def test_mismatched_design_rejected(self):
        # an input state, phase or over the blocks, is not a design
        config = SimConfig(100, 0)
        with pytest.raises(TypeError):
            simulate(config, optimal_input(3).input)
        with pytest.raises(TypeError):
            simulate(config, design_optimal(3).input)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(10, 0, grid_size=100)
        with pytest.raises(ValueError):
            SimConfig(10, 0, grid_size=1000)
        with pytest.raises(ValueError):
            SimConfig(0, 0)
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "trials", "seed", "grid_size"]


class TestCovarianceReduction:
    def test_class_sampler_agrees_with_full_sampler(self):
        """n = 3: the class-angle sampler estimates the mean loss of the full
        matrix-level outcome law, integrated exactly over the group."""
        design = design_optimal(3)
        class_res = simulate(SimConfig(100_000, 1234), design)
        _, full_mean = haar_mean_loss(design)
        assert abs(class_res.empirical_mean_error - full_mean) < 3.0 * class_res.standard_error

    def test_povm_resolves_identity(self):
        assert povm_identity_deviation(design_optimal(3)) < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_povm_resolves_identity_even_n(self, n):
        """Blocks 1, 3 (n = 2) and 1, 3, 5 (n = 4), trivial block included."""
        design = design_optimal(n)
        assert design.block_dims == tuple(range(1, n + 2, 2))
        assert povm_identity_deviation(design) < 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    def test_full_sampler_matches_closed_form_even_n(self, n):
        """The matrix-level outcome law, with no class-angle shortcut, is
        normalized and has su2_error as its mean loss for even n,
        trivial-block penalty included."""
        design = design_optimal(n)
        total, mean = haar_mean_loss(design)
        assert abs(total - 1.0) < 1e-12
        assert abs(mean - su2_error(design.input, design.seed, n)) < 1e-12


def reference_simulate(config, design):
    """The one-shot sampler: every trial drawn, searched and summed at once."""
    coefficients, closed = outcome_coefficients(design), design.error
    g = config.grid_size
    edges = np.linspace(0.0, 2.0 * math.pi, g + 1)
    pdf = np.clip(_on_grid(coefficients, g), 0.0, None)
    width = 2.0 * math.pi / g
    mass = 0.5 * (pdf[:-1] + pdf[1:]) * width
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    mass = np.diff(cdf)
    bin_loss = 0.5 - (np.sin(edges[1:]) - np.sin(edges[:-1])) / (2.0 * width)
    law_bias = float(np.dot(mass, bin_loss)) - closed

    u = np.random.default_rng([config.seed, 0]).random(config.trials)
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, g - 1)
    frac = (u - cdf[idx]) / np.where(mass[idx] > 0.0, mass[idx], 1.0)
    angles = edges[idx] + np.clip(frac, 0.0, 1.0) * width
    losses = np.sin(angles / 2.0) ** 2
    mean = float(losses.mean())
    variance = float(np.sum((losses - mean) ** 2)) / (config.trials - 1)
    se = math.sqrt(variance / config.trials)
    return (mean, se, closed, (mean - closed) / se, law_bias)


def random_seed_su2_design(rng):
    x = design_optimal(9).input
    seed = random_seed(rng, x.dim)
    return Su2Design(x, seed, 9, su2_error(x, seed, 9))


BIT_DESIGNS = {
    **{f"phase n={n}": functools.partial(optimal_input, n) for n in (1, 10, 1000)},
    **{f"su2 n={n}": functools.partial(design_optimal, n) for n in (1, 2, 5, 601)},
    "random phase seed": lambda: random_phase_design(np.random.default_rng(1), 6),
    "random su2 seed": lambda: random_seed_su2_design(np.random.default_rng(2)),
}


def hostile_cdf(mass):
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    return cdf / cdf[-1]


def zero_runs(g):
    mass = np.ones(g)
    mass[:5] = mass[40:90] = mass[g // 2] = mass[-30:-29] = 0.0
    return mass


HOSTILE_CDFS = {
    "zero-mass runs": hostile_cdf(zero_runs(256)),
    "all mass in one bin": hostile_cdf(np.eye(4096)[1234]),
    "all mass in the first bin": hostile_cdf(np.eye(256)[0]),
    "trailing zero mass": hostile_cdf(np.concatenate([np.ones(200), np.zeros(56)])),
    # every CDF point on a cell edge c / 2^16
    "points on cell edges, g = 256": np.arange(257) / 256,
    "points on cell edges, g = 2^16": np.arange(2**16 + 1) / 2**16,
    "two points per cell": np.arange(2**17 + 1) / 2**17,
    "uneven, g = 4096": hostile_cdf(np.random.default_rng(3).exponential(size=4096) ** 4),
}


class TestBinLookup:
    @pytest.mark.parametrize("name", list(HOSTILE_CDFS))
    def test_matches_binary_search(self, name):
        cdf = HOSTILE_CDFS[name]
        g = cdf.size - 1
        points = cdf[cdf < 1.0]
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            np.arange(_CELLS) / _CELLS,
            points,
            np.nextafter(points, 1.0),
            np.nextafter(points[points > 0.0], 0.0),
            np.random.default_rng(7).random(100_000),
        ])
        want = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, g - 1)
        lo, sure = _guide_table(cdf)
        assert np.array_equal(_bins(cdf, lo, sure, u), want)

    @pytest.mark.parametrize("name", list(HOSTILE_CDFS))
    def test_guide_table_matches_searched_edges(self, name):
        cdf = HOSTILE_CDFS[name]
        ends = np.arange(_CELLS + 1) / _CELLS
        lo = np.minimum(np.searchsorted(cdf, ends, side="right") - 1, cdf.size - 2)
        got_lo, got_sure = _guide_table(cdf)
        assert np.array_equal(got_lo, lo)
        assert np.array_equal(got_sure, lo[:-1] == lo[1:])


class TestChunkedSampler:
    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_bits_match_one_shot_sampler(self, name):
        design = BIT_DESIGNS[name]()
        # every chunk boundary case on the default grid, and both grid
        # extremes on a short and a just-over-one-chunk run
        cases = [(trials, 4096) for trials in (2, 3, 2**16 - 1, 2**16, 2**16 + 1, 200_001)]
        cases += [(trials, g) for g in (256, 65536) for trials in (3, 2**16 + 1)]
        for trials, g in cases:
            config = SimConfig(trials, 11, g)
            got = dataclasses.astuple(simulate(config, design))
            assert list(map(repr, got)) == list(map(repr, reference_simulate(config, design)))

    def test_memory_per_trial(self):
        design = optimal_input(10)
        peaks = []
        for trials in (1_000_000, 4_000_000):
            tracemalloc.start()
            try:
                simulate(SimConfig(trials, 3), design)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 3_000_000 <= 10.0


class TestParallelSampler:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", ["phase n=10", "su2 n=5"])
    def test_bits_match_one_shot_sampler(self, monkeypatch, name, workers):
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: workers)
        design = BIT_DESIGNS[name]()
        for trials in (2, 3, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 1, 200_001):
            for g in (256, 4096):
                config = SimConfig(trials, 5, g)
                got = dataclasses.astuple(simulate(config, design))
                assert list(map(repr, got)) == list(
                    map(repr, reference_simulate(config, design))), (trials, g)

    def test_bits_under_fast_thread_switching(self, monkeypatch):
        """More threads than cores, switching every microsecond."""
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: 8)
        design = BIT_DESIGNS["su2 n=5"]()
        config = SimConfig(8 * 2**16 + 3, 23)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = dataclasses.astuple(simulate(config, design))
        finally:
            sys.setswitchinterval(interval)
        assert list(map(repr, got)) == list(map(repr, reference_simulate(config, design)))

    def test_error_on_a_thread_is_raised(self):
        def task(start, stop):
            if start:
                raise ZeroDivisionError(start)

        with pytest.raises(ZeroDivisionError):
            _run_split(task, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_cli_bits_on_one_cpu(self):
        """A run pinned to one CPU prints what a run on every CPU prints."""
        argv = ["simulate", "--protocol", "su2", "--n", "5",
                "--trials", str(3 * 2**16 + 1), "--seed", "17"]
        pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        src = os.path.dirname(os.path.dirname(SIMULATE_MODULE.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        results = []
        for prefix in ("", pin):
            code = (f"import os, sys; {prefix}from covest.cli import main; "
                    "sys.exit(main(sys.argv[1:]))")
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(proc.stdout)
            del payload["manifest"]["timestamp"]
            results.append(payload)
        assert results[0] == results[1]
