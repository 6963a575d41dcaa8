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
    _CELLS_PER_BIN,
    _CHUNK,
    _MIN_GRID,
    _SIN,
    _VERSIN,
    MAX_GRID_SIZE,
    _autocorrelation,
    _bin_masses,
    _bin_moments,
    _bins,
    _grid_size,
    _guide_table,
    _mixture,
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
        """On the old 4096-bin grid, phase n = 1000 fails its z-gate by the
        law's bias; the grid sized from the law removes it."""
        design = optimal_input(1000)
        res = simulate(SimConfig(1_000_000, 20040725, 4096), design)
        # pinned to the last bit
        assert res.z_score == 17.24148720253304
        offset = res.law_bias / res.standard_error
        assert offset > 10.0
        assert abs(res.z_score - offset) < 4.0
        res = simulate(SimConfig(1_000_000, 20040725), design)
        assert abs(res.law_bias) < res.standard_error / 10.0
        assert abs(res.z_score) < 4.0

    @pytest.mark.parametrize("protocol, n", [("phase", 10), ("su2", 5)])
    def test_negligible_at_small_n(self, protocol, n):
        design = optimal_input(n) if protocol == "phase" else design_optimal(n)
        res = simulate(SimConfig(100_000, 42), design)
        assert abs(res.law_bias) < res.standard_error / 10.0

    @pytest.mark.parametrize("name", ["phase n=10", "phase n=1000", "su2 n=601"])
    @pytest.mark.parametrize("g", [4096, 65536])
    def test_matches_second_order_form(self, name, g):
        """With exact bin masses only the uniform draw within a bin biases
        the law, by about h^2 (1 - 2 D)/24 (the mean of the loss's second
        derivative times the within-bin variance)."""
        design = BIT_DESIGNS[name]()
        h = 2.0 * math.pi / g
        law_bias = float(np.dot(_bin_masses(outcome_coefficients(design), g),
                                _bin_moments(g)[0])) - design.error
        assert law_bias == pytest.approx(h * h * (1.0 - 2.0 * design.error) / 24.0, rel=2e-3)


class TestBinnedLaw:
    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_bin_masses_are_the_law_integrals(self, name):
        """Every seventh bin's mass against 12-node Gauss-Legendre quadrature
        of the directly summed law, which is exact to roundoff for at most
        1.5 radians of the top frequency per bin."""
        design = BIT_DESIGNS[name]()
        coefficients = outcome_coefficients(design)
        g = 256 if coefficients.size <= 64 else 4096
        nodes, weights = np.polynomial.legendre.leggauss(12)
        h = 2.0 * math.pi / g
        bins = np.arange(0, g, 7)
        phi = (bins[:, None] + (nodes + 1.0) / 2.0) * h
        want = law(design, phi) @ weights * (h / 2.0)
        got = _bin_masses(coefficients, g)[bins]
        assert np.abs(got - want).max() < 1e-12 * want.max()

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_total_mass_is_one(self, name):
        """F(2 pi) = 2 pi C_0 = 1: the masses telescope, up to the rounding of
        each mass."""
        coefficients = outcome_coefficients(BIT_DESIGNS[name]())
        for g in (256, 4096, 65536):
            masses = _bin_masses(coefficients, g)
            assert abs(math.fsum(masses) - 1.0) < 1e-15 + g * 1e-18

    def test_bin_moments_match_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(12)
        for g in (256, 4096):
            h = 2.0 * math.pi / g
            phi = (np.arange(g)[:, None] + (nodes + 1.0) / 2.0) * h
            loss = np.sin(phi / 2.0) ** 2
            loss_mean, square_mean = _bin_moments(g)
            # relative, since both means fall to about h^2/12 and h^4/80 at 0
            assert np.allclose(loss_mean, loss @ weights / 2.0, rtol=2e-12, atol=0.0)
            assert np.allclose(square_mean, loss**2 @ weights / 2.0, rtol=2e-12, atol=0.0)

    def test_mixture_weights(self):
        p = np.array([0.0, 0.25, 0.75, 0.0])
        cdf, q, weight = _mixture(p)
        assert np.allclose(q, 0.5 * p + 0.125, rtol=0, atol=1e-16)
        assert np.array_equal(cdf, np.concatenate([[0.0], np.cumsum(q)]))
        assert np.allclose(weight * q, p, rtol=0, atol=1e-16)

    def test_scores_match_direct_loss(self):
        """The Taylor-series score equals p/q sin^2(phi/2) of the angle the
        within-bin uniform gives, on the coarsest and a fine grid."""
        design = optimal_input(10)
        for g in (256, 65536):
            cdf, q, weight = _mixture(_bin_masses(outcome_coefficients(design), g))
            u = np.random.default_rng(4).random(100_000)
            got = reference_scores(u, cdf, q, weight)
            idx = np.searchsorted(cdf, u, side="right") - 1
            h = 2.0 * math.pi / g
            phi = (idx + (u - cdf[idx]) / q[idx]) * h
            want = weight[idx] * np.sin(phi / 2.0) ** 2
            assert np.abs(got - want).max() <= 4e-16 * weight.max()


class TestGridSize:
    @pytest.mark.parametrize("name, trials, g", [
        ("phase n=10", 10_000_000, 4096), ("su2 n=5", 10_000_000, 4096),
        ("su2 n=601", 100_000, 16384), ("phase n=1000", 1_000_000, 65536)])
    def test_benchmark_grids(self, monkeypatch, name, trials, g):
        """The grid is the first power of two whose bias h^2/24 is a tenth of
        the exact standard error on that grid, and simulate stops there."""
        coefficients = outcome_coefficients(BIT_DESIGNS[name]())
        for size in (_MIN_GRID, g):
            p = _bin_masses(coefficients, size)
            assert _grid_size(p, *_bin_moments(size), trials) == g
        grids = []
        masses = SIMULATE_MODULE._bin_masses
        monkeypatch.setattr(SIMULATE_MODULE, "_bin_masses",
                            lambda c, size: grids.append(size) or masses(c, size))
        simulate(SimConfig(trials, 1), BIT_DESIGNS[name]())
        assert grids == sorted({_MIN_GRID, g})

    def test_large_n_refines_to_its_own_standard_error(self, monkeypatch):
        """At n = 10^4 the 4096-bin law is wider than the true one, so its
        standard error overstates the estimator's fourfold; the grid is
        refined on the finer law until the bias is a tenth of its own."""
        grids = []
        masses = SIMULATE_MODULE._bin_masses
        monkeypatch.setattr(SIMULATE_MODULE, "_bin_masses",
                            lambda c, size: grids.append(size) or masses(c, size))
        res = simulate(SimConfig(100_000, 3), optimal_input(10_000))
        assert grids == [4096, 131072, 524288]
        assert abs(res.law_bias) < res.standard_error / 10.0
        assert abs(res.z_score) < 4.0

    def test_past_the_limit_is_an_error(self):
        with pytest.raises(ValueError, match=f"more than {MAX_GRID_SIZE} bins"):
            simulate(SimConfig(20_000_000, 1), optimal_input(100_000))


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


def unchecked(cls, **fields):
    """An instance of a frozen dataclass made without its __post_init__ checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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

    def test_su2_n601_gate_on_heavy_tailed_seed(self):
        """Round 5 of bench/run.py --seed 24, where the plain sample mean of
        the heavy-tailed losses once gave z = -4.40."""
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
        for g in (100, 1000, 128, 2 * MAX_GRID_SIZE):
            with pytest.raises(ValueError):
                SimConfig(10, 0, grid_size=g)
        with pytest.raises(ValueError):
            SimConfig(0, 0)
        assert SimConfig(10, 0).grid_size is None
        assert SimConfig(10, 0, MAX_GRID_SIZE).grid_size == MAX_GRID_SIZE
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "trials", "seed", "grid_size"]

    @pytest.mark.parametrize("args, name", [
        ((2.5, 1), "trials"), ((10, 1.0), "seed"), ((10, 1, 4096.0), "grid_size"),
        (("10", 1), "trials")])
    def test_config_integers(self, args, name):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SimConfig(*args)

    def test_numpy_integers_accepted(self):
        assert SimConfig(np.int64(10), np.uint32(3)).trials == 10

    def test_nan_error_rejected(self):
        # the constructor rejects a NaN error; simulate does too, on a design
        # that bypassed it
        good = optimal_input(3)
        bad = unchecked(PhaseDesign, input=good.input, seed=good.seed, error=math.nan)
        with pytest.raises(ValueError, match="not a finite number"):
            simulate(SimConfig(100, 0), bad)

    def test_nan_law_rejected(self):
        """A NaN amplitude that bypassed the constructors' checks is stopped by
        the bin-mass check before the sampler."""
        x = unchecked(PhaseInputState, amplitudes=np.array([math.nan, 1.0], complex))
        design = unchecked(PhaseDesign, input=x, seed=Seed(np.ones((2, 1))), error=0.25)
        with pytest.raises(ValueError, match="negative bin mass"):
            simulate(SimConfig(100, 0), design)

    def test_negative_law_rejected(self):
        # 1/(2 pi) + cos(phi) is normalized but negative near phi = pi
        with pytest.raises(ValueError, match="negative bin mass"):
            _bin_masses(np.array([1.0 / (2.0 * math.pi), 1.0]), 256)


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


def reference_scores(u, cdf, q, weight):
    """p/q sin^2(phi/2) for uniforms u, each bin found by a binary search over
    the whole CDF and each score written as one expression, in the sampler's
    order of operations."""
    g = q.size
    width = 2.0 * math.pi / g
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, g - 1)
    d = ((u - cdf[idx]) / q[idx] - 0.5) * width
    t = d * d
    sin_d = (((t * _SIN[0] + _SIN[1]) * t + _SIN[2]) * t + 1.0) * d
    versin_d = (((t * _VERSIN[0] + _VERSIN[1]) * t + _VERSIN[2]) * t + _VERSIN[3]) * t
    centre = (np.arange(g) + 0.5) * width
    level = weight * np.sin(centre / 2.0) ** 2
    even, odd = 0.5 * weight * np.cos(centre), 0.5 * weight * np.sin(centre)
    return versin_d * even[idx] + sin_d * odd[idx] + level[idx]


def reference_simulate(config, design):
    """The sampler on one thread and without a guide table: each chunk's
    uniforms from its own spawned stream, scored by reference_scores, and the
    chunk means and squared deviations merged in chunk order."""
    coefficients, closed = outcome_coefficients(design), design.error
    trials = config.trials
    g = config.grid_size or _MIN_GRID
    p = _bin_masses(coefficients, g)
    while config.grid_size is None and _grid_size(p, *_bin_moments(g), trials) > g:
        g = _grid_size(p, *_bin_moments(g), trials)
        p = _bin_masses(coefficients, g)
    law_bias = float(np.dot(p, _bin_moments(g)[0])) - closed
    cdf, q, weight = _mixture(p)
    chunks = -(-trials // _CHUNK)
    count, mean, m2 = 0, 0.0, 0.0
    for stream in np.random.SeedSequence(config.seed).spawn(chunks):
        u = np.random.default_rng(stream).random(min(_CHUNK, trials - count))
        y = reference_scores(u, cdf, q, weight)
        chunk_mean = y.sum() / y.size
        chunk_m2 = ((y - chunk_mean) ** 2).sum()
        total = count + y.size
        delta = float(chunk_mean) - mean
        mean += delta * y.size / total
        m2 += float(chunk_m2) + delta * delta * count * y.size / total
        count = total
    se = math.sqrt(m2 / (trials - 1) / trials)
    return (mean, se, closed, (mean - closed) / se, law_bias)


@functools.lru_cache(maxsize=None)
def reference_bits(name, trials, seed, g):
    return list(map(repr, reference_simulate(SimConfig(trials, seed, g), BIT_DESIGNS[name]())))


def bits(name, trials, seed, g):
    return list(map(repr, dataclasses.astuple(
        simulate(SimConfig(trials, seed, g), BIT_DESIGNS[name]()))))


def hostile_cdf(mass):
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    return cdf / cdf[-1]


def zero_runs(g):
    mass = np.ones(g)
    mass[:5] = mass[40:90] = mass[g // 2] = mass[-30:-29] = 0.0
    return mass


# the sampler's cell count at 4096 bins, and the old fixed one
CELLS = 2**16

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
            np.arange(CELLS) / CELLS,
            points,
            np.nextafter(points, 1.0),
            np.nextafter(points[points > 0.0], 0.0),
            np.random.default_rng(7).random(100_000),
        ])
        want = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, g - 1)
        lo, steps = _guide_table(cdf, CELLS)
        work = np.empty(u.size, np.intp), np.empty(u.size)
        assert np.array_equal(_bins(cdf, lo, steps, u, *work), want)

    @pytest.mark.parametrize("name", list(HOSTILE_CDFS))
    def test_guide_table_matches_searched_edges(self, name):
        cdf = HOSTILE_CDFS[name]
        ends = np.arange(CELLS + 1) / CELLS
        lo = np.minimum(np.searchsorted(cdf, ends, side="right") - 1, cdf.size - 2)
        inside = np.searchsorted(cdf, ends[1:], side="left") - np.searchsorted(
            cdf, ends[:-1], side="right")
        got_lo, got_steps = _guide_table(cdf, CELLS)
        assert np.array_equal(got_lo, lo)
        assert got_steps == max(inside.max(), 0)

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_one_comparison_on_every_mixture(self, name):
        """Every mixture bin spans at least one of the sampler's cells, so no
        cell holds two CDF points strictly inside it."""
        coefficients = outcome_coefficients(BIT_DESIGNS[name]())
        for g in (256, 4096, 65536):
            cdf = _mixture(_bin_masses(coefficients, g))[0]
            assert _guide_table(cdf, _CELLS_PER_BIN * g)[1] <= 1


class TestChunkedSampler:
    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_bits_match_one_shot_sampler(self, name):
        # every chunk boundary case on the automatic grid, and both grid
        # extremes on a short and a just-over-one-chunk run
        cases = [(trials, None) for trials in (2, 3, 2**16 - 1, 2**16, 2**16 + 1, 200_001)]
        cases += [(trials, g) for g in (256, 65536) for trials in (3, 2**16 + 1)]
        for trials, g in cases:
            assert bits(name, trials, 11, g) == reference_bits(name, trials, 11, g), (trials, g)

    def test_memory_per_trial(self, monkeypatch):
        """Peak traced memory does not grow with the trial count, on one thread."""
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: 1)
        design = optimal_input(10)
        peaks = []
        for trials in (100_000, 4_000_000):
            tracemalloc.start()
            try:
                simulate(SimConfig(trials, 3), design)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**20


# enough chunks for 5 threads of 8
MANY_CHUNKS = 40 * 2**16 + 1


class TestParallelSampler:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", ["phase n=10", "su2 n=5"])
    def test_bits_match_one_shot_sampler(self, monkeypatch, name, workers):
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: workers)
        cases = [(trials, g) for trials in (2, 2**16 + 1, 3 * 2**16 + 1, 200_001)
                 for g in (256, None)]
        for trials, g in cases + [(MANY_CHUNKS, None)]:
            assert bits(name, trials, 5, g) == reference_bits(name, trials, 5, g), (trials, g)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size", [1000, 2**16])
    def test_bits_on_any_pass_size(self, monkeypatch, size, workers):
        """Passes that do not divide a chunk, and passes of a whole chunk."""
        monkeypatch.setattr(SIMULATE_MODULE, "_PASS", size)
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: workers)
        for name in ("phase n=10", "su2 n=5"):
            for trials, g in [(2, 256), (2**16 + 1, None), (17 * 2**16 - 5, None)]:
                assert bits(name, trials, 5, g) == reference_bits(name, trials, 5, g), (trials, g)

    def test_memory_on_two_threads(self, monkeypatch):
        """Peak traced memory with two threads, each holding a chunk and its
        pass-size work arrays, beside the grid's tables."""
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            simulate(SimConfig(4_000_000, 3), optimal_input(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * 2**20

    def test_bits_under_fast_thread_switching(self, monkeypatch):
        """More threads than cores, switching every microsecond."""
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: 8)
        trials = 64 * 2**16 + 3
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = bits("su2 n=5", trials, 23, None)
        finally:
            sys.setswitchinterval(interval)
        assert got == reference_bits("su2 n=5", trials, 23, None)

    @pytest.mark.parametrize("chunks, workers", [(1, 1), (7, 1), (16, 2), (40, 5), (153, 19)])
    def test_threads_get_at_least_eight_chunks(self, monkeypatch, chunks, workers):
        """On a host with 1000 CPUs each thread still gets 8 chunks or more;
        the ranges run here one after another, so no thread starts."""
        monkeypatch.setattr(SIMULATE_MODULE, "_cpu_count", lambda: 1000)
        calls = []

        def serial(task, ranges):
            calls.append(ranges)
            for start, stop in ranges:
                task(start, stop)

        monkeypatch.setattr(SIMULATE_MODULE, "_run_split", serial)
        config = SimConfig((chunks - 1) * 2**16 + 5, 9)
        got = simulate(config, optimal_input(2))
        [ranges] = calls
        assert len(ranges) == workers
        assert ranges[0][0] == 0 and ranges[-1][1] == chunks
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(stop - start >= 8 for start, stop in ranges) or workers == 1
        monkeypatch.undo()
        assert repr(got) == repr(simulate(config, optimal_input(2)))

    def test_error_on_a_thread_is_raised(self):
        def task(start, stop):
            if start:
                raise ZeroDivisionError(start)

        with pytest.raises(ZeroDivisionError):
            _run_split(task, [(0, 1), (1, 2), (2, 3)])

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_cli_bits_on_one_cpu(self):
        """A run pinned to one CPU prints what a run on every CPU prints, each
        in its own process."""
        argv = ["simulate", "--protocol", "su2", "--n", "5",
                "--trials", str(MANY_CHUNKS), "--seed", "17"]
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
        assert results[0]["result"]["empirical_mean_error"] == float(
            reference_bits("su2 n=5", MANY_CHUNKS, 17, None)[0])
