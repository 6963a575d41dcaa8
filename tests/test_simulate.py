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
import scipy.integrate
import scipy.stats

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
from covest.cli import MAX_TRIALS
from covest.simulate import (
    G,
    _autocorrelation,
    _bin_integrals,
    _mixture,
    _on_grid,
    _padded_fft,
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


def random_seed_su2_design(rng, n=9):
    x = design_optimal(n).input
    seed = random_seed(rng, x.dim)
    return Su2Design(x, seed, n, su2_error(x, seed, n))


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

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 41, 42])
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


# |law_gap| of a valid design: the roundoff of the loss integrals' sum and
# of the closed form
ROUNDOFF = 1e-15


def loss_integrand(design):
    """p(phi) sin^2(phi/2), the law summed directly from its coefficients."""
    return lambda phi: law(design, phi) * math.sin(phi / 2.0) ** 2


class TestLawBias:
    def test_accounts_for_large_n_grid_fault(self):
        """Phase n = 1000 at 10^6 trials, whose scores of bin means of the loss
        on 4096 bins once put the z-score 17.55 standard errors off: the
        exact loss integrals leave no offset."""
        design = optimal_input(1000)
        res = simulate(SimConfig(1_000_000, 20040725), design)
        assert G == 4096
        assert abs(res.law_gap) <= ROUNDOFF
        assert abs(res.law_gap) / res.standard_error < 1e-6
        assert abs(res.z_score) < 4.0

    @pytest.mark.parametrize("protocol, n", [("phase", 10), ("su2", 5)])
    def test_negligible_at_small_n(self, protocol, n):
        design = optimal_input(n) if protocol == "phase" else design_optimal(n)
        res = simulate(SimConfig(100_000, 42), design)
        assert abs(res.law_gap) <= ROUNDOFF

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_loss_integrals_sum_to_the_error(self, name):
        """sum_i M_i is the law's exact mean loss, the design's error, on any
        grid: coarser than the law (phase n = 1000 on 256 bins) or finer.
        2^22 bins take 0.8 s and 256 MiB, so only the two largest laws get them."""
        design = BIT_DESIGNS[name]()
        coefficients = outcome_coefficients(design)
        finest = (1 << 22,) if name in ("phase n=1000", "su2 n=601") else ()
        for g in (256, G, 1 << 16, *finest):
            assert abs(math.fsum(_bin_integrals(coefficients, g)[1]) - design.error) <= ROUNDOFF


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
        got = _bin_integrals(coefficients, g)[0][bins]
        assert np.abs(got - want).max() < 1e-12 * want.max()

    @pytest.mark.parametrize("name, design", [
        ("random phase d=5", lambda rng: random_phase_design(rng, 5)),
        ("random phase d=9", lambda rng: random_phase_design(rng, 9)),
        ("random su2 n=9", lambda rng: random_seed_su2_design(rng)),
        ("random su2 n=10", lambda rng: random_seed_su2_design(rng, 10)),
        ("su2 n=5", lambda rng: design_optimal(5)),
        ("su2 n=6", lambda rng: design_optimal(6)),
    ])
    def test_loss_integrals_match_quadrature(self, rng, name, design):
        """M_i against adaptive quadrature of p sin^2(phi/2) over bin i, with
        the law summed directly: the first and last four bins, where the loss
        is nearly zero, and every 97th bin between."""
        design = design(rng)
        h = 2.0 * math.pi / G
        bins = np.r_[0:4, 1:G:97, G - 4:G]
        want = [scipy.integrate.quad(loss_integrand(design), i * h, (i + 1) * h,
                                     epsabs=1e-17, epsrel=1e-13)[0] for i in bins]
        got = _bin_integrals(outcome_coefficients(design), G)[1][bins]
        assert np.abs(got - want).max() <= ROUNDOFF

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_total_mass_is_one(self, name):
        """F(2 pi) = 2 pi C_0 = 1: the masses telescope, up to the rounding of
        each mass."""
        coefficients = outcome_coefficients(BIT_DESIGNS[name]())
        for g in (256, 4096, 65536):
            masses = _bin_integrals(coefficients, g)[0]
            assert abs(math.fsum(masses) - 1.0) < 1e-15 + g * 1e-18

    def test_mixture_weights(self):
        p = np.array([0.0, 0.25, 0.75, 0.0])
        assert np.allclose(_mixture(p), 0.5 * p + 0.125, rtol=0, atol=1e-16)
        assert np.sum(_mixture(p)) == 1.0

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_scores_keep_the_binned_mean(self, name):
        """Drawn from the mixture q, the scores M/q average to the law's mean
        loss sum M."""
        coefficients = outcome_coefficients(BIT_DESIGNS[name]())
        for g in (256, 4096, 65536):
            p, loss = _bin_integrals(coefficients, g)
            q = _mixture(p)
            want = math.fsum(loss)
            assert abs(math.fsum(q * (loss / q)) - want) <= 1e-14 * want


class TestStandardError:
    @pytest.mark.parametrize("name", ["phase n=10", "su2 n=601"])
    def test_empirical_matches_exact(self, name):
        """At 10^6 trials the empirical standard error is within 2 % of the
        estimator's exact one, sqrt((sum M^2/q - mu^2)/N)."""
        trials = 1_000_000
        res = simulate(SimConfig(trials, 8), BIT_DESIGNS[name]())
        p, loss = _bin_integrals(outcome_coefficients(BIT_DESIGNS[name]()), G)
        mean = np.sum(loss)
        exact = math.sqrt((np.sum(loss * loss / _mixture(p)) - mean * mean) / trials)
        assert res.standard_error == pytest.approx(exact, rel=0.02)


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
        with pytest.raises(ValueError):
            SimConfig(0, 0)
        assert [f.name for f in dataclasses.fields(SimConfig)] == ["trials", "seed"]

    @pytest.mark.parametrize("args, name", [
        ((2.5, 1), "trials"), ((10, 1.0), "seed"), ((10, True), "seed"),
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
            _bin_integrals(np.array([1.0 / (2.0 * math.pi), 1.0]), 256)


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


def one_shot(config, design):
    """Mean and M2 of the trials' scores listed one by one, np.repeat(score,
    counts), and the number of bins drawn, with the counts drawn as simulate
    draws them."""
    p, loss = _bin_integrals(outcome_coefficients(design), G)
    q = _mixture(p)
    counts = np.random.default_rng(config.seed).multinomial(config.trials, q)
    y = np.repeat(loss / q, counts)
    mean = math.fsum(y) / config.trials
    return mean, math.fsum((y - mean) ** 2), np.count_nonzero(counts)


# draws of two and three trials that all land in one bin of phase n = 1000;
# at seed 64078 fl(3 s) / 3 is not s, so a mean of counts . score / trials
# would leave a tiny positive M2, and a huge z-score in place of the error
ONE_BIN_DRAWS = [(2, 16), (3, 458), (3, 1074), (3, 64078)]


class TestCountSampler:
    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_counts_give_one_shot_moments(self, name):
        """The mean and M2 summed over the bin counts are those of the trials'
        scores listed one by one, to a few ulps, and a draw whose trials all
        share a bin is a ValueError."""
        for trials, seed in [(t, s) for t in (2, 3, 1000, 1001, 200_001) for s in (11, 12)]:
            config = SimConfig(trials, seed)
            mean, m2, occupied = one_shot(config, BIT_DESIGNS[name]())
            if occupied == 1:
                with pytest.raises(ValueError, match="no standard error"):
                    simulate(config, BIT_DESIGNS[name]())
                continue
            res = simulate(config, BIT_DESIGNS[name]())
            assert abs(res.empirical_mean_error - mean) <= 4e-16 * mean, (trials, seed)
            se = math.sqrt(m2 / (trials - 1) / trials)
            assert abs(res.standard_error - se) <= 1e-12 * se, (trials, seed)

    @pytest.mark.parametrize("trials, seed", ONE_BIN_DRAWS)
    def test_draw_in_one_bin_has_no_standard_error(self, trials, seed):
        config = SimConfig(trials, seed)
        assert one_shot(config, optimal_input(1000))[2] == 1
        with pytest.raises(ValueError, match=f"all {trials} trials drew the same score"):
            simulate(config, optimal_input(1000))

    @pytest.mark.parametrize("name", list(BIT_DESIGNS))
    def test_counts_pass_chi_square(self, name):
        """One fixed-seed draw of 10^7 trials over 256 bins, against the
        expected counts N q of the defensive mixture."""
        trials = 10_000_000
        q = _mixture(_bin_integrals(outcome_coefficients(BIT_DESIGNS[name]()), 256)[0])
        counts = np.random.default_rng(2024).multinomial(trials, q)
        assert scipy.stats.chisquare(counts, trials * q).pvalue > 1e-3

    def test_memory_does_not_grow_with_trials(self):
        """Peak traced memory is the grid's alone, from 10^5 trials to the
        CLI's limit.  A first run, untraced, fills numpy's one-time caches."""
        design = optimal_input(10)
        simulate(SimConfig(100_000, 3), design)
        peaks = []
        for trials in (100_000, MAX_TRIALS):
            tracemalloc.start()
            try:
                simulate(SimConfig(trials, 3), design)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 2**16
        assert max(peaks) <= 3.3 * 2**20

    def test_cli_bits_in_two_processes(self):
        """Two processes print the same bits: one pinned to one CPU with one
        BLAS thread, one with two BLAS threads on every CPU."""
        argv = ["simulate", "--protocol", "phase", "--n", "1000",
                "--trials", "1000000", "--seed", "20040725"]
        pin = ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
               if hasattr(os, "sched_setaffinity") else "")
        src = os.path.dirname(os.path.dirname(SIMULATE_MODULE.__file__))
        results = []
        for prefix, threads in (("", "2"), (pin, "1")):
            code = (f"import os, sys; {prefix}from covest.cli import main; "
                    "sys.exit(main(sys.argv[1:]))")
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code, *argv],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            payload = json.loads(proc.stdout)
            del payload["manifest"]["timestamp"]
            results.append(payload)
        assert results[0] == results[1]
        want = dataclasses.asdict(simulate(SimConfig(1_000_000, 20040725), optimal_input(1000)))
        assert results[0]["result"] == {**want, "pass": True}
