import math

import numpy as np
import pytest

import covest.phase
from conftest import ORACLE_SIZES, assert_digits, exact_sin2, gram, random_input_state, random_seed
from covest import (
    PhaseDesign,
    PhaseInputState,
    Seed,
    asymptotic_error,
    bdm_input,
    min_covariant_error,
    optimal_input,
    optimal_seed,
    phase_error,
    phase_kernel_matrix,
)


def closed_form_optimal_error(n):
    """Tridiagonal eigenvalue oracle: lambda_max = cos(pi/(n+2))."""
    return 0.5 * (1.0 - math.cos(math.pi / (n + 2)))


def kernel_oracle_error(x, t):
    """Brute-force assembly of the error from the U(1) kernel over levels 1..d."""
    xv, tm = x.amplitudes, gram(t)
    kernel = phase_kernel_matrix(np.arange(1, xv.size + 1))
    return float(np.sum(np.outer(np.conj(xv), xv) * tm.T * kernel).real)


class TestPhaseError:
    def test_single_level(self):
        x = PhaseInputState([1.0])
        t = Seed([[1.0]])
        assert phase_error(x, t) == pytest.approx(0.5, abs=1e-15)

    def test_two_level_all_ones_seed(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        t = Seed(np.ones((2, 1)))
        assert phase_error(x, t) == pytest.approx(0.25, abs=1e-15)

    def test_two_level_identity_seed(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        t = Seed(np.eye(2))
        assert phase_error(x, t) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phase_error(PhaseInputState([1.0]), Seed(np.eye(2)))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_kernel_oracle(self, d, rng):
        x = random_input_state(rng, d)
        t = random_seed(rng, d)
        assert phase_error(x, t) == pytest.approx(kernel_oracle_error(x, t), abs=1e-12)

    def test_never_below_minimum(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 21))
            x = random_input_state(rng, d)
            t = random_seed(rng, d)
            assert phase_error(x, t) >= min_covariant_error(x) - 1e-12


class TestOptimalSeed:
    def test_positive_amplitudes_give_all_ones(self, rng):
        a = np.abs(rng.normal(size=5)) + 0.1
        x = PhaseInputState(a / np.linalg.norm(a))
        assert np.allclose(gram(optimal_seed(x)), np.ones((5, 5)), atol=1e-14)

    def test_phase_pattern(self):
        x = PhaseInputState([1 / math.sqrt(2), 1j / math.sqrt(2)])
        t = gram(optimal_seed(x))
        assert t[0, 1] == pytest.approx(1j, abs=1e-15)
        assert t[1, 0] == pytest.approx(-1j, abs=1e-15)
        assert np.allclose(np.diag(t), 1.0)

    def test_rank_one(self, rng):
        x = random_input_state(rng, 6)
        seed = optimal_seed(x)
        assert seed.factor.shape == (6, 1)
        evals = np.linalg.eigvalsh(gram(seed))
        assert evals[-1] == pytest.approx(6.0, abs=1e-12)
        assert np.abs(evals[:-1]).max() < 1e-12

    def test_attains_minimum(self, rng):
        for _ in range(50):
            x = random_input_state(rng, int(rng.integers(1, 12)))
            err = phase_error(x, optimal_seed(x))
            assert err == pytest.approx(min_covariant_error(x), abs=1e-12)

    def test_zero_amplitude_convention(self):
        x = PhaseInputState([0.0, 1.0])
        t = optimal_seed(x)
        assert np.allclose(np.diag(gram(t)), 1.0)
        assert phase_error(x, t) == pytest.approx(min_covariant_error(x), abs=1e-12)

    def test_optimal_amplitudes_give_exactly_one_at_the_limit(self):
        """Every link t_k is exactly 1, so phase_error adds no (1 - |t_k|^2) terms."""
        x = optimal_input(10**6).input
        assert np.array_equal(optimal_seed(x).factor, np.ones((x.dim, 1)))

    def test_real_nonnegative_amplitudes_give_exactly_one(self):
        tiny = np.finfo(float).tiny
        x = PhaseInputState([1.0, 1e-310, 5e-324, tiny, 0.0, -0.0])
        assert np.array_equal(optimal_seed(x).factor, np.ones((6, 1)))

    @pytest.mark.parametrize("amplitude, phase", [
        (1e-310, 1.0), (-1e-310, -1.0), (1e-310j, 1j), (-3e-320 + 3e-320j, (-1 + 1j) / math.sqrt(2)),
    ])
    def test_subnormal_amplitudes(self, amplitude, phase):
        """A subnormal amplitude's seed entry still carries its phase."""
        x = PhaseInputState([1.0, amplitude])
        factor = optimal_seed(x).factor
        assert factor[0, 0] == 1.0
        assert factor[1, 0] == pytest.approx(np.conj(phase), abs=1e-15)
        assert phase_error(x, optimal_seed(x)) == pytest.approx(min_covariant_error(x), abs=1e-15)


class TestMinCovariantError:
    def test_single_level(self):
        assert min_covariant_error(PhaseInputState([1.0])) == pytest.approx(0.5)

    def test_builds_no_seed(self, monkeypatch):
        """The minimum is read off |x| directly, without an O(n) seed."""
        monkeypatch.setattr(covest.phase, "optimal_seed", None)
        monkeypatch.setattr(covest.phase, "Seed", None)
        assert min_covariant_error(bdm_input(2)) == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_uniform_amplitudes(self, n):
        x = PhaseInputState(np.ones(n + 1) / math.sqrt(n + 1))
        assert min_covariant_error(x) == pytest.approx(0.5 / (n + 1), abs=1e-12)

    def test_three_level_example(self):
        x = PhaseInputState([0.5, math.sqrt(2) / 2, 0.5])
        expected = 0.5 * (1.0 - math.sqrt(2) / 2)
        assert min_covariant_error(x) == pytest.approx(expected, abs=1e-12)

    def test_global_phase_invariance(self, rng):
        x = random_input_state(rng, 7)
        rotated = PhaseInputState(np.exp(1j * 0.77) * x.amplitudes)
        assert min_covariant_error(rotated) == pytest.approx(
            min_covariant_error(x), abs=1e-12
        )
        assert phase_error(rotated, optimal_seed(rotated)) == pytest.approx(
            phase_error(x, optimal_seed(x)), abs=1e-12
        )


class TestOptimalInput:
    def test_single_level(self):
        assert optimal_input(0).error == pytest.approx(0.5, abs=1e-15)

    def test_two_level(self):
        design = optimal_input(1)
        assert np.allclose(design.input.amplitudes.real, np.ones(2) / math.sqrt(2))
        assert design.error == pytest.approx(0.25, abs=1e-12)

    def test_three_level(self):
        design = optimal_input(2)
        expected = np.array([1.0, math.sqrt(2), 1.0]) / 2.0
        assert np.allclose(design.input.amplitudes.real, expected, atol=1e-12)
        assert design.error == pytest.approx(0.5 * (1 - math.cos(math.pi / 4)), abs=1e-12)

    @pytest.mark.parametrize("n", list(range(0, 101, 7)))
    def test_closed_form_eigenvalue(self, n):
        assert optimal_input(n).error == pytest.approx(
            closed_form_optimal_error(n), abs=1e-10
        )

    def test_monotone_in_n(self):
        errors = [optimal_input(n).error for n in range(0, 30)]
        assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:]))

    def test_nonnegative_amplitudes(self):
        assert np.all(optimal_input(25).input.amplitudes.real >= 0.0)

    def test_design_is_self_consistent(self):
        design = optimal_input(9)
        assert phase_error(design.input, design.seed) == pytest.approx(
            design.error, abs=1e-12
        )


class TestDigitsAgainstMpmath:
    """Errors within 1e-15 relative of their 40-digit values, up to n = 10^6."""

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_optimal_input_error(self, n):
        assert_digits(optimal_input(n).error, exact_sin2(2 * n + 4))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_phase_error_of_optimal_input(self, n):
        design = optimal_input(n)
        assert_digits(phase_error(design.input, design.seed), exact_sin2(2 * n + 4))

    @pytest.mark.parametrize("n", ORACLE_SIZES[1:])
    def test_bdm_error(self, n):
        """n sin^2(pi/(2(n+1)))/(n+1), the sine profile's closed form."""
        assert_digits(min_covariant_error(bdm_input(n)), n * exact_sin2(2 * (n + 1)) / (n + 1))

    @pytest.mark.parametrize("n", ORACLE_SIZES[1:])
    def test_bdm_closed_form(self, n):
        """The O(1) form that scaling rows read, without the amplitudes."""
        assert_digits(covest.phase._bdm_error(n), n * exact_sin2(2 * (n + 1)) / (n + 1))


class TestBdmInput:
    def test_two_levels(self):
        amps = bdm_input(1).amplitudes.real
        assert np.allclose(amps, np.ones(2) / math.sqrt(2), atol=1e-14)

    def test_three_levels(self):
        amps = bdm_input(2).amplitudes.real
        expected = math.sqrt(2.0 / 3.0) * np.array([0.5, 1.0, 0.5])
        assert np.allclose(amps, expected, atol=1e-14)
        assert min_covariant_error(bdm_input(2)) == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 57, 300])
    def test_normalized(self, n):
        assert np.sum(np.abs(bdm_input(n).amplitudes) ** 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_degenerate_n(self):
        with pytest.raises(ValueError):
            bdm_input(0)

    def test_never_beats_exact_optimum(self):
        for n in [1, 2, 3, 5, 10, 50, 200]:
            assert min_covariant_error(bdm_input(n)) >= optimal_input(n).error - 1e-14

    def test_asymptotically_optimal(self):
        ratio = min_covariant_error(bdm_input(1000)) / optimal_input(1000).error
        assert 1.0 <= ratio < 1.02


class TestAsymptoticError:
    def test_values(self):
        assert asymptotic_error(10) == pytest.approx(math.pi**2 / 400.0, abs=1e-15)
        assert asymptotic_error(1) == pytest.approx(math.pi**2 / 4.0, abs=1e-15)

    def test_matches_eigen_solver_at_large_n(self):
        ratio = optimal_input(1000).error / asymptotic_error(1000)
        assert 0.98 <= ratio <= 1.02


class TestValidation:
    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            PhaseInputState([1.0, 1.0])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ValueError):
            Seed(2.0 * np.eye(3))

    @pytest.mark.parametrize("factor", [[1.0, 1.0], np.ones((1, 1, 1)), np.ones((0, 1))])
    def test_factor_shape_rejected(self, factor):
        with pytest.raises(ValueError):
            Seed(factor)

    def test_seed_matrix_valid_by_construction(self, rng):
        for d in (1, 2, 5, 9):
            t = gram(random_seed(rng, d))
            assert np.abs(t - t.conj().T).max() < 1e-15
            assert np.abs(np.diag(t) - 1.0).max() < 1e-12
            assert np.linalg.eigvalsh(t).min() > -1e-12

    def test_design_error_consistency_enforced(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        with pytest.raises(ValueError):
            PhaseDesign(x, optimal_seed(x), 0.3)

    @pytest.mark.parametrize("amplitudes", [[math.nan, 1.0], [1.0, complex(math.nan, math.nan)]])
    def test_nan_amplitude_rejected(self, amplitudes):
        with pytest.raises(ValueError, match="unit norm"):
            PhaseInputState(amplitudes)

    @pytest.mark.parametrize("factor", [[[math.nan], [1.0]], [[1.0, math.nan]]])
    def test_nan_seed_rejected(self, factor):
        with pytest.raises(ValueError, match="unit norm"):
            Seed(factor)

    @pytest.mark.parametrize("rel, accepted", [(1e-14, True), (-1e-14, True),
                                               (1e-9, False), (-1e-9, False)])
    def test_design_error_checked_relative_to_the_recomputed_error(self, rel, accepted):
        """At n = 10^5 the error is 2.5e-10, so an absolute 1e-12 would pass 0.4 % off."""
        design = optimal_input(10**5)
        error = design.error * (1.0 + rel)
        if accepted:
            assert PhaseDesign(design.input, design.seed, error).error == error
        else:
            with pytest.raises(ValueError, match="inconsistent"):
                PhaseDesign(design.input, design.seed, error)

    def test_nan_design_error_rejected(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        with pytest.raises(ValueError, match="inconsistent"):
            PhaseDesign(x, optimal_seed(x), math.nan)

    @pytest.mark.parametrize("make, n", [
        (optimal_input, 2.0), (bdm_input, 1.5), (optimal_input, "3"), (bdm_input, None),
        (optimal_input, True), (asymptotic_error, math.nan), (asymptotic_error, 2.5),
        (asymptotic_error, True),
    ])
    def test_non_integer_n_rejected(self, make, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            make(n)

    def test_numpy_integer_n_accepted(self):
        assert optimal_input(np.int64(4)).error == optimal_input(4).error
        assert np.array_equal(bdm_input(np.uint8(4)).amplitudes, bdm_input(4).amplitudes)
