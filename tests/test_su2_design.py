import ast
import math
import pathlib

import numpy as np
import pytest

import covest
from conftest import ORACLE_SIZES, assert_digits, exact_sin2, random_seed
from covest import (
    PhaseInputState,
    Seed,
    Su2Design,
    asymptotic_error_su2,
    design_optimal,
    min_covariant_error,
    multiplicity_spectrum,
    optimal_input,
    optimal_seed,
    phase_error,
    su2_error,
)
from mc_oracle import brute_force_su2_error


def usable_dims(n):
    """Dims whose multiplicity can host the reference: multiplicity >= dim."""
    return tuple(dim for dim, mult in multiplicity_spectrum(n) if mult >= dim)


def random_blocks(rng, n):
    """Random nonnegative unit amplitudes over the n // 2 + 1 blocks of n uses."""
    size = n // 2 + 1
    a = np.abs(rng.normal(size=size)) + 1e-3
    return PhaseInputState(a / np.linalg.norm(a))


def block_formula_error(x, n):
    """Optimal-seed error (1/2)(1 - sum a_k a_{k+1}), plus a_0^2/4 for even n."""
    a = x.amplitudes.real
    err = 0.5 * (1.0 - float(np.sum(a[:-1] * a[1:])))
    return err + (0.25 * float(a[0]) ** 2 if n % 2 == 0 else 0.0)


class TestSu2ErrorOdd:
    """su2_error on odd n: the phase functional of the block amplitudes."""

    def test_single_block(self):
        assert su2_error(PhaseInputState([1.0]), Seed([[1.0]]), 1) == pytest.approx(0.5)

    def test_two_blocks_all_ones(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        assert su2_error(x, Seed(np.ones((2, 1))), 3) == pytest.approx(0.25, abs=1e-15)

    def test_identity_seed_no_interference(self, rng):
        x = random_blocks(rng, 9)
        assert su2_error(x, Seed(np.eye(5)), 9) == pytest.approx(0.5, abs=1e-12)

    def test_phase_problem_equivalence(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10)) * 2 - 1
            x = random_blocks(rng, n)
            t = random_seed(rng, x.dim)
            assert su2_error(x, t, n) == pytest.approx(phase_error(x, t), abs=1e-12)


class TestMinSu2ErrorOdd:
    """su2_error with the optimal seed on odd n: the minimum covariant error."""

    def test_single_block(self):
        x = PhaseInputState([1.0])
        assert su2_error(x, optimal_seed(x), 1) == pytest.approx(0.5)

    def test_matches_optimal_seed(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9)) * 2 - 1
            x = random_blocks(rng, n)
            minimum = min_covariant_error(x)
            assert su2_error(x, optimal_seed(x), n) == pytest.approx(minimum, abs=1e-12)
            assert block_formula_error(x, n) == pytest.approx(minimum, abs=1e-12)

    def test_optimal_amplitudes_reach_phase_optimum(self):
        d = 4
        pd = optimal_input(d - 1)
        x = PhaseInputState(pd.input.amplitudes.real)
        assert su2_error(x, optimal_seed(x), 2 * d - 1) == pytest.approx(
            pd.error, abs=1e-12
        )

    def test_large_n_scaling(self):
        n = 999
        err = design_optimal(n).error
        assert err * n * n == pytest.approx(math.pi**2, rel=0.05)


class TestSu2ErrorEven:
    """su2_error on even n: the phase functional plus a_0^2/4."""

    def test_single_block_no_trivial_mass(self):
        x = PhaseInputState([0.0, 1.0])
        assert su2_error(x, optimal_seed(x), 2) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_two_blocks(self):
        x = PhaseInputState(np.ones(2) / math.sqrt(2))
        expected = brute_force_su2_error(x, Seed(np.ones((2, 1))), 2)
        assert su2_error(x, optimal_seed(x), 2) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.375, abs=1e-12)


class TestDesignOptimal:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 999, 12345])
    def test_phase_optimum_is_the_odd_su2_optimum(self, n):
        """n phase uses and 2n+1 SU(2) uses share the profile on the dimensions 2, ..., 2n+2."""
        phase, su2 = optimal_input(n), design_optimal(2 * n + 1)
        assert np.array_equal(phase.input.amplitudes, su2.input.amplitudes)
        assert np.array_equal(phase.seed.factor, su2.seed.factor)
        assert phase.error == su2.error

    @pytest.mark.parametrize("n, mode, top", [
        *((n, "external", n + 1) for n in ORACLE_SIZES[1:]),
        *((n, "self-entangled", n - 1) for n in ORACLE_SIZES[2:]),
    ])
    def test_error_digits_against_mpmath(self, n, mode, top):
        """sin^2(pi/(D+2)) within 1e-15 relative of its 40-digit value."""
        assert_digits(design_optimal(n, mode).error, exact_sin2(top + 2))

    @pytest.mark.parametrize("rel, accepted", [(1e-14, True), (1e-9, False)])
    def test_error_checked_relative_to_the_recomputed_error(self, rel, accepted):
        design = design_optimal(10**5)
        error = design.error * (1.0 + rel)
        if accepted:
            assert Su2Design(design.input, design.seed, design.n, error).error == error
        else:
            with pytest.raises(ValueError, match="inconsistent"):
                Su2Design(design.input, design.seed, design.n, error)

    def test_odd_external(self):
        assert design_optimal(3).error == pytest.approx(0.25, abs=1e-12)

    def test_even_external_sandwich(self):
        err = design_optimal(4).error
        assert optimal_input(2).error - 1e-10 <= err <= optimal_input(1).error + 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 20, 50])
    def test_sandwich_bound(self, d):
        err = design_optimal(2 * d).error
        lower = optimal_input(d).error
        upper = optimal_input(d - 1).error
        assert lower - 1e-10 <= err <= upper + 1e-10

    def test_self_entangled_n5(self):
        # usable blocks: dim 2 (mult 5) and dim 4 (mult 4); two-level phase problem
        design = design_optimal(5, "self-entangled")
        assert design.error == pytest.approx(0.25, abs=1e-12)
        assert design.input.amplitudes[-1] == 0.0

    def test_self_entangled_infeasible(self):
        with pytest.raises(ValueError):
            design_optimal(1, "self-entangled")

    def test_self_entangled_matches_phase_optimum_over_usable_set(self):
        for n in [3, 5, 7, 9, 21]:
            usable = len(usable_dims(n))
            design = design_optimal(n, "self-entangled")
            assert design.error == pytest.approx(
                optimal_input(usable - 1).error, abs=1e-12
            )

    def test_error_consistent_with_block_formula(self):
        for n in (6, 7):
            design = design_optimal(n)
            assert su2_error(design.input, design.seed, n) == pytest.approx(
                design.error, abs=1e-12
            )
            assert block_formula_error(design.input, n) == pytest.approx(
                design.error, abs=1e-12
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            design_optimal(3, "telepathic")

    def test_closed_form_regression(self):
        for n in range(1, 401):
            design = design_optimal(n)
            a = design.input.amplitudes
            assert abs(design.error - math.sin(math.pi / (n + 3)) ** 2) <= 1e-12
            assert np.all(a.real >= 0.0) and np.all(a.imag == 0.0)
            assert block_formula_error(design.input, n) == pytest.approx(
                design.error, abs=1e-12
            )

    def test_self_entangled_closed_form(self):
        # the closed form D = n-1 and the multiplicities pick the same blocks
        for n in range(2, 401):
            usable = usable_dims(n)
            assert usable == tuple(d for d, _ in multiplicity_spectrum(n) if d <= n - 1)
            expected = math.sin(math.pi / (max(usable) + 2)) ** 2
            design = design_optimal(n, "self-entangled")
            assert design.error == pytest.approx(expected, abs=1e-12)
            in_use = design.block_dims[: len(usable)]
            assert in_use == usable
            assert np.all(design.input.amplitudes[: len(usable)].real > 0.0)
            assert np.all(design.input.amplitudes[len(usable):] == 0.0)

    def test_block_dims_match_multiplicity_spectrum(self):
        for n in range(1, 401):
            dims = design_optimal(n).block_dims
            assert dims == tuple(d for d, _ in multiplicity_spectrum(n))


class TestSu2DesignErrorCheck:
    def test_off_by_one_design_rejected(self):
        # n = 3 amplitudes built on the wrong block dims: true error 0.30, not 0.25
        x = PhaseInputState(np.array([1.0, 2.0]) / math.sqrt(5.0))
        seed = optimal_seed(x)
        assert su2_error(x, seed, 3) == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ValueError):
            Su2Design(x, seed, 3, 0.25)

    def test_su2_error_rejects_wrong_block_count(self):
        # n = 4 has three blocks (dims 1, 3, 5)
        x = PhaseInputState([0.6, 0.8])
        with pytest.raises(ValueError, match="expected 3 block amplitudes for n=4, got 2"):
            su2_error(x, optimal_seed(x), 4)

    def test_su2_error_rejects_nonpositive_n(self):
        x = PhaseInputState([1.0])
        with pytest.raises(ValueError, match="n must be >= 1"):
            su2_error(x, optimal_seed(x), 0)

    def test_self_entangled_designs_pass_check(self):
        # external designs pass it in test_closed_form_regression (n <= 400)
        for n in range(2, 301):
            design = design_optimal(n, "self-entangled")
            assert abs(su2_error(design.input, design.seed, n) - design.error) <= 1e-12


class TestSelfEntanglementFeasible:
    """A block can host the reference iff its multiplicity is >= its dimension."""

    def test_n3(self):
        assert multiplicity_spectrum(3) == ((2, 2), (4, 1))
        assert usable_dims(3) == (2,)

    def test_n5(self):
        assert usable_dims(5) == (2, 4)
        assert design_optimal(5, "self-entangled").block_dims == (2, 4, 6)

    def test_n1_no_usable_blocks(self):
        assert usable_dims(1) == ()
        with pytest.raises(ValueError):
            design_optimal(1, "self-entangled")

    @pytest.mark.parametrize("n", range(3, 42, 2))
    def test_odd_feasibility_pattern(self, n):
        d = (n + 1) // 2
        for dim, mult in multiplicity_spectrum(n):
            assert (mult >= dim) == (dim < 2 * d)

    def test_matches_multiplicity_spectrum(self):
        # the amplitudes in use are exactly the blocks with multiplicity >= dim
        design = design_optimal(9, "self-entangled")
        spec = multiplicity_spectrum(9)
        assert design.block_dims == tuple(dim for dim, _ in spec)
        for (dim, mult), amp in zip(spec, design.input.amplitudes.real):
            assert (amp > 0.0) == (mult >= dim)


class TestBruteForceOracle:
    def test_single_block(self):
        x = PhaseInputState([1.0])
        assert brute_force_su2_error(x, Seed([[1.0]]), 1) == pytest.approx(0.5, abs=1e-12)

    def test_identity_seed(self, rng):
        x = random_blocks(rng, 7)
        assert brute_force_su2_error(x, Seed(np.eye(4)), 7) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matches_closed_form(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 11))
            x = random_blocks(rng, 2 * d - 1)
            t = random_seed(rng, d)
            assert brute_force_su2_error(x, t, 2 * d - 1) == pytest.approx(
                su2_error(x, t, 2 * d - 1), abs=1e-8
            )

    @pytest.mark.parametrize("n", range(2, 21, 2))
    def test_even_matches_closed_form(self, n, rng):
        x = random_blocks(rng, n)
        assert brute_force_su2_error(x, optimal_seed(x), n) == pytest.approx(
            block_formula_error(x, n), abs=1e-10
        )
        design = design_optimal(n)
        assert brute_force_su2_error(design.input, design.seed, n) == pytest.approx(
            design.error, abs=1e-10
        )

    def test_scale_limit(self, rng):
        x = random_blocks(rng, 23)
        with pytest.raises(ValueError):
            brute_force_su2_error(x, Seed(np.eye(12)), 23)


def single_block_design(n, amplitudes):
    """An Su2Design on the given amplitudes with their optimal seed."""
    x = PhaseInputState(amplitudes)
    seed = optimal_seed(x)
    return Su2Design(x, seed, n, su2_error(x, seed, n))


class TestBlockAmplitudeValidation:
    """The input checks of Su2Design, and the unit norm of its PhaseInputState."""

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="block amplitudes"):
            single_block_design(3, [1.0])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            single_block_design(3, [-0.6, 0.8])

    def test_complex_entry(self):
        with pytest.raises(ValueError, match="real"):
            single_block_design(3, [0.6j, 0.8])

    def test_unnormalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            single_block_design(3, [1.0, 1.0])

    def test_nonpositive_n(self):
        x = PhaseInputState([1.0])
        with pytest.raises(ValueError, match="n must be"):
            Su2Design(x, optimal_seed(x), 0, 0.5)

    def test_nan_error_rejected(self):
        x = PhaseInputState([0.6, 0.8])
        with pytest.raises(ValueError, match="inconsistent"):
            Su2Design(x, optimal_seed(x), 3, math.nan)

    def test_non_integer_n_rejected(self):
        x = PhaseInputState([0.6, 0.8])
        seed = optimal_seed(x)
        with pytest.raises(TypeError, match="n must be an integer"):
            Su2Design(x, seed, 3.0, su2_error(x, seed, 3))
        with pytest.raises(TypeError, match="n must be an integer"):
            design_optimal(3.0)
        for n in (math.nan, 2.5, True):
            with pytest.raises(TypeError, match="n must be an integer"):
                asymptotic_error_su2(n)

    def test_block_dims(self):
        assert single_block_design(5, [1.0, 0, 0]).block_dims == (2, 4, 6)
        assert single_block_design(4, [1.0, 0, 0]).block_dims == (1, 3, 5)


def imports_su2(node):
    """Whether an import statement loads covest.su2, relatively or absolutely."""
    if isinstance(node, ast.Import):
        return any(alias.name == "covest.su2" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = ("." * node.level) + (node.module or "")
    if module in (".su2", "covest.su2"):
        return True
    return module in (".", "covest") and any(alias.name == "su2" for alias in node.names)


def test_block_structure_has_one_home():
    # the commands and designs take dimensions, multiplicities and the
    # self-entanglement rule from su2_design; su2 is the Haar-batch code only
    src = pathlib.Path(covest.__file__).parent
    importers = sorted(path.name for path in src.glob("*.py")
                       if any(imports_su2(node) for node in ast.walk(ast.parse(path.read_text()))))
    assert importers == ["__init__.py"]
