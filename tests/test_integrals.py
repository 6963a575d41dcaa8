import numpy as np
import pytest

from covest import phase_kernel_matrix, su2_kernel_matrix
from covest.cli import MAX_KMAX
from covest.integrals import _half_angle_rule
from covest.su2 import character


def delta_pattern(k, l):
    if k == l:
        return 0.5
    if abs(k - l) == 1:
        return -0.25
    return 0.0


def su2_kernel(ks):
    """The kernel over dims 2k: entry [a, b] is the (ks[a], ks[b]) integral."""
    return su2_kernel_matrix([2 * k for k in ks])


class TestSu2ErrorKernel:
    """Entries of su2_kernel_matrix over dims 2k."""

    def test_diagonal(self):
        assert su2_kernel([3])[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_adjacent(self):
        assert su2_kernel([3, 4])[0, 1] == pytest.approx(-0.25, abs=1e-12)

    def test_distant(self):
        assert su2_kernel([2, 5])[0, 1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    @pytest.mark.parametrize("l", [1, 3, 10])
    def test_delta_pattern(self, k, l):
        assert su2_kernel([k, l])[0, 1] == pytest.approx(delta_pattern(k, l), abs=1e-12)

    def test_symmetry(self):
        kernel = su2_kernel([1, 2, 3, 4, 7, 9])
        assert np.abs(kernel - kernel.T).max() < 1e-13

    def test_interior_row_sum_vanishes(self):
        kernel = su2_kernel(range(1, 9))
        for a in range(1, 7):
            assert abs(kernel[a, a - 1 : a + 2].sum()) < 1e-12

    def test_mixed_parity_vanishes(self):
        kernel = su2_kernel_matrix(range(1, 42))
        mixed = (np.add.outer(np.arange(41), np.arange(41)) % 2) == 1
        assert np.abs(kernel[mixed]).max() < 1e-13
        # the odd dimensions follow the same pattern, except 3/4 at dimension 1
        odd = kernel[::2, ::2]
        expected = [[delta_pattern(k, l) for l in range(21)] for k in range(21)]
        expected[0][0] = 0.75
        assert np.abs(odd - expected).max() < 1e-12

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            su2_kernel_matrix([0, 2])

    @pytest.mark.parametrize("dim", [2.0, True, "2"])
    def test_rejects_non_integer_dimension(self, dim):
        with pytest.raises(TypeError, match="j must be an integer"):
            su2_kernel_matrix([3, dim])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="dims must be nonempty"):
            su2_kernel_matrix([])


# every dimension verify-integrals asks for, by parity, and both parities mixed
TABLE_DIMS = {
    "even": range(2, 2 * MAX_KMAX + 1, 2),
    "odd": range(1, 2 * MAX_KMAX, 2),
    "mixed": range(1, 42),
    "unordered": (40, 7, 1, 2, 39, 7),
}


# every level verify-integrals asks for, and levels unordered and repeated
TABLE_LEVELS = {
    "limit": range(MAX_KMAX + 1),
    "unordered": (12, 0, 3, 3, 7, 1),
}
# the real tables and the oracles built from su2.character and e^{il theta}
# differ at roundoff: at most 5.7e-14 over dimensions up to 200
ORACLE_TOL = 2e-13


class TestCharacterTable:
    """On the same rule, the real sine and cosine tables give the kernels
    built from su2.character and from the complex exponentials e^{il theta},
    to roundoff."""

    @pytest.mark.parametrize("name", list(TABLE_DIMS))
    def test_kernel_equals_character_by_character(self, name):
        dims = tuple(TABLE_DIMS[name])
        theta, s = _half_angle_rule(max(dims))
        chi = np.array([character(d, theta) for d in dims])
        want = (chi * (2.0 * s * s / theta.size)) @ chi.T
        assert np.abs(su2_kernel_matrix(dims) - want).max() <= ORACLE_TOL

    @pytest.mark.parametrize("name", list(TABLE_LEVELS))
    def test_phase_kernel_equals_exponential_product(self, name):
        levels = tuple(TABLE_LEVELS[name])
        theta, s = _half_angle_rule(max(levels))
        e = np.exp(1j * np.multiply.outer(levels, theta))
        want = (e * (s / theta.size)) @ e.conj().T
        assert np.abs(phase_kernel_matrix(levels) - want).max() <= ORACLE_TOL


class TestSingleIrrepIntegral:
    """The diagonal of su2_kernel_matrix: 3/4 at dimension 1, 1/2 above."""

    def test_trivial_block(self):
        assert su2_kernel_matrix([1])[0, 0] == pytest.approx(0.75, abs=1e-12)

    def test_defining_block(self):
        assert su2_kernel_matrix([2])[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_large_dimension(self):
        assert su2_kernel_matrix([40])[0, 0] == pytest.approx(0.5, abs=1e-12)


class TestPhaseErrorKernel:
    """Entries of phase_kernel_matrix."""

    def test_diagonal(self):
        assert phase_kernel_matrix([5])[0, 0] == pytest.approx(0.5, abs=1e-13)

    def test_adjacent(self):
        assert phase_kernel_matrix([5, 6])[0, 1] == pytest.approx(-0.25, abs=1e-13)

    def test_distant(self):
        assert phase_kernel_matrix([2, 7])[0, 1] == pytest.approx(0.0, abs=1e-13)

    def test_real_symmetric(self):
        kernel = phase_kernel_matrix([0, 1, 3, 8, 11, 12])
        assert kernel.dtype == np.float64
        assert np.abs(kernel - kernel.T).max() < 1e-13

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            phase_kernel_matrix([-1, 0])

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError, match="levels must be nonempty"):
            phase_kernel_matrix([])

    @pytest.mark.parametrize("level", [1.5, True, np.float64(2.0)])
    def test_rejects_non_integer_level(self, level):
        with pytest.raises(TypeError, match="level must be an integer"):
            phase_kernel_matrix([0, level])


class TestKernelEquivalence:
    def test_su2_matches_u1_up_to_30(self):
        ks = range(1, 31)
        worst = np.abs(su2_kernel(ks) - phase_kernel_matrix(ks)).max()
        assert worst < 1e-12


class TestIterableArguments:
    """Each kernel reads its argument once, so a generator gives the matrix of
    the tuple it yields."""

    def test_su2_generator(self):
        dims = (1, 2, 4, 7)
        assert np.array_equal(su2_kernel_matrix(d for d in dims), su2_kernel_matrix(dims))

    def test_phase_generator(self):
        levels = (0, 1, 3, 4)
        assert np.array_equal(phase_kernel_matrix(l for l in levels),
                              phase_kernel_matrix(levels))
