import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import kstest

import covest
from covest import su2, su2_design
from covest import (
    character,
    haar_matrices,
    irrep_matrix_batch,
    multiplicity_spectrum,
)
from mc_oracle import class_angles


def class_angle_cdf(theta):
    """CDF of the Haar class-angle marginal sin^2(theta/2)/pi on [0, 2*pi)."""
    return (theta - np.sin(theta)) / (2.0 * np.pi)


def dagger(m):
    return m.conj().swapaxes(-1, -2)


def rotation(theta, phi1, phi2):
    """W^dag diag(e^{i theta/2}, e^{-i theta/2}) W, with the axis matrix W(phi1, phi2)."""
    c, s = math.cos(phi1), math.sin(phi1)
    w = np.array([[c, s * np.exp(1j * phi2)], [-s * np.exp(-1j * phi2), c]])
    return dagger(w) @ np.diag([np.exp(0.5j * theta), np.exp(-0.5j * theta)]) @ w


def spin_generators(j):
    """(Jx, Jy, Jz) for spin (j-1)/2 in the weight basis m_k = (j-1)/2 - k."""
    s = 0.5 * (j - 1)
    m = s - np.arange(j)
    jp = np.diag(np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return 0.5 * (jp + jp.T), -0.5j * (jp - jp.T), np.diag(m).astype(complex)


def reference_irrep_batch(j, matrices):
    """exp(i theta n.J) for each u = exp(i theta n.sigma/2), by a batched eigh.

    The per-element eigendecomposition of the rotation generator that
    irrep_matrix_batch replaced with its Euler-angle form; kept as an
    independent oracle.
    """
    c = np.clip((matrices[:, 0, 0] + matrices[:, 1, 1]).real / 2.0, -1.0, 1.0)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    theta = 2.0 * np.arctan2(s, c)
    deg = s <= 1e-12
    safe = np.where(deg, 1.0, s)
    # -i(u - cI) = s n.sigma
    nz = np.where(deg, 1.0, matrices[:, 0, 0].imag / safe)
    nxy = np.where(deg, 0.0, -1j * matrices[:, 1, 0] / safe)  # nx + i ny
    jx, jy, jz = spin_generators(j)
    k = (nxy.real[:, None, None] * jx + nxy.imag[:, None, None] * jy
         + nz[:, None, None] * jz)
    evals, evecs = np.linalg.eigh(k)
    phase = np.exp(1j * theta[:, None] * evals)
    return (evecs * phase[:, None, :]) @ dagger(evecs)


def su2_element(a, b):
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def degenerate_elements():
    """±I, b = 0, a = 0, and |b| or |a| = 1e-10, with generic phases."""
    tiny, near_one = 1e-10, math.sqrt(1.0 - 1e-20)
    return np.stack([
        np.eye(2, dtype=complex),
        -np.eye(2, dtype=complex),
        su2_element(np.exp(0.7j), 0.0),
        su2_element(-1.0, 0.0),
        su2_element(0.0, np.exp(1.1j)),
        su2_element(0.0, -1.0),
        su2_element(near_one * np.exp(0.7j), tiny * np.exp(-2.1j)),
        su2_element(near_one * np.exp(-2.9j), tiny * np.exp(0.4j)),
        su2_element(tiny * np.exp(0.3j), near_one * np.exp(1.1j)),
        su2_element(tiny * np.exp(-1.7j), near_one * np.exp(2.6j)),
    ]).astype(complex)


def distance(u, v):
    """Projective distance 1 - |Tr(u^dag v)/2|^2, batched over leading axes."""
    return 1.0 - np.abs(np.trace(dagger(u) @ v, axis1=-2, axis2=-1) / 2.0) ** 2


class TestMakeGroupElement:
    """Class angles and irreps of rotations built from their angle and axis."""

    def test_zero_rotation_is_identity(self):
        eye = rotation(0.0, 1.3, -0.4)[None]
        assert np.allclose(eye[0], np.eye(2), atol=1e-14)
        assert abs(class_angles(eye)[0]) < 1e-7  # arccos near 1 loses half the digits
        for j in range(1, 7):
            assert np.allclose(irrep_matrix_batch(j, eye)[0], np.eye(j), atol=1e-12)

    def test_pi_rotation_along_z(self):
        m = rotation(math.pi, 0.0, 0.0)[None]
        assert np.allclose(m[0], np.diag([1j, -1j]), atol=1e-14)
        assert abs(class_angles(m)[0] - math.pi) < 1e-14

    def test_generic_element(self):
        m = rotation(math.pi / 2, math.pi / 4, math.pi / 3)[None]
        assert np.allclose(m[0] @ dagger(m[0]), np.eye(2), atol=1e-14)
        assert abs(np.linalg.det(m[0]) - 1.0) < 1e-14
        assert abs(np.trace(m[0]) - 2.0 * math.cos(math.pi / 4)) < 1e-14
        assert abs(class_angles(m)[0] - math.pi / 2) < 1e-14

    def test_class_angle_round_trip(self, rng):
        theta = rng.uniform(0.0, 2.0 * math.pi, size=50)
        m = np.stack([
            rotation(t, rng.uniform(0, math.pi), rng.uniform(-3, 3)) for t in theta
        ])
        assert np.abs(class_angles(m) - theta).max() < 1e-10


class TestHaarSampling:
    def test_class_angle_ks(self, rng):
        angles = class_angles(haar_matrices(rng, 100_000))
        stat = kstest(angles, class_angle_cdf).statistic
        assert stat < 0.01

    def test_mean_trace_vanishes(self, rng):
        half_traces = np.cos(class_angles(haar_matrices(rng, 100_000)) / 2.0)
        se = half_traces.std(ddof=1) / math.sqrt(half_traces.size)
        assert abs(half_traces.mean()) < 3.0 * se

    def test_mean_squared_trace_quarter(self, rng):
        sq = np.cos(class_angles(haar_matrices(rng, 100_000)) / 2.0) ** 2
        se = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 0.25) < 3.0 * se

    def test_sample_fields_reconstruct_matrix(self, rng):
        # g = cos(theta/2) I + i sin(theta/2) n.sigma with a unit axis n
        m = haar_matrices(rng, 200)
        half = class_angles(m) / 2.0
        nz = m[:, 0, 0].imag / np.sin(half)
        nxy = -1j * m[:, 1, 0] / np.sin(half)
        assert np.abs(nz**2 + np.abs(nxy) ** 2 - 1.0).max() < 1e-10
        sigma_n = np.zeros_like(m)
        sigma_n[:, 0, 0], sigma_n[:, 1, 1] = nz, -nz
        sigma_n[:, 0, 1], sigma_n[:, 1, 0] = np.conj(nxy), nxy
        rebuilt = (np.cos(half)[:, None, None] * np.eye(2)
                   + 1j * np.sin(half)[:, None, None] * sigma_n)
        assert np.abs(rebuilt - m).max() < 1e-10

    def test_in_su2(self, rng):
        m = haar_matrices(rng, 1000)
        assert np.abs(m @ dagger(m) - np.eye(2)).max() < 1e-14
        assert np.abs(np.linalg.det(m) - 1.0).max() < 1e-14


class TestCharacter:
    def test_trivial_rep(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, size=10):
            assert abs(character(1, theta) - 1.0) < 1e-14

    def test_defining_rep(self):
        theta = 1.1
        assert abs(character(2, theta) - 2.0 * math.cos(theta / 2.0)) < 1e-14
        assert abs(character(2, math.pi)) < 1e-14

    def test_dimension_at_identity(self):
        assert abs(character(4, 0.0) - 4.0) < 1e-14

    @given(
        st.integers(min_value=1, max_value=12),
        # stay away from the removable singularities at 0 and 2*pi, where
        # the sine-ratio reference itself cancels catastrophically
        st.floats(min_value=1e-3, max_value=2 * math.pi - 1e-3),
    )
    def test_matches_sine_ratio(self, j, theta):
        expected = math.sin(j * theta / 2.0) / math.sin(theta / 2.0)
        assert character(j, theta) == pytest.approx(expected, abs=1e-9)

    def test_vectorized(self):
        theta = np.linspace(0, 2 * math.pi, 7)
        vals = character(3, theta)
        assert vals.shape == theta.shape

    @pytest.mark.parametrize("j", [2.5, 3.0, np.float64(2.0)])
    def test_non_integer_dimension_rejected(self, j):
        with pytest.raises(TypeError, match="j must be an integer"):
            character(j, 0.0)
        with pytest.raises(TypeError, match="j must be an integer"):
            irrep_matrix_batch(j, np.eye(2)[None])


class TestIrrepMatrix:
    def test_defining_rep_is_matrix_itself(self, rng):
        m = haar_matrices(rng, 20)
        assert np.allclose(irrep_matrix_batch(2, m), m, atol=1e-14)

    def test_trivial_rep(self, rng):
        v = irrep_matrix_batch(1, haar_matrices(rng, 20))
        assert v.shape == (20, 1, 1)
        assert np.allclose(v, 1.0, atol=1e-14)

    def test_diagonal_torus_action(self):
        theta = 0.9
        m = rotation(theta, 0.0, 0.0)[None]
        expected = np.diag([np.exp(1j * theta), 1.0, np.exp(-1j * theta)])
        assert np.allclose(irrep_matrix_batch(3, m)[0], expected, atol=1e-12)

    def test_defining_rep_returns_input(self, rng):
        m = np.concatenate([haar_matrices(rng, 20), degenerate_elements()])
        assert np.array_equal(irrep_matrix_batch(2, m), m)

    @pytest.mark.parametrize("j", [*range(1, 7), 12, 25, 50])
    def test_homomorphism(self, j, rng):
        g, h = haar_matrices(rng, 20), haar_matrices(rng, 20)
        prod = irrep_matrix_batch(j, g) @ irrep_matrix_batch(j, h)
        assert np.abs(prod - irrep_matrix_batch(j, g @ h)).max() < 1e-10

    @pytest.mark.parametrize("j", range(1, 9))
    def test_trace_is_character(self, j, rng):
        m = haar_matrices(rng, 20)
        traces = np.trace(irrep_matrix_batch(j, m), axis1=-2, axis2=-1)
        assert np.abs(traces - character(j, class_angles(m))).max() < 1e-10

    def test_unitarity(self, rng):
        m = np.concatenate([haar_matrices(rng, 20), degenerate_elements()])
        for j in (5, 12, 25, 50):
            v = irrep_matrix_batch(j, m)
            assert np.abs(v @ dagger(v) - np.eye(j)).max() < 1e-12, j

    def test_matches_eigh_reference(self, rng):
        """Agreement with the per-element eigh construction, j = 1..50.

        Even j are the half-integer spins, where a wrong branch of the Euler
        angles flips signs: D(-I) = -I there and +I for odd j.
        """
        m = np.concatenate([haar_matrices(rng, 100), degenerate_elements()])
        for j in range(1, 51):
            dev = np.abs(irrep_matrix_batch(j, m) - reference_irrep_batch(j, m)).max()
            assert dev < 1e-11 * j, (j, dev)

    def test_blocks_match_reference(self, rng, monkeypatch):
        """Batches split over many row blocks, the last one short."""
        m = np.concatenate([haar_matrices(rng, 100), degenerate_elements()])
        for j in (3, 12, 25):
            monkeypatch.setattr(su2, "_BLOCK_ENTRIES", 7 * j * j)
            dev = np.abs(irrep_matrix_batch(j, m) - reference_irrep_batch(j, m)).max()
            assert dev < 1e-11 * j, (j, dev)

    def test_minus_identity_sign(self):
        minus = -np.eye(2, dtype=complex)[None]
        for j in range(1, 11):
            sign = -1.0 if j % 2 == 0 else 1.0
            assert np.abs(irrep_matrix_batch(j, minus)[0] - sign * np.eye(j)).max() < 1e-13

    def test_rejects_nonpositive_dimension(self, rng):
        with pytest.raises(ValueError):
            irrep_matrix_batch(0, haar_matrices(rng, 1))

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("matrix", [
        2.0 * np.eye(2),                    # second row right, first row not unit
        np.diag([1.0, -1.0]),               # unitary, but not (-conj b, conj a)
        np.array([[0.6, 0.8], [0.8, 0.6]]),
        np.full((2, 2), np.nan),
    ], ids=["2I", "det-1", "symmetric", "nan"])
    def test_rejects_matrices_outside_su2(self, j, matrix):
        with pytest.raises(ValueError, match="SU\\(2\\) elements"):
            irrep_matrix_batch(j, matrix[None])

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_rejects_wrong_shape(self, j):
        with pytest.raises(ValueError, match="shape"):
            irrep_matrix_batch(j, np.eye(2))

    def test_accepts_roundoff_and_empty_batch(self, rng):
        m = haar_matrices(rng, 5) * (1.0 + 4e-13)
        assert irrep_matrix_batch(3, m).shape == (5, 3, 3)
        assert irrep_matrix_batch(3, np.empty((0, 2, 2))).shape == (0, 3, 3)


class TestIrrepStructure:
    """irrep_matrix_batch makes no per-element decomposition and no large
    temporaries, and its per-j cache fills only on use."""

    def test_no_decomposition_once_cache_is_warm(self, rng, monkeypatch):
        m = np.concatenate([haar_matrices(rng, 50), degenerate_elements()])
        first = {j: irrep_matrix_batch(j, m) for j in (3, 4, 12, 25)}

        def forbidden(*args, **kwargs):
            raise AssertionError("decomposition on a warm cache")

        scipy_linalg = pytest.importorskip("scipy.linalg")
        for module, names in ((np.linalg, ("eig", "eigh", "eigvals", "eigvalsh", "svd")),
                              (scipy_linalg, ("expm", "eig", "eigh", "schur"))):
            for name in names:
                monkeypatch.setattr(module, name, forbidden)
        for j, v in first.items():
            assert np.array_equal(irrep_matrix_batch(j, m), v)

    def test_import_leaves_cache_empty(self):
        src = os.path.dirname(os.path.dirname(covest.__file__))
        probe = ("import covest, covest.cli; from covest import su2; "
                 "print(su2._jy_eigensystem.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "0"

    def test_peak_memory_bounded(self, rng):
        m = haar_matrices(rng, 2000)
        irrep_matrix_batch(25, m[:1])  # warm the per-j cache
        tracemalloc.start()
        try:
            v = irrep_matrix_batch(25, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * v.nbytes

    def test_starts_no_thread(self, rng, monkeypatch):
        """A batch of many row blocks is built on the calling thread."""
        def forbidden(thread):
            raise AssertionError("irrep_matrix_batch started a thread")

        m = np.concatenate([degenerate_elements(), haar_matrices(rng, 500)])
        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", forbidden)
            v = irrep_matrix_batch(25, m)
        assert np.abs(v - reference_irrep_batch(25, m)).max() < 1e-11 * 25

    def test_work_memory_flat_in_batch_size(self, rng):
        """Beside the result, memory grows by far less than the result does."""
        irrep_matrix_batch(25, haar_matrices(rng, 1))  # warm the per-j cache
        excess, result = [], []
        for n in (2000, 4000):
            m = haar_matrices(rng, n)
            tracemalloc.start()
            try:
                v = irrep_matrix_batch(25, m)
                excess.append(tracemalloc.get_traced_memory()[1] - v.nbytes)
            finally:
                tracemalloc.stop()
            result.append(v.nbytes)
            del v
        assert excess[1] - excess[0] <= 0.25 * (result[1] - result[0])


class TestIrrepWorkers:
    """The row blocks were once shared among worker threads, each taking a
    run of them.  The batch is now built on the calling thread, and a row's
    bits still do not depend on how the batch is cut into runs of blocks."""

    # 7 rows a block: 16 blocks with a short last one, 2 blocks, and one block
    @pytest.mark.parametrize("n", [110, 14, 5])
    @pytest.mark.parametrize("j", [3, 4, 12, 25])
    def test_bits_do_not_depend_on_worker_count(self, j, n, rng, monkeypatch):
        m = np.concatenate([degenerate_elements(), haar_matrices(rng, n)])[:n]
        monkeypatch.setattr(su2, "_BLOCK_ENTRIES", 7 * j * j)
        whole = irrep_matrix_batch(j, m)
        blocks = -(-n // 7)
        for runs in (2, 3, 4):
            cuts = [7 * (blocks * k // runs) for k in range(runs + 1)]
            parts = [irrep_matrix_batch(j, m[a:b]) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole), runs
        assert np.abs(whole - reference_irrep_batch(j, m)).max() < 1e-11 * j


class TestDistance:
    """1 - |Tr(u^dag v)/2|^2 is sin^2(theta/2) at the class angle of u^dag v."""

    def test_identity_case(self, rng):
        g = haar_matrices(rng, 20)
        assert distance(g, g).max() < 1e-14

    def test_projective(self):
        eye = np.eye(2, dtype=complex)
        assert distance(eye, -eye) < 1e-14
        assert np.sin(class_angles(-eye) / 2.0) ** 2 < 1e-14

    def test_maximal_at_class_angle_pi(self):
        g = np.diag([1j, -1j])
        assert abs(distance(np.eye(2), g) - 1.0) < 1e-14
        assert abs(np.sin(class_angles(g) / 2.0) ** 2 - 1.0) < 1e-14

    def test_range_and_bi_invariance(self, rng):
        g, h, k = (haar_matrices(rng, 1000) for _ in range(3))
        d = distance(g, h)
        assert d.min() >= 0.0 and d.max() <= 1.0
        assert np.abs(distance(k @ g, k @ h) - d).max() < 1e-12
        assert np.abs(distance(g @ k, h @ k) - d).max() < 1e-12

    def test_equals_sine_squared_half_relative_angle(self, rng):
        g, h = haar_matrices(rng, 1000), haar_matrices(rng, 1000)
        rel = np.sin(class_angles(dagger(g) @ h) / 2.0) ** 2
        assert np.abs(distance(g, h) - rel).max() < 1e-12


class TestMultiplicitySpectrum:
    def test_single_qubit(self):
        assert multiplicity_spectrum(1) == ((2, 1),)

    def test_three_qubits(self):
        assert multiplicity_spectrum(3) == ((2, 2), (4, 1))

    def test_four_qubits(self):
        assert multiplicity_spectrum(4) == ((1, 2), (3, 3), (5, 1))

    @pytest.mark.parametrize("n", range(1, 31))
    def test_dimension_identity(self, n):
        spec = multiplicity_spectrum(n)
        assert sum(m * mult for m, mult in spec) == 2**n
        assert all(mult >= 1 for _, mult in spec)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            multiplicity_spectrum(0)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError, match="n must be an integer"):
            multiplicity_spectrum(2.0)

    def test_large_n_exact(self):
        # exact integer arithmetic well past 64 tensor factors
        spec = multiplicity_spectrum(101)
        assert sum(m * mult for m, mult in spec) == 2**101

    @staticmethod
    def per_block(n, i):
        """The block of dim n+1-2i from two independent math.comb calls."""
        return (n + 1 - 2 * i, math.comb(n, i) - (math.comb(n, i - 1) if i else 0))

    def test_matches_per_block_binomials(self):
        for n in range(1, 401):
            assert multiplicity_spectrum(n) == tuple(
                self.per_block(n, i) for i in range(n // 2, -1, -1)), n

    @pytest.mark.parametrize("n, stride", [(999, 1), (1000, 1), (1999, 1), (2000, 1),
                                           (10_000, 50)])
    def test_matches_per_block_binomials_large_n(self, n, stride):
        # at 10^4 the oracle costs 2.5 ms a block, so it checks every 50th i and
        # the middle; a wrong step of the running product would carry into every
        # later binomial, the middle block's among them
        spec = multiplicity_spectrum(n)
        assert [dim for dim, _ in spec] == list(range(1 + n % 2, n + 2, 2))
        for i in {*range(0, n // 2 + 1, stride), n // 2}:
            assert spec[n // 2 - i] == self.per_block(n, i), i

    def test_dimension_identity_failure_raises(self, monkeypatch):
        # a pass that stops one binomial short drops the smallest block; the
        # self-check is a raise, not an assert, so python -O keeps it too
        monkeypatch.setattr(su2_design, "range", lambda stop: range(stop - 1), raising=False)
        with pytest.raises(ArithmeticError, match="dimension identity"):
            multiplicity_spectrum(6)
