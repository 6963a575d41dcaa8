"""End-to-end acceptance checks, one per headline capability.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s``) and enforces a wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_phase_design, random_seed
from covest import (
    PhaseInputState,
    SimConfig,
    bdm_input,
    design_optimal,
    min_covariant_error,
    multiplicity_spectrum,
    optimal_input,
    phase_error,
    phase_kernel_matrix,
    simulate,
    su2_kernel_matrix,
    su2_error,
)
from mc_oracle import brute_force_su2_error, haar_mean_loss


class _Criterion:
    """Times a criterion body and prints its one-line verdict."""

    def __init__(self, number, time_limit):
        self.number = number
        self.time_limit = time_limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.time_limit
        print(f"[acceptance] criterion {self.number}: {'PASS' if ok else 'FAIL'}")
        if exc_type is None and elapsed >= self.time_limit:
            pytest.fail(
                f"criterion {self.number} exceeded its {self.time_limit}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_1_single_irrep_integral():
    with _Criterion(1, 1.0):
        single = np.diag(su2_kernel_matrix(range(1, 51)))
        assert abs(single[0] - 0.75) < 1e-10
        assert np.all(np.abs(single[1:] - 0.5) < 1e-10)


def test_criterion_2_error_kernels():
    with _Criterion(2, 5.0):
        ks = np.arange(1, 31)
        diff = np.subtract.outer(ks, ks)
        target = np.select([diff == 0, np.abs(diff) == 1], [0.5, -0.25], 0.0)
        s = su2_kernel_matrix(2 * ks)
        assert np.all(np.abs(s - target) < 1e-10)
        assert np.all(np.abs(s - phase_kernel_matrix(ks)) < 1e-12)


def test_criterion_3_phase_scaling():
    with _Criterion(3, 2.0):
        n = 1000
        ratio = n * n * min_covariant_error(bdm_input(n)) / (math.pi**2 / 4.0)
        assert 0.98 <= ratio <= 1.02
        for m in range(0, 101):
            closed = 0.5 * (1.0 - math.cos(math.pi / (m + 2)))
            assert abs(optimal_input(m).error - closed) < 1e-10


def test_criterion_4_su2_phase_reduction():
    with _Criterion(4, 10.0):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            d = int(rng.integers(1, 11))
            a = np.abs(rng.normal(size=d)) + 1e-3
            x, n = PhaseInputState(a / np.linalg.norm(a)), 2 * d - 1
            t = random_seed(rng, d)
            block_err = su2_error(x, t, n)
            assert abs(block_err - brute_force_su2_error(x, t, n)) < 1e-8
            assert abs(block_err - phase_error(x, t)) < 1e-12


def test_criterion_5_matrix_level_oracle():
    with _Criterion(5, 60.0):
        design = design_optimal(3)
        total, mean = haar_mean_loss(design)
        assert abs(total - 1.0) < 1e-12
        assert abs(mean - design.error) < 1e-12


def test_criterion_6_su2_scaling():
    with _Criterion(6, 5.0):
        n = 999
        for mode in ("external", "self-entangled"):
            ratio = design_optimal(n, mode).error * n * n / math.pi**2
            assert 0.95 <= ratio <= 1.05


def test_criterion_7_sandwich_bound():
    with _Criterion(7, 10.0):
        for d in range(1, 51):
            err = design_optimal(2 * d).error
            assert optimal_input(d).error - err <= 1e-10
            assert err - optimal_input(d - 1).error <= 1e-10


def test_criterion_8_multiplicities_and_feasibility():
    with _Criterion(8, 30.0):
        for n in range(1, 31):
            spectrum = multiplicity_spectrum(n)
            assert sum(m * mult for m, mult in spectrum) == 2**n
        for n in range(3, 42, 2):
            d = (n + 1) // 2
            for dim, mult in multiplicity_spectrum(n):
                k = dim // 2  # dims are 2k for k = 1..d
                assert (mult >= dim) == (k <= d - 1)


def test_criterion_9_monte_carlo_suite():
    with _Criterion(9, 300.0):
        rng = np.random.default_rng(27182818)
        for _ in range(50):
            d = int(rng.integers(1, 11))
            design = random_phase_design(rng, d)
            config = SimConfig(100_000, int(rng.integers(0, 2**31)))
            assert abs(simulate(config, design).z_score) < 4.0
        replay = SimConfig(100_000, 9999)
        design = optimal_input(3)
        first = simulate(replay, design)
        second = simulate(replay, design)
        assert repr(first) == repr(second)
        assert first == second
