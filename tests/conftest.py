import mpmath
import numpy as np
import pytest

from covest import PhaseDesign, PhaseInputState, Seed, phase_error


@pytest.fixture
def rng():
    return np.random.default_rng(20040725)


def random_input_state(rng, d):
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    x /= np.linalg.norm(x)
    return PhaseInputState(x)


def random_seed(rng, d):
    """Random d x r factor, r uniform in 1..d, with rows scaled to unit norm."""
    r = int(rng.integers(1, d + 1))
    f = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    return Seed(f / np.linalg.norm(f, axis=1, keepdims=True))


def gram(seed):
    """The dense seed matrix T = F F^H, for reference computations."""
    return seed.factor @ seed.factor.conj().T


def random_phase_design(rng, d):
    x = random_input_state(rng, d)
    t = random_seed(rng, d)
    return PhaseDesign(x, t, phase_error(x, t))


# Sizes checked against 40-digit mpmath values: every small n, and large ones
# up to phase-opt's limit, where cancellation would cost the most digits.
ORACLE_SIZES = [*range(51), 391, 10**3, 10**4, 10**5, 10**6]


def exact_sin2(denominator):
    """sin^2(pi/denominator) at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.sin(mpmath.pi / denominator) ** 2


def assert_digits(value, exact):
    """value within 1e-15 relative of the 40-digit exact value."""
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(value) - exact) <= 1e-15 * abs(exact), (value, exact)
