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
