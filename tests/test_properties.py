"""Properties of the public constructors and closed forms over drawn inputs.

Amplitudes are drawn over a wide dynamic range, exact zeros and subnormals
included, and seed factors at random rank.  Every test runs a fixed budget
of derandomized examples, so the suite is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from covest import (
    PhaseDesign,
    PhaseInputState,
    Seed,
    Su2Design,
    design_optimal,
    irrep_matrix_batch,
    min_covariant_error,
    optimal_input,
    optimal_seed,
    outcome_coefficients,
    phase_error,
    su2_error,
)
from covest.simulate import _NEG_TOL, G, _bin_integrals

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# magnitudes of one amplitude: exact zero, subnormal, tiny, and ordinary
magnitudes = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.floats(min_value=1e-300, max_value=1e-100),
    st.floats(min_value=1e-6, max_value=1e3),
)
phases = st.floats(min_value=-math.pi, max_value=math.pi)
not_finite = st.sampled_from([math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                              complex(0.0, math.inf)])


@st.composite
def amplitude_vectors(draw, min_size=1, max_size=12, real=False):
    """A normalized amplitude vector; one entry is ordinary so the norm is normal."""
    mags = draw(st.lists(magnitudes, min_size=min_size - 1, max_size=max_size - 1))
    mags.insert(draw(st.integers(0, len(mags))), draw(st.floats(0.1, 1.0)))
    mags = np.array(mags)
    if real:
        x = mags
    else:
        x = mags * np.exp(1j * np.array(draw(st.lists(phases, min_size=mags.size,
                                                       max_size=mags.size))))
    return x / np.linalg.norm(x)


@st.composite
def seeds(draw, d):
    """A seed factor of random rank with unit-norm rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.normal(size=(d, draw(st.integers(1, 3)))) + 1j * rng.normal(size=(d, 1))
    return Seed(f / np.linalg.norm(f, axis=1, keepdims=True))


@st.composite
def su2_designs(draw):
    """A design over the blocks of n uses, real nonnegative amplitudes, any seed."""
    n = draw(st.integers(1, 40))
    x = PhaseInputState(draw(amplitude_vectors(n // 2 + 1, n // 2 + 1, real=True)))
    seed = draw(st.one_of(st.just(optimal_seed(x)), seeds(x.dim)))
    return Su2Design(x, seed, n, su2_error(x, seed, n))


@st.composite
def phase_designs(draw):
    x = PhaseInputState(draw(amplitude_vectors()))
    seed = draw(st.one_of(st.just(optimal_seed(x)), seeds(x.dim)))
    return PhaseDesign(x, seed, phase_error(x, seed))


@st.composite
def su2_elements(draw):
    """u = [[a, b], [-conj b, conj a]] with |b| = sin t, t near 0 and pi/2 included."""
    t = draw(st.one_of(
        st.sampled_from([0.0, 1e-300, 1e-10, math.pi / 2 - 1e-10, math.pi / 2]),
        st.floats(0.0, math.pi / 2),
    ))
    a = math.cos(t) * np.exp(1j * draw(phases))
    b = math.sin(t) * np.exp(1j * draw(phases))
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


class TestConstructorsRejectNonFinite:
    @PROPERTY
    @given(amplitude_vectors(), st.data(), not_finite)
    def test_input_state(self, x, data, bad):
        x = x.astype(complex)
        x[data.draw(st.integers(0, x.size - 1))] = bad
        with pytest.raises(ValueError):
            PhaseInputState(x)

    @PROPERTY
    @given(amplitude_vectors(), st.data(), not_finite)
    def test_seed(self, x, data, bad):
        factor = optimal_seed(PhaseInputState(x)).factor.copy()
        factor[data.draw(st.integers(0, x.size - 1)), 0] = bad
        with pytest.raises(ValueError):
            Seed(factor)

    @PROPERTY
    @given(phase_designs(), not_finite)
    def test_phase_design_error(self, design, bad):
        with pytest.raises(ValueError):
            PhaseDesign(design.input, design.seed, bad)

    @PROPERTY
    @given(su2_designs(), not_finite)
    def test_su2_design_error(self, design, bad):
        with pytest.raises(ValueError):
            Su2Design(design.input, design.seed, design.n, bad)


class TestOptimalSeed:
    @PROPERTY
    @given(amplitude_vectors(), st.data())
    def test_unit_rows_and_minimum_error(self, x, data):
        state = PhaseInputState(x)
        seed = optimal_seed(state)
        assert np.all(np.abs(np.abs(seed.factor) - 1.0) <= 1e-15)
        error = phase_error(state, seed)
        assert abs(error - min_covariant_error(state)) <= 1e-13
        other = data.draw(seeds(state.dim))
        assert error <= phase_error(state, other) + 1e-13


class TestErrorBounds:
    @PROPERTY
    @given(phase_designs())
    def test_phase_error_is_a_mean_loss(self, design):
        assert 0.0 <= phase_error(design.input, design.seed) <= 1.0

    @PROPERTY
    @given(su2_designs())
    def test_su2_error_is_a_mean_loss(self, design):
        assert 0.0 <= su2_error(design.input, design.seed, design.n) <= 1.0


class TestOptimalDesigns:
    @PROPERTY
    @given(amplitude_vectors())
    def test_optimal_input_beats_drawn_inputs(self, x):
        state = PhaseInputState(x)
        assert optimal_input(state.dim - 1).error <= min_covariant_error(state) + 1e-13

    @PROPERTY
    @given(su2_designs())
    def test_design_optimal_beats_drawn_block_vectors(self, design):
        x = design.input
        assert design_optimal(design.n).error <= su2_error(x, optimal_seed(x), design.n) + 1e-13


class TestOutcomeLaw:
    @PROPERTY
    @given(st.one_of(phase_designs(), su2_designs()))
    def test_normalized_with_mean_loss_the_error(self, design):
        c = np.append(outcome_coefficients(design), 0.0)  # C_1 = 0 at one level
        assert abs(c[0] - 1.0 / (2.0 * math.pi)) <= 1e-13
        assert abs(0.5 * (1.0 - math.pi * c[1].real) - design.error) <= 1e-13

    @PROPERTY
    @given(st.one_of(phase_designs(), su2_designs()))
    def test_bin_masses_nonnegative(self, design):
        assert _bin_integrals(outcome_coefficients(design), G).min() >= -_NEG_TOL


class TestIrrepHomomorphism:
    @PROPERTY
    @given(st.integers(1, 8), su2_elements(), su2_elements())
    def test_product_of_irreps_is_irrep_of_product(self, j, u, v):
        du, dv, duv = (irrep_matrix_batch(j, m[None])[0] for m in (u, v, u @ v))
        assert np.abs(du @ dv - duv).max() <= 1e-10


class TestIrrepWeightFlip:
    @PROPERTY
    @given(st.integers(1, 30), su2_elements())
    def test_flipped_weights_give_signed_conjugate(self, j, u):
        """D_{j-1-k, j-1-l} = (-1)^(k-l) conj(D_kl), an identity the kernel does not use."""
        d = irrep_matrix_batch(j, u[None])[0]
        k = np.arange(j)
        sign = np.where((k[:, None] - k[None, :]) % 2, -1.0, 1.0)
        assert np.abs(d[::-1, ::-1] - sign * d.conj()).max() <= 1e-12 * j
