"""Monte Carlo verification of the covariant estimation protocols.

By covariance, the outcome law depends only on the angle relative to the
true parameter.  For a phase design it is the phase density of the rows
x ∘ F; for an SU(2) design, the class-angle density, which by the Weyl
character formula is the phase density of the block rows mirrored about
frequency 0.  Either is a trigonometric polynomial,
Re sum_m C_m e^{i m phi} on [0, 2 pi), and `outcome_coefficients` returns
its coefficient vector C.  The simulator fixes the truth at the identity,
integrates that law and its product with the loss sin^2(phi/2) exactly over
the G bins of an equispaced grid, and samples the binned law by importance
sampling.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index
from .phase import PhaseDesign
from .su2_design import Su2Design

_NEG_TOL = 1e-10
# the number of bins: the scores are exact on any grid, so the grid sets only
# the variance and the skewness of the mean, both small on 4096 bins
G = 1 << 12


@dataclass(frozen=True)
class SimConfig:
    """A run of `trials` draws from the stream of `seed`."""

    trials: int
    seed: int

    def __post_init__(self):
        if as_index(self.trials, "trials") < 2:
            raise ValueError("at least two trials are needed for a standard error")
        as_index(self.seed, "seed")


@dataclass(frozen=True)
class SimResult:
    empirical_mean_error: float
    standard_error: float
    closed_form: float
    z_score: float
    law_gap: float


def _padded_fft(y):
    """FFT S of the columns of y, zero-padded to a power of two >= 2d.

    The padding is long enough that no lag sum below wraps around.
    """
    size = 1 << (2 * y.shape[0] - 1).bit_length()
    return np.fft.fft(y, n=size, axis=0)


def _autocorrelation(spectrum, d):
    """sum_r sum_k y[k+m, r] conj(y[k, r]) for m = 0..d-1, from S = _padded_fft(y).

    The power spectra of the columns are summed, and one inverse FFT gives
    every lag.
    """
    power = np.sum(spectrum.real ** 2 + spectrum.imag ** 2, axis=1)
    return np.fft.ifft(power)[:d]


def outcome_coefficients(design):
    """C with the relative-angle outcome law Re sum_m C_m e^{i m phi} on [0, 2 pi).

    For a PhaseDesign the law is the phase density
    p(phi) = (1/2 pi) sum_r |sum_j z_jr e^{i j phi}|^2 of z = x ∘ F (row-wise),
    whose terms of frequency m sum to c_m, the autocorrelation of z at lag
    m; c_{-m} = conj(c_m), so C = (c_0, 2 c_1, ..., 2 c_{L-1}) / (2 pi).

    For an Su2Design it is the class-angle density
    q(theta) = (sin^2(theta/2)/pi) sum_r |sum_k y_kr chi^{d_k}(theta)|^2 of
    y = x ∘ F over the block dimensions d_k = d_0 + 2k.  By the Weyl
    character formula sin(theta/2) chi^d(theta) = sin(d theta/2)
    = (e^{i d theta/2} - e^{-i d theta/2}) / 2i, whose frequencies
    +-(d_0/2 + k) are consecutive (half-)integers, missing only 0 for odd n
    (d_0 = 2).  So q is the phase density of the unit-norm mirrored rows
    z = (-y reversed, n % 2 zero rows, y) / sqrt(2), and C, of length
    2m + n % 2 for m blocks, is real, as q is even in theta.

    Either law is nonnegative for any PSD seed and normalized; each comes
    from one padded FFT of z, and no d x d array is formed.
    """
    if not isinstance(design, (PhaseDesign, Su2Design)):
        raise TypeError("outcome coefficients need a PhaseDesign or an Su2Design")
    z = design.input.amplitudes[:, None] * design.seed.factor
    if isinstance(design, Su2Design):
        gap = np.zeros((design.n % 2, z.shape[1]))
        z = np.concatenate([-z[::-1], gap, z]) / math.sqrt(2.0)
    lags = _autocorrelation(_padded_fft(z), z.shape[0])
    lags[1:] *= 2.0
    c = lags / (2.0 * math.pi)
    return c if isinstance(design, PhaseDesign) else c.real


def _on_grid(coefficients, g):
    """Re sum_m C_m e^{i m phi} at phi = 2 pi j / g, j = 0..g, by one real inverse FFT.

    Folding coefficient m into slot m mod g is exact at the grid points,
    whatever the degree.  Only the real part is wanted, so slot g - m
    conjugated joins slot m: H_m = f_m + conj(f_{g-m}) for 0 < m < g/2,
    with H_0 = 2 f_0 and H_{g/2} = 2 f_{g/2}, whose imaginary parts the
    real transform drops, is twice the Hermitian half-spectrum whose real
    inverse FFT is Re sum f_m e^{i m phi}.  The endpoint 2 pi repeats the
    value at 0.
    """
    folded = np.pad(coefficients, (0, -coefficients.size % g)).reshape(-1, g).sum(axis=0)
    half = folded[: g // 2 + 1]
    half[1:-1] += folded[: g // 2 : -1].conj()
    half[[0, -1]] *= 2.0
    values = (g / 2) * np.fft.irfft(half, g)
    return np.append(values, values[0])


def _bin_integrals(coefficients, g):
    """Exact integrals of the law C and of the law times the loss over the g bins
    [2 pi j/g, 2 pi (j+1)/g): the bin masses p and the loss integrals M.

    p(phi) sin^2(phi/2) = p/2 - p cos(phi)/2 is again a trigonometric
    polynomial: cos(phi) moves each C_m to frequencies m - 1 and m + 1 at
    half weight, and C_0's share at frequency -1 is conj(C_0)/2 at +1.  A
    series A has the CDF A_0 phi + Re sum_{m>=1} A_m (e^{i m phi} - 1)/(i m),
    a trigonometric polynomial too, so _on_grid of A_m/(i m) gives its
    periodic part at every edge, and a bin's integral is A_0 h plus the
    difference of two neighbouring values.  A negative integral beyond
    roundoff, or a NaN, means the design is not a valid one.  Integrals
    within roundoff of zero keep their sign: clipping them would bias the
    law's mean loss by the roundoff of every bin where the law is nearly zero.
    """
    law = np.append(coefficients, 0.0)
    shifted = np.zeros_like(law)
    shifted[1:] = law[:-1]
    shifted[:-1] += law[1:]
    shifted[1] += law[0].conj()
    series = np.stack([law, 0.5 * law - 0.25 * shifted])
    antiderivative = series / (1j * np.maximum(np.arange(law.size), 1))
    antiderivative[:, 0] = 0.0
    edges = np.stack([_on_grid(a, g) for a in antiderivative])
    integrals = series[:, :1].real * (2.0 * math.pi / g) + np.diff(edges)
    if not integrals.min() >= -_NEG_TOL:
        raise ValueError("outcome law has a negative bin mass: invalid design")
    return integrals


def _mixture(p):
    """The defensive mixture q = p/2 + 1/(2g) of the g bin masses p, normalized."""
    q = 0.5 * p + 0.5 / p.size
    return q / np.sum(q)


def simulate(config, design):
    """Estimate the design's mean loss by Monte Carlo and compare it to the closed form.

    The outcome law p, from outcome_coefficients, and its product with the
    loss sin^2(phi/2) are integrated exactly over the G bins of [0, 2 pi)
    (_bin_integrals): bin i has mass p_i and loss integral M_i.  Bins are
    drawn from the defensive mixture q = p/2 + 1/(2G) (Hesterberg,
    Technometrics 37, 185, 1995): the rare bins far from the truth, which
    carry much of the mean error at large n, are drawn often at a small
    weight, so the mean is close to normal where the plain sample mean is
    heavily skewed.  A trial in bin i scores Y = M_i/q_i: the mean, given the
    bin, of the weighted loss (p/q) sin^2(phi/2) of an angle drawn from the
    law within the bin, so Y has that estimator's mean at no larger variance
    (Rao-Blackwellisation; Casella & Robert, Biometrika 83, 81, 1996).  Its
    mean is sum_i M_i, the law's exact mean loss, on any grid: the grid sets
    only the variance.  `empirical_mean_error` and `standard_error` are the
    mean of Y and its empirical standard error; trials that all score alike
    give none, a ValueError.  `law_gap` is sum_i M_i minus the closed form,
    the design's own error: roundoff for a valid design, so a larger gap is
    a fault in the law or in the closed form, whatever the z-score.

    A trial's score depends on its draw only through its bin, so the mean
    and M2, the sum of squared deviations, depend on the trials only through
    the bin counts, which are Multinomial(trials, q).  They are drawn in one
    call, np.random.default_rng(seed).multinomial(trials, q), and the mean
    and M2 are sums over the bins: O(G) time and memory, whatever the trial
    count, on one thread, so every field has the same bits on any number of
    CPUs.  Every sum over the bins is numpy's sum and not a BLAS dot
    product, whose bits change with the BLAS thread count on large arrays.
    numpy draws the counts by conditional binomials (Devroye, Non-Uniform
    Random Variate Generation, 1986), bin j at probability q_j / r_j with
    r_j = 1 - q_0 - ... - q_{j-1} subtracted in floating point, the last bin
    taking what is left; the law this implies differs from q by the roundoff
    of that running sum, which moves the mean by at most 2e-10 standard
    errors at 2 * 10^7 trials (phase n = 10, 1000 and 10^5, su2 n = 5, 601
    and 99 999).
    """
    coefficients, closed = outcome_coefficients(design), design.error
    if not math.isfinite(closed):
        raise ValueError("the design's error is not a finite number")
    trials = config.trials
    p, loss = _bin_integrals(coefficients, G)
    q = _mixture(p)
    score = loss / q
    counts = np.random.default_rng(config.seed).multinomial(trials, q)
    # a draw in one bin has frequency exactly 1 there, so its mean is that
    # bin's score and its M2 exactly 0
    mean = float(np.sum(counts / trials * score))
    m2 = float(np.sum(counts * np.square(score - mean)))
    se = math.sqrt(m2 / (trials - 1) / trials)
    if not se > 0.0:
        raise ValueError(f"all {trials} trials drew the same score, so they give no "
                         "standard error: use more trials")
    return SimResult(mean, se, closed, (mean - closed) / se, float(np.sum(loss)) - closed)
