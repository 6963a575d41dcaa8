"""Monte Carlo verification of the covariant estimation protocols.

By covariance, the outcome law depends only on the angle relative to the
true parameter.  For either design type it is a trigonometric polynomial,
Re sum_m C_m e^{i m phi} on [0, 2 pi), and `outcome_coefficients` returns
its coefficient vector C.  The simulator fixes the truth at the identity,
integrates that law exactly over the bins of an equispaced grid, and samples
the binned law by importance sampling.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index
from .phase import PhaseDesign
from .su2_design import Su2Design

_NEG_TOL = 1e-10
# the automatic grid: at least _MIN_GRID bins, doubled until the law's bias
# is a tenth of the standard error; a larger grid is a usage error, since
# the grid's arrays peak at about 65 bytes per bin (64.6 traced at 2^22)
_MIN_GRID = 1 << 12
MAX_GRID_SIZE = 1 << 22


@dataclass(frozen=True)
class SimConfig:
    """A run of `trials` draws from the stream of `seed`; `grid_size` fixes the
    number of bins, and None sizes the grid from the law (see `simulate`)."""

    trials: int
    seed: int
    grid_size: int | None = None

    def __post_init__(self):
        if as_index(self.trials, "trials") < 2:
            raise ValueError("at least two trials are needed for a standard error")
        as_index(self.seed, "seed")
        g = self.grid_size
        if g is not None and not (
            256 <= as_index(g, "grid_size") <= MAX_GRID_SIZE and g & (g - 1) == 0
        ):
            raise ValueError(f"grid_size must be a power of two from 256 to {MAX_GRID_SIZE}")


@dataclass(frozen=True)
class SimResult:
    empirical_mean_error: float
    standard_error: float
    closed_form: float
    z_score: float
    law_bias: float


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


def _self_convolution(spectrum, d):
    """sum_r sum_{k+l=m} y[k, r] conj(y[l, r]) for m = 0..2d-2, from S = _padded_fft(y).

    The FFT of conj(y) is conj(S) at the negated frequency, (-k) mod size,
    so the convolution of each column with its conjugate is the inverse FFT
    of S_r(k) conj(S_r(-k)), summed over the columns.
    """
    negated = np.roll(spectrum[::-1], 1, axis=0)
    return np.fft.ifft(np.sum(spectrum * negated.conj(), axis=1))[: 2 * d - 1]


def outcome_coefficients(design):
    """C with the relative-angle outcome law Re sum_m C_m e^{i m phi} on [0, 2 pi).

    With y = x ∘ F (row-wise), c_m = sum_k t_{k+m,k} x_{k+m} conj(x_k) is the
    autocorrelation of y.  For a PhaseDesign the law is the phase density
    p(phi) = sum_{k,l} t_{k,l} x_k conj(x_l) e^{i(k-l) phi} / (2 pi), whose
    terms of frequency k - l = m sum to c_m, and c_{-m} = conj(c_m), so
    C = (c_0, 2 c_1, ..., 2 c_{d-1}) / (2 pi).

    For an Su2Design it is the class-angle density
    q(theta) = sin^2(theta/2)/pi * sum_{k,l} t_{k,l} x_l x_k chi^{d_k} chi^{d_l}
    over the block dimensions d_k, a cosine series.  sin(theta/2) chi^d(theta)
    = sin(d theta/2), so with R_kl = Re(t_kl) x_k x_l
    q = (1/2 pi) sum_{k,l} R_kl [cos((d_k - d_l) theta/2) - cos((d_k + d_l) theta/2)].
    The block dimensions are d_k = d_0 + 2k, so (d_k - d_l)/2 = k - l, whose
    sums are the real autocorrelation of y, and (d_k + d_l)/2 = d_0 + k + l,
    whose sums are the real self-convolution of y and conj(y).

    Either law is nonnegative for any PSD seed and normalized; both come from
    one padded FFT of y, and no d x d array is formed.
    """
    if not isinstance(design, (PhaseDesign, Su2Design)):
        raise TypeError("outcome coefficients need a PhaseDesign or an Su2Design")
    x = design.input.amplitudes
    spectrum = _padded_fft(x[:, None] * design.seed.factor)
    lags = _autocorrelation(spectrum, x.size)
    if isinstance(design, PhaseDesign):
        lags[1:] *= 2.0
        return lags / (2.0 * math.pi)
    d0 = design.block_dims[0]
    c = np.zeros(d0 + 2 * x.size - 1)
    diff = lags.real
    diff[1:] *= 2.0
    c[: x.size] = diff
    c[d0:] -= _self_convolution(spectrum, x.size).real
    return c / (2.0 * math.pi)


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


def _bin_masses(coefficients, g):
    """Exact probabilities of the g bins [2 pi j/g, 2 pi (j+1)/g) under the law C.

    The law's CDF is F(phi) = C_0 phi + Re sum_{m>=1} C_m (e^{i m phi} - 1)/(i m),
    a trigonometric polynomial again, so _on_grid of C_m/(i m) gives its
    periodic part at every edge and a bin's mass is C_0 h plus the difference
    of two neighbouring values.  A negative mass beyond roundoff, or a NaN,
    means the design is not a valid one.  Masses within roundoff of zero keep
    their sign: clipping them would bias the binned law's mean by the
    roundoff of every bin where the law is nearly zero (8e-11 for phase
    n = 10^5 on 2^22 bins, against its h^2/24 of 9e-14).
    """
    antiderivative = coefficients / (1j * np.maximum(np.arange(coefficients.size), 1))
    antiderivative[0] = 0.0
    masses = coefficients[0].real * (2.0 * math.pi / g) + np.diff(_on_grid(antiderivative, g))
    if not masses.min() >= -_NEG_TOL:
        raise ValueError("outcome law has a negative bin mass: invalid design")
    return masses


def _bin_moments(g):
    """Mean of sin^2(phi/2) over each of the g bins.

    With c a bin's centre, S = sin^2(c/2), h = 2 pi/g and s1 = sinc(h/2),
    averaging cos(phi) over the bin gives the mean (1 - s1)/2 + s1 S.  The
    constant (1 - s1)/2 is summed from its own Taylor series, so that with
    both terms nonnegative the small means near phi = 0 keep their digits.
    """
    h = 2.0 * math.pi / g
    a = 0.0
    term = 1.0
    for k in range(1, 8):
        # term = (-1)^k (h/2)^(2k) / (2k+1)!, the k-th term of s1 - 1
        term *= -((h / 2.0) ** 2) / ((2 * k) * (2 * k + 1))
        a -= term / 2.0
    s1 = 1.0 - 2.0 * a
    return a + s1 * np.sin((np.arange(g) + 0.5) * (h / 2.0)) ** 2


def _mixture(p):
    """The defensive mixture q = p/2 + 1/(2g) of bin masses p: its CDF at the g + 1
    edges, and the weights p/q with q the differences of that CDF."""
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * p + 0.5 / p.size)])
    cdf /= cdf[-1]
    return cdf, p / np.diff(cdf)


def _grid_size(p, weight, loss, trials):
    """Smallest power of two g >= _MIN_GRID with h^2/24 <= se/10, h = 2 pi/g.

    The binned law's mean loss is biased by about h^2 (1 - 2 D)/24 (the mean
    of the loss's second derivative, 1/2 - sin^2, times the within-bin
    variance h^2/12).  se is the exact standard error of simulate's scores
    (p/q) loss, with bins drawn from q and weight = p/q from _mixture(p): its
    square times the trial count is sum p^2/q loss^2 minus the squared mean.
    """
    mean = float(np.sum(p * loss))
    variance = float(np.sum(p * weight * loss * loss)) - mean * mean
    se = math.sqrt(max(variance, 0.0) / trials)
    g = _MIN_GRID
    while (2.0 * math.pi / g) ** 2 / 24.0 > se / 10.0:
        g *= 2
        if g > MAX_GRID_SIZE:
            raise ValueError(
                f"at {trials} trials this law's grid bias needs more than "
                f"{MAX_GRID_SIZE} bins: use fewer trials or a smaller n")
    return g


def simulate(config, design):
    """Estimate the design's mean loss by Monte Carlo and compare it to the closed form.

    The outcome law, from outcome_coefficients, is integrated exactly over
    the grid_size bins of [0, 2 pi) (_bin_masses).  Bins are drawn from the
    defensive mixture q = p/2 + 1/(2 grid_size) of the bin masses p
    (Hesterberg, Technometrics 37, 185, 1995): the rare bins far from the
    truth, which carry much of the mean error at large n, are drawn often at
    a small weight, so the mean is close to normal where the plain sample
    mean is heavily skewed.  A trial in bin i scores Y = (p_i/q_i) L_i, with
    L_i the bin's mean of sin^2(phi/2) (_bin_moments).  That is the mean,
    given the bin, of the score of an angle drawn uniformly within it, so Y
    has the same mean, the binned law's mean loss, at no larger variance
    (Rao-Blackwellisation; Casella & Robert, Biometrika 83, 81, 1996).
    `empirical_mean_error` and `standard_error` are the mean of Y and its
    empirical standard error; trials that all score alike give none, a
    ValueError.  `law_bias` is the binned law's exact mean loss minus the
    closed form, the design's own error: the z-score's expected offset
    times the standard error.

    With grid_size None the grid is the smallest power of two >= 4096 bins
    whose bias, about h^2/24 with h the bin width, is at most a tenth of the
    exact standard error of this estimator on that grid (_grid_size).  The
    standard error is computed first on 4096 bins and again on each finer
    grid it asks for, until a grid asks for no finer one: a law narrower
    than the bins (n above about 2000) has a wider binned law, whose
    standard error overstates the estimator's.  A law that would need more
    than MAX_GRID_SIZE bins is a ValueError.

    A trial's score depends on its draw only through its bin, so the mean
    and M2, the sum of squared deviations, depend on the trials only through
    the bin counts, which are Multinomial(trials, q).  They are drawn in one
    call, np.random.default_rng(seed).multinomial(trials, q), and the mean
    and M2 are sums over the bins: O(grid_size) time and memory, whatever
    the trial count, on one thread, so every field has the same bits on any
    number of CPUs.  Every sum over the bins, law_bias's and _grid_size's
    too, is numpy's sum and not a BLAS dot product, whose bits change with
    the BLAS thread count at 2^16 bins.  numpy draws the counts by
    conditional binomials (Devroye, Non-Uniform Random Variate Generation,
    1986), bin j at probability q_j / r_j with r_j = 1 - q_0 - ... - q_{j-1}
    subtracted in floating point, the last bin taking what is left; the
    law this implies differs from q by the roundoff of that running sum.
    For su2 n = 601 and phase n = 1000 on 4096, 2^16 and 2^22 bins it moves
    the mean by at most 2e-9 standard errors at 2 * 10^7 trials (1.8e-9 for
    phase n = 1000 on 2^22 bins).
    """
    coefficients, closed = outcome_coefficients(design), design.error
    if not math.isfinite(closed):
        raise ValueError("the design's error is not a finite number")
    trials = config.trials

    g = config.grid_size or _MIN_GRID
    while True:
        p, loss = _bin_masses(coefficients, g), _bin_moments(g)
        cdf, weight = _mixture(p)
        finer = config.grid_size or _grid_size(p, weight, loss, trials)
        if finer <= g:
            break
        g = finer
    law_bias = float(np.sum(p * loss)) - closed

    score = weight * loss
    counts = np.random.default_rng(config.seed).multinomial(trials, np.diff(cdf))
    # a draw in one bin has frequency exactly 1 there, so its mean is that
    # bin's score and its M2 exactly 0
    mean = float(np.sum(counts / trials * score))
    m2 = float(np.sum(counts * np.square(score - mean)))
    se = math.sqrt(m2 / (trials - 1) / trials)
    if not se > 0.0:
        raise ValueError(f"all {trials} trials drew the same score, so they give no "
                         "standard error: use more trials")
    return SimResult(mean, se, closed, (mean - closed) / se, law_bias)
