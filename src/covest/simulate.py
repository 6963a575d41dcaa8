"""Monte Carlo verification of the covariant estimation protocols.

By covariance, the outcome law depends only on the angle relative to the
true parameter.  For either design type it is a trigonometric polynomial,
Re sum_m C_m e^{i m phi} on [0, 2 pi), and `outcome_coefficients` returns
its coefficient vector C.  The simulator fixes the truth at the identity,
integrates that law exactly over the bins of an equispaced grid, and samples
the binned law by importance sampling.
"""

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .phase import PhaseDesign
from .su2_design import Su2Design

_NEG_TOL = 1e-10
# trials per chunk, each chunk drawn from its own stream and scored in
# blocks of _BLOCK, whose work arrays stay in cache
_CHUNK = 1 << 16
_BLOCK = 1 << 14
# chunks a thread runs at least, so that a short run starts no thread that
# would only wait for its start-up
_CHUNKS_PER_THREAD = 8
# Taylor coefficients of sin(d)/d - 1 and (1 - cos(d))/d^2 in d^2, from the
# highest: sin(d) = d (1 + d^2 (-1/6 + d^2 (1/120 - d^2/5040)))
_SIN = (-1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)
_VERSIN = (-1.0 / 40320.0, 1.0 / 720.0, -1.0 / 24.0, 0.5)
# the automatic grid: at least _MIN_GRID bins, doubled until the law's bias
# is a tenth of the standard error; a larger grid is a usage error, since
# the grid's arrays take about 90 bytes per bin
_MIN_GRID = 1 << 12
MAX_GRID_SIZE = 1 << 22
# guide-table cells per bin, a power of two so that u * cells is exact: every
# mixture bin has mass >= 1/(2g), one cell, so no two CDF points lie strictly
# inside one cell, roundoff aside, and one comparison finds every bin (_bins).
# Grids past _MAX_CELLS / 2 bins get fewer cells per bin, and each further
# point in a cell costs one more comparison.
_CELLS_PER_BIN = 2
_MAX_CELLS = 1 << 22


def _index(value, name):
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


@dataclass(frozen=True)
class SimConfig:
    """A run of `trials` draws from the stream of `seed`; `grid_size` fixes the
    number of bins, and None sizes the grid from the law (see `simulate`)."""

    trials: int
    seed: int
    grid_size: int | None = None

    def __post_init__(self):
        if _index(self.trials, "trials") < 2:
            raise ValueError("at least two trials are needed for a standard error")
        _index(self.seed, "seed")
        g = self.grid_size
        if g is not None and not (
            256 <= _index(g, "grid_size") <= MAX_GRID_SIZE and g & (g - 1) == 0
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
    """Re sum_m C_m e^{i m phi} at phi = 2 pi j / g, j = 0..g, by one inverse FFT.

    Folding coefficient m into slot m mod g is exact at the grid points,
    whatever the degree; the endpoint 2 pi repeats the value at 0.
    """
    folded = np.pad(coefficients, (0, -coefficients.size % g)).reshape(-1, g).sum(axis=0)
    values = g * np.fft.ifft(folded).real
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
    """Means of sin^2(phi/2) and sin^4(phi/2) over each of the g bins.

    With c a bin's centre, S = sin^2(c/2), h = 2 pi/g, s1 = sinc(h/2) and
    s2 = sinc(h), averaging cos(phi) and cos(2 phi) over the bin gives
    (1 - s1)/2 + s1 S and (3 - 4 s1 + s2)/8 + (s1 - s2) S + s2 S^2.  The
    three constants are summed from their own Taylor series, so that with
    every other term nonnegative the small means near phi = 0 keep their
    digits.
    """
    h = 2.0 * math.pi / g
    a = b = c = 0.0
    term = 1.0
    for k in range(1, 8):
        # term = (-1)^k (h/2)^(2k) / (2k+1)!, the k-th term of s1 - 1
        term *= -((h / 2.0) ** 2) / ((2 * k) * (2 * k + 1))
        a -= term / 2.0
        b += term * (1 - 4**k)
        c += term * (4**k - 4) / 8.0
    s1 = 1.0 - 2.0 * a
    s = np.sin((np.arange(g) + 0.5) * (h / 2.0)) ** 2
    loss = a + s1 * s
    square = c + b * s + (s1 - b) * s * s
    return loss, square


def _mixture(p):
    """The defensive mixture q = p/2 + 1/(2g) of bin masses p: its CDF at the g + 1
    edges, its masses as differences of that CDF, and the weights p/q."""
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * p + 0.5 / p.size)])
    cdf /= cdf[-1]
    q = np.diff(cdf)
    return cdf, q, p / q


def _grid_size(p, loss, square, trials):
    """Smallest power of two g >= _MIN_GRID with h^2/24 <= se/10, h = 2 pi/g.

    The binned law's mean loss is biased by about h^2 (1 - 2 D)/24 (the mean
    of the loss's second derivative, 1/2 - sin^2, times the within-bin
    variance h^2/12), and se is the exact standard error of the mixture
    estimator on the grid of the bin masses p and _bin_moments loss and
    square: sum p^2/q E[L^2 | bin] minus the squared mean.
    """
    q = _mixture(p)[1]
    mean = float(np.dot(p, loss))
    variance = float(np.dot(p * p / q, square)) - mean * mean
    se = math.sqrt(max(variance, 0.0) / trials)
    g = _MIN_GRID
    while (2.0 * math.pi / g) ** 2 / 24.0 > se / 10.0:
        g *= 2
        if g > MAX_GRID_SIZE:
            raise ValueError(
                f"at {trials} trials this law's grid bias needs more than "
                f"{MAX_GRID_SIZE} bins: use fewer trials or a smaller n")
    return g


def _guide_table(cdf, cells):
    """Guide table of a CDF over g bins (Chen & Asau 1974; Devroye, III.2.4).

    lo[c] is the bin of the uniform c/cells, and steps is the most CDF
    points strictly inside any cell (c/cells, (c+1)/cells), the most a
    uniform in the cell can be at or above, so its bin is lo of its cell
    plus at most steps more.  cells is a power of two, so cdf * cells is
    exact: cdf[i] <= c/cells exactly when ceil(cdf[i] * cells) <= c, so one
    bincount of those first edges and one cumsum count the CDF points at or
    below every cell edge, in O(g + cells), and a point off the edges lies
    inside the cell just below its first edge.
    """
    g = cdf.size - 1
    scaled = cdf * cells
    first = np.ceil(scaled).astype(np.intp)
    lo = np.bincount(first, minlength=cells + 1)
    np.cumsum(lo, out=lo)
    lo -= 1
    np.minimum(lo, g - 1, out=lo)
    # the longest run of equal first edges among the points off the edges
    inside = first[scaled != first]
    runs = np.diff(np.flatnonzero(np.diff(inside, prepend=-1, append=cells + 2)))
    return lo, int(runs.max(initial=0))


def _bins(cdf, lo, steps, u, idx, cell, above):
    """clip(searchsorted(cdf, u, "right") - 1, 0, g - 1) for uniforms u in [0, 1),
    written to idx, with cell and above work arrays of u's size.

    u times the power-of-two cell count is exact, so its integer part is u's
    cell; from lo of that cell, each of steps comparisons with the next CDF
    point moves the bin past one point at or below u.
    """
    np.multiply(u, lo.size - 1, out=above)
    np.copyto(cell, above, casting="unsafe")
    # every index is in range, so no take needs its bounds check
    np.take(lo, cell, out=idx, mode="clip")
    for _ in range(steps):
        np.add(idx, 1, out=cell)
        np.take(cdf, cell, out=above, mode="clip")
        idx += u >= above
    return idx


def _cpu_count():
    """CPUs this process may run on, the sampler's thread count before capping."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_split(task, ranges):
    """task(start, stop) for every range: the first on this thread, each other
    on a thread of its own, every error re-raised once all have ended.

    numpy has already loaded threading, so this imports nothing, and a
    single range starts no thread.
    """
    errors = []

    def run(start, stop):
        try:
            task(start, stop)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=pair) for pair in ranges[1:]]
    for thread in threads:
        thread.start()
    run(*ranges[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _merged(moments, trials):
    """Mean and sum of squared deviations of all trials from per-chunk (mean, M2)
    rows, merged in chunk order (Chan, Golub & LeVeque, Am. Stat. 37, 242, 1983)."""
    count, mean, m2 = 0, 0.0, 0.0
    for c, (chunk_mean, chunk_m2) in enumerate(moments.tolist()):
        size = min(_CHUNK, trials - c * _CHUNK)
        total = count + size
        delta = chunk_mean - mean
        mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    return mean, m2


def simulate(config, design):
    """Estimate the design's mean loss by Monte Carlo and compare it to the closed form.

    The outcome law, from outcome_coefficients, is integrated exactly over
    the grid_size bins of [0, 2 pi) (_bin_masses), and each trial draws an
    angle uniformly within a bin.  The bins are drawn from the defensive
    mixture q = p/2 + 1/(2 grid_size) of the bin masses p, and each trial
    scores Y = sin^2(phi/2) p/q (Hesterberg, Technometrics 37, 185, 1995).
    The weight is constant per bin and Y's mean is the binned law's mean
    loss.  The rare angles far from the truth, which carry much of the mean
    error at large n, are drawn often at a small weight, so the mean of Y is
    close to normal where the plain sample mean is heavily skewed.
    `empirical_mean_error` and `standard_error` are the mean of Y and its
    empirical standard error.  `law_bias` is the exact mean loss of the
    binned law minus the closed form, the z-score's expected offset times the
    standard error.  The closed form is the design's own error.

    With grid_size None the grid is the smallest power of two >= 4096 bins
    whose bias, about h^2/24 with h the bin width, is at most a tenth of the
    exact standard error of this estimator on that grid (_grid_size).  The
    standard error is computed first on 4096 bins and again on each finer
    grid it asks for, until a grid asks for no finer one: a law narrower
    than the bins (n above about 2000) has a wider binned law, whose
    standard error overstates the estimator's.  A law that would need more
    than MAX_GRID_SIZE bins is a ValueError.

    The trials are drawn in chunks of _CHUNK, chunk c from its own stream
    np.random.default_rng(np.random.SeedSequence(seed).spawn(chunks)[c]).
    Each chunk leaves only its mean and M2, the sum of its squared
    deviations, in a (chunks, 2) array, and the rows are merged in chunk
    order (_merged), so memory is O(grid_size + threads * _CHUNK) whatever
    the trial count.  The chunks are split into contiguous ranges of at least
    _CHUNKS_PER_THREAD, at most one per CPU this process may run on
    (_cpu_count), each on its own thread (_run_split).  A chunk's result
    depends on its index alone, so every field has the same bits whatever the
    CPU count.  Each uniform finds its bin through a guide table of 2 cells
    per bin and one comparison (_guide_table, _bins), which gives the bin a
    binary search over the whole CDF gives, and its score comes from the
    bin's centre and short Taylor series of the offset, with no call of sin.
    """
    coefficients, closed = outcome_coefficients(design), design.error
    if not math.isfinite(closed):
        raise ValueError("the design's error is not a finite number")
    trials = config.trials

    g = config.grid_size or _MIN_GRID
    p, losses = _bin_masses(coefficients, g), _bin_moments(g)
    while config.grid_size is None and (finer := _grid_size(p, *losses, trials)) > g:
        g = finer
        p, losses = _bin_masses(coefficients, g), _bin_moments(g)
    width = 2.0 * math.pi / g
    law_bias = float(np.dot(p, losses[0])) - closed

    cdf, _, weight = _mixture(p)
    lo, steps = _guide_table(cdf, min(_CELLS_PER_BIN * g, _MAX_CELLS))
    # with d the angle's offset from its bin's centre c, a score is
    # p/q sin^2((c + d)/2) = level + even (1 - cos d) + odd sin d
    centre = (np.arange(g) + 0.5) * width
    level = weight * np.sin(centre / 2.0) ** 2
    even, odd = 0.5 * weight * np.cos(centre), 0.5 * weight * np.sin(centre)
    chunks = -(-trials // _CHUNK)
    streams = np.random.SeedSequence(config.seed).spawn(chunks)
    moments = np.empty((chunks, 2))

    def fill(first, last):
        # chunks first..last-1 of uniforms, scored in place a block at a time
        # on this thread's work arrays, which then stay in cache
        chunk = np.empty(min(_CHUNK, trials - first * _CHUNK))
        work = np.empty((2, min(_BLOCK, chunk.size)))
        index = np.empty((2, work.shape[1]), np.intp)
        for c in range(first, last):
            size = min(_CHUNK, trials - c * _CHUNK)
            np.random.default_rng(streams[c]).random(out=chunk[:size])
            for start in range(0, size, _BLOCK):
                x = chunk[start : min(start + _BLOCK, size)]
                t, s = work[:, : x.size]
                idx, cell = index[:, : x.size]
                _bins(cdf, lo, steps, x, idx, cell, t)
                # the offset within the bin, with the bin's mass as the same
                # difference of CDF values that q holds
                np.add(idx, 1, out=cell)
                np.take(cdf, cell, out=s, mode="clip")
                s -= np.take(cdf, idx, out=t, mode="clip")
                x -= t
                x /= s
                x -= 0.5
                x *= width
                np.multiply(x, x, out=t)
                # s = sin(d) and x = 1 - cos(d) by Horner's rule, exact to an
                # ulp for |d| <= pi/256, half the coarsest grid's bin width
                np.multiply(t, _SIN[0], out=s)
                for coefficient in _SIN[1:]:
                    s += coefficient
                    s *= t
                s += 1.0
                s *= x
                np.multiply(t, _VERSIN[0], out=x)
                for coefficient in _VERSIN[1:]:
                    x += coefficient
                    x *= t
                x *= np.take(even, idx, out=t, mode="clip")
                s *= np.take(odd, idx, out=t, mode="clip")
                x += s
                x += np.take(level, idx, out=t, mode="clip")
            x = chunk[:size]
            mean = x.sum() / size
            x -= mean
            np.square(x, out=x)
            moments[c] = mean, x.sum()

    workers = max(1, min(_cpu_count(), chunks // _CHUNKS_PER_THREAD))
    bounds = [k * chunks // workers for k in range(workers + 1)]
    _run_split(fill, list(zip(bounds[:-1], bounds[1:])))
    mean, m2 = _merged(moments, trials)
    se = math.sqrt(m2 / (trials - 1) / trials)
    z = (mean - closed) / se
    return SimResult(mean, se, closed, z, law_bias)
