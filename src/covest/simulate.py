"""Monte Carlo verification of the covariant estimation protocols.

By covariance, the outcome law depends only on the angle relative to the
true parameter.  For either design type it is a trigonometric polynomial,
Re sum_m C_m e^{i m phi} on [0, 2 pi), and `outcome_coefficients` returns
its coefficient vector C.  The simulator fixes the truth at the identity
and samples that law by inverse CDF on an equispaced grid.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .phase import PhaseDesign
from .su2_design import Su2Design

_NEG_TOL = 1e-10
# trials drawn and kept in temporaries at a time
_CHUNK = 1 << 16
# guide-table cells, a power of two so that u * _CELLS is exact
_CELLS = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    grid_size: int = 4096

    def __post_init__(self):
        if self.trials < 2:
            raise ValueError("at least two trials are needed for a standard error")
        g = self.grid_size
        if g < 256 or g & (g - 1) != 0:
            raise ValueError("grid_size must be a power of two >= 256")


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


def _guide_table(cdf):
    """Guide table of a CDF over g bins (Chen & Asau 1974; Devroye, III.2.4).

    lo[c] is the bin of the uniform c/_CELLS, and sure[c] says that every
    uniform in [c/_CELLS, (c+1)/_CELLS) has that bin: the bin is monotone
    in the uniform, so a cell whose two ends share a bin holds no CDF point.
    _CELLS is a power of two, so cdf * _CELLS is exact and cdf[i] <= c/_CELLS
    exactly when ceil(cdf[i] * _CELLS) <= c: one bincount of those first
    cells and one cumsum count the CDF points at or below every cell edge,
    in O(g + _CELLS).
    """
    g = cdf.size - 1
    first = np.minimum(np.ceil(cdf * _CELLS), _CELLS + 1).astype(np.intp)
    count = np.cumsum(np.bincount(first, minlength=_CELLS + 2)[: _CELLS + 1])
    lo = np.minimum(count - 1, g - 1)
    return lo, lo[:-1] == lo[1:]


def _bins(cdf, lo, sure, u):
    """clip(searchsorted(cdf, u, "right") - 1, 0, g - 1) for uniforms u in [0, 1).

    u * _CELLS is exact, so its integer part is u's cell; only the uniforms
    in cells that hold a CDF point are searched.
    """
    cell = (u * _CELLS).astype(np.intp)
    idx = lo[cell]
    unsure = ~sure[cell]
    found = np.searchsorted(cdf, u[unsure], side="right") - 1
    idx[unsure] = np.clip(found, 0, cdf.size - 2)
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


def simulate(config, design):
    """Sample the outcome density and compare the empirical error to the closed form.

    Inverse-CDF sampling on a grid_size-bin discretization with linear
    interpolation within bins; the density on the grid comes from
    outcome_coefficients by one FFT.  `law_bias` is the exact mean loss of that
    discretized law minus the closed form, the z-score's expected offset
    times the standard error.  The closed form is the design's own error.

    All trials come from the one stream np.random.default_rng([seed, 0]),
    drawn in chunks of _CHUNK.  The chunks are split into one contiguous
    range per CPU this process may run on (_cpu_count), each filled on its
    own thread from its own copy of the stream, advanced past the trials
    before it: a float64 draw takes one 64-bit word, so PCG64.advance(start)
    puts a range's draws exactly where one draw of every trial would.  Each
    uniform u finds its bin through a guide table of _CELLS cells
    (_guide_table, _bins): a cell that holds no CDF point gives every
    uniform in it the bin of its left edge, and only the uniforms in the
    other cells are binary-searched.  _CELLS is a power of two, so
    u * _CELLS and the cell edges are exact and the bin is always the one a
    binary search over the whole CDF gives.  A chunk's steps are done in
    place on one buffer, each rounding as the one-shot expression does,
    and write the losses into one array of `trials` floats.  The mean and
    variance are the same serial pairwise sums over that array as over a
    one-shot array, so every field has the bits of drawing, searching and
    summing all trials at once, whatever the CPU count, in about 8 bytes
    per trial.
    """
    coefficients, closed = outcome_coefficients(design), design.error

    g = config.grid_size
    edges = np.linspace(0.0, 2.0 * math.pi, g + 1)
    pdf = _on_grid(coefficients, g)
    if pdf.min() < -_NEG_TOL:
        raise ValueError("outcome density is negative: invalid design")
    pdf = np.clip(pdf, 0.0, None)
    width = 2.0 * math.pi / g
    mass = 0.5 * (pdf[:-1] + pdf[1:]) * width
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    mass = np.diff(cdf)
    # exact mean loss of this law: uniform within each bin
    bin_loss = 0.5 - (np.sin(edges[1:]) - np.sin(edges[:-1])) / (2.0 * width)
    law_bias = float(np.dot(mass, bin_loss)) - closed

    lo, sure = _guide_table(cdf)
    safe = np.where(mass > 0.0, mass, 1.0)
    losses = np.empty(config.trials)

    def fill(start, stop):
        # trials start..stop-1 of the one stream, each step in place on one
        # buffer and rounding as the one-shot expression does
        rng = np.random.default_rng([config.seed, 0])
        rng.bit_generator.advance(start)
        buffer = np.empty(min(_CHUNK, stop - start))
        for begin in range(start, stop, _CHUNK):
            x = buffer[: min(_CHUNK, stop - begin)]
            rng.random(out=x)
            idx = _bins(cdf, lo, sure, x)
            x -= cdf[idx]
            x /= safe[idx]
            np.clip(x, 0.0, 1.0, out=x)
            x *= width
            x += edges[idx]
            x /= 2.0
            np.sin(x, out=x)
            np.square(x, out=losses[begin : begin + x.size])

    chunks = -(-config.trials // _CHUNK)
    workers = min(_cpu_count(), chunks)
    bounds = [min(k * chunks // workers * _CHUNK, config.trials) for k in range(workers + 1)]
    _run_split(fill, list(zip(bounds[:-1], bounds[1:])))
    mean = float(losses.mean())
    losses -= mean
    variance = float(np.sum(np.square(losses, out=losses))) / (config.trials - 1)
    se = math.sqrt(variance / config.trials)
    z = (mean - closed) / se
    return SimResult(mean, se, closed, z, law_bias)
