"""Monte Carlo verification of the covariant estimation protocols.

By covariance, the outcome law depends only on the angle relative to the
true parameter, so the simulator fixes the truth at the identity and
samples the relative-angle density by inverse CDF on an equispaced grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .phase import PhaseDesign, PhaseInputState, phase_error
from .su2 import character
from .su2_design import Su2Design

_NEG_TOL = 1e-10


@dataclass(frozen=True)
class SimConfig:
    protocol: str
    n: int
    trials: int
    seed: int
    grid_size: int = 4096

    def __post_init__(self):
        if self.protocol not in ("phase", "su2"):
            raise ValueError("protocol must be 'phase' or 'su2'")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        g = self.grid_size
        if g < 256 or g & (g - 1) != 0:
            raise ValueError("grid_size must be a power of two >= 256")


@dataclass(frozen=True)
class SimResult:
    empirical_mean_error: float
    standard_error: float
    closed_form: float
    z_score: float


def outcome_density_phase(design):
    """Relative-angle outcome density p(phi) of a covariant phase design.

    p(phi) = sum_{k,l} t_{k,l} x_k conj(x_l) e^{i(k-l) phi} / (2 pi);
    nonnegative for any PSD seed and normalized on [0, 2*pi).
    """
    x = design.input.amplitudes
    t = design.seed.entries
    k = np.arange(x.size)

    def density(phi):
        phi = np.asarray(phi, dtype=float)
        v = x * np.exp(1j * np.multiply.outer(phi, k))
        return np.einsum("...k,kl,...l->...", v, t, v.conj()).real / (2.0 * math.pi)

    return density


def outcome_density_su2_class(design):
    """Relative class-angle density q(theta) of an SU(2) design of either parity.

    q(theta) = sin^2(theta/2)/pi * sum_{k,l} t_{k,l} x_l x_k chi^{d_k} chi^{d_l}
    over the block dimensions d_k (2, 4, ... for odd n; 1, 3, ... for even n).
    """
    blocks = design.blocks
    x = blocks.amplitudes
    t = design.seed.entries
    dims = blocks.block_dims

    def density(theta):
        theta = np.asarray(theta, dtype=float)
        chi = np.stack([character(dim, theta) for dim in dims], axis=-1)
        v = x * chi
        quad = np.einsum("...k,kl,...l->...", v, t, v.conj()).real
        return np.sin(theta / 2.0) ** 2 / math.pi * quad

    return density


def _density_and_closed_form(config, design):
    if config.protocol == "phase":
        if not isinstance(design, PhaseDesign):
            raise TypeError("phase protocol requires a PhaseDesign")
        return outcome_density_phase(design), design.error
    if not isinstance(design, Su2Design):
        raise TypeError("su2 protocol requires an Su2Design")
    x = design.blocks.amplitudes
    closed = phase_error(PhaseInputState(x), design.seed)
    if design.blocks.parity == "even":
        closed += 0.25 * float(x[0]) ** 2  # trivial-block penalty
    return outcome_density_su2_class(design), closed


def _worker_counts(trials, workers):
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def simulate(config, design, workers=1):
    """Sample the outcome density and compare the empirical error to the closed form.

    Inverse-CDF sampling on a grid_size-bin discretization with linear
    interpolation within bins.  Trials are partitioned across `workers`
    independent streams derived from (seed, worker index); the result is
    deterministic given the partition count.
    """
    if config.trials < 2:
        raise ValueError("at least two trials are needed for a standard error")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    density, closed = _density_and_closed_form(config, design)

    g = config.grid_size
    edges = np.linspace(0.0, 2.0 * math.pi, g + 1)
    pdf = np.asarray(density(edges), dtype=float)
    if pdf.min() < -_NEG_TOL:
        raise ValueError("outcome density is negative: invalid seed matrix")
    pdf = np.clip(pdf, 0.0, None)
    width = 2.0 * math.pi / g
    mass = 0.5 * (pdf[:-1] + pdf[1:]) * width
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf /= cdf[-1]
    mass = np.diff(cdf)

    count = 0
    mean = 0.0
    m2 = 0.0
    for w, trials_w in enumerate(_worker_counts(config.trials, workers)):
        if trials_w == 0:
            continue
        rng = np.random.default_rng([config.seed, w])
        u = rng.random(trials_w)
        idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, g - 1)
        frac = (u - cdf[idx]) / np.where(mass[idx] > 0.0, mass[idx], 1.0)
        angles = edges[idx] + np.clip(frac, 0.0, 1.0) * width
        losses = np.sin(angles / 2.0) ** 2
        # streaming (Chan et al.) merge of per-worker moments
        c_w = losses.size
        mean_w = float(losses.mean())
        m2_w = float(np.sum((losses - mean_w) ** 2))
        delta = mean_w - mean
        total = count + c_w
        m2 = m2 + m2_w + delta * delta * count * c_w / total
        mean = mean + delta * c_w / total
        count = total

    variance = m2 / (count - 1)
    se = math.sqrt(variance / count)
    z = (mean - closed) / se
    return SimResult(mean, se, closed, z)
