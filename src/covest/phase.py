"""Covariant phase estimation over d eigenlevels.

The worst-case mean error of a covariant design (input amplitudes x,
seed matrix T) is theta-independent and reduces to a neighbor-coupling
quadratic form; the optimal seed is the rank-one matrix of amplitude
phases, and the optimal input is the sine profile that is the principal
eigenvector of the tridiagonal coupling matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class PhaseInputState:
    """Normalized complex amplitudes over eigenlevels."""

    amplitudes: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.amplitudes, dtype=complex))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        if abs(np.sum(np.abs(x) ** 2) - 1.0) > _NORM_TOL:
            raise ValueError("amplitudes must have unit norm")
        x.setflags(write=False)
        object.__setattr__(self, "amplitudes", x)

    @property
    def dim(self):
        return self.amplitudes.size


@dataclass(frozen=True)
class SeedMatrix:
    """Hermitian PSD matrix with unit diagonal, generating a covariant POVM."""

    entries: np.ndarray

    def __post_init__(self):
        t = np.array(self.entries, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("seed matrix must be square")
        if np.max(np.abs(t - t.conj().T)) > _NORM_TOL:
            raise ValueError("seed matrix must be Hermitian")
        if np.max(np.abs(np.diag(t) - 1.0)) > _NORM_TOL:
            raise ValueError("seed matrix must have unit diagonal")
        if np.linalg.eigvalsh(t).min() < -_PSD_TOL:
            raise ValueError("seed matrix must be positive semidefinite")
        t.setflags(write=False)
        object.__setattr__(self, "entries", t)

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class PhaseDesign:
    """Input state, seed, and the resulting worst-case mean error."""

    input: PhaseInputState
    seed: SeedMatrix
    error: float

    def __post_init__(self):
        if abs(self.error - phase_error(self.input, self.seed)) > _NORM_TOL:
            raise ValueError("design error inconsistent with its input and seed")


def phase_error(x, t):
    """Mean error of the covariant design (x, T); theta-independent.

    Equals (1/2) sum |x_k|^2 t_kk - (1/2) Re sum conj(x_k) x_{k+1} t_{k+1,k}.
    """
    xv = x.amplitudes
    tm = t.entries
    if tm.shape[0] != xv.size:
        raise ValueError("input state and seed matrix dimensions differ")
    diag = 0.5 * float(np.sum(np.abs(xv) ** 2 * np.real(np.diag(tm))))
    if xv.size == 1:
        return diag
    cross = np.sum(np.conj(xv[:-1]) * xv[1:] * np.diag(tm, -1))
    return diag - 0.5 * float(np.real(cross))


def optimal_seed(x):
    """Rank-one seed with t_{k,l} = conj(x_k) x_l / (|x_k| |x_l|).

    Zero amplitudes get a unit phase placeholder; any unit-modulus choice
    attains the same error because the affected terms carry the factor |x_k|.
    """
    xv = x.amplitudes
    mags = np.abs(xv)
    u = np.where(mags > 0.0, xv / np.where(mags > 0.0, mags, 1.0), 1.0)
    t = np.outer(np.conj(u), u)
    np.fill_diagonal(t, 1.0)
    return SeedMatrix(t)


def min_covariant_error(x):
    """Minimum covariant error (1/2)(1 - sum |x_k| |x_{k+1}|)."""
    mags = np.abs(x.amplitudes)
    return 0.5 * (1.0 - float(np.sum(mags[:-1] * mags[1:])))


def optimal_input(n):
    """Exact optimal design for n uses (d = n+1 levels).

    The amplitudes maximize sum a_k a_{k+1} over the nonnegative unit sphere:
    the principal eigenvector a_k ∝ sin(pi (k+1)/(n+2)) of the tridiagonal
    matrix with zero diagonal and 1/2 off-diagonal, whose eigenvalue is
    lambda_max = cos(pi/(n+2)).  The error is (1/2)(1 - lambda_max).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    amps = np.sin(math.pi * np.arange(1, n + 2) / (n + 2))
    state = PhaseInputState(amps / np.linalg.norm(amps))
    error = 0.5 * (1.0 - math.cos(math.pi / (n + 2)))
    return PhaseDesign(state, optimal_seed(state), error)


def bdm_input(n):
    """Sine-profile amplitudes a_k = sqrt(2/(n+1)) sin(pi (k+1/2)/(n+1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n + 1)
    amps = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (k + 0.5) / (n + 1))
    return PhaseInputState(amps)


def asymptotic_error(n):
    """Large-n error scale pi^2 / (4 n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.pi**2 / (4.0 * n * n)
