"""Covariant phase estimation over d eigenlevels.

The worst-case mean error of a covariant design (input amplitudes x,
seed T) is theta-independent and reduces to a neighbor-coupling form in
the subdiagonal of T.  A seed is stored as a factor F with unit-norm rows,
T = F F^H; the optimal seed is rank one, the column of amplitude phases,
and the optimal input is the sine profile that is the principal
eigenvector of the tridiagonal coupling matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PhaseInputState:
    """Normalized complex amplitudes over eigenlevels."""

    amplitudes: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.amplitudes, dtype=complex))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        if not abs(np.sum(np.abs(x) ** 2) - 1.0) <= _NORM_TOL:
            raise ValueError("amplitudes must have unit norm")
        x.setflags(write=False)
        object.__setattr__(self, "amplitudes", x)

    @property
    def dim(self):
        return self.amplitudes.size


@dataclass(frozen=True)
class Seed:
    """Seed T = F F^H of a covariant POVM, stored as its d x r factor F.

    Every row of F has unit norm, so T is Hermitian, positive semidefinite
    and unit-diagonal by construction.
    """

    factor: np.ndarray

    def __post_init__(self):
        f = np.array(self.factor, dtype=complex)
        if f.ndim != 2 or f.size == 0:
            raise ValueError("seed factor must be a nonempty d x r matrix")
        if not np.max(np.abs(np.sum(np.abs(f) ** 2, axis=1) - 1.0)) <= _NORM_TOL:
            raise ValueError("seed factor rows must have unit norm")
        f.setflags(write=False)
        object.__setattr__(self, "factor", f)


@dataclass(frozen=True)
class PhaseDesign:
    """Input state, seed, and the resulting worst-case mean error."""

    input: PhaseInputState
    seed: Seed
    error: float

    def __post_init__(self):
        if not abs(self.error - phase_error(self.input, self.seed)) <= _NORM_TOL:
            raise ValueError("design error inconsistent with its input and seed")


def phase_error(x, seed):
    """Mean error of the covariant design (x, T); theta-independent.

    Equals (1/2) sum |x_k|^2 t_kk - (1/2) Re sum conj(x_k) x_{k+1} t_{k+1,k},
    with t_kk = 1 and t_{k+1,k} = sum_r F[k+1,r] conj(F[k,r]).
    """
    xv = x.amplitudes
    f = seed.factor
    if f.shape[0] != xv.size:
        raise ValueError("input state and seed dimensions differ")
    diag = 0.5 * float(np.sum(np.abs(xv) ** 2))
    sub = np.sum(f[1:] * np.conj(f[:-1]), axis=1)
    cross = np.sum(np.conj(xv[:-1]) * xv[1:] * sub)
    return diag - 0.5 * float(np.real(cross))


def optimal_seed(x):
    """Rank-one seed t_{k,l} = conj(u_k) u_l, u_k = x_k / |x_k|: factor conj(u).

    The division is made only where |x_k| is a normal number, since complex
    division by a subnormal overflows; a subnormal x_k gets exp(i arg x_k),
    and a zero one the unit placeholder 1.  Any unit-modulus choice there
    attains the same error because the affected terms carry |x_k|.
    """
    xv = x.amplitudes
    mags = np.abs(xv)
    normal = mags >= np.finfo(float).tiny
    u = np.where(normal, xv / np.where(normal, mags, 1.0), np.exp(1j * np.angle(xv)))
    u[mags == 0.0] = 1.0
    return Seed(np.conj(u)[:, None])


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
    if as_index(n, "n") < 0:
        raise ValueError("n must be >= 0")
    amps = np.sin(math.pi * np.arange(1, n + 2) / (n + 2))
    state = PhaseInputState(amps / np.linalg.norm(amps))
    error = 0.5 * (1.0 - math.cos(math.pi / (n + 2)))
    return PhaseDesign(state, optimal_seed(state), error)


def bdm_input(n):
    """Sine-profile amplitudes a_k = sqrt(2/(n+1)) sin(pi (k+1/2)/(n+1))."""
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n + 1)
    amps = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (k + 0.5) / (n + 1))
    return PhaseInputState(amps)


def asymptotic_error(n):
    """Large-n error scale pi^2 / (4 n^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.pi**2 / (4.0 * n * n)
