"""Covariant phase estimation over d eigenlevels.

The worst-case mean error of a covariant design (input amplitudes x,
seed T) is theta-independent and reduces to a neighbor-coupling form in
the subdiagonal of T.  A seed is stored as a factor F with unit-norm rows,
T = F F^H; the optimal seed is rank one, the column of amplitude phases.
The optimal input of n uses is the SU(2) sine profile on the even
dimensions 2, 4, ..., 2n+2 (see _sine_design, which su2_design shares).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index

_REL_TOL = 1e-12  # of unit norms, and of design errors against their recomputed value


@dataclass(frozen=True)
class PhaseInputState:
    """Normalized complex amplitudes over eigenlevels."""

    amplitudes: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.array(self.amplitudes, dtype=complex))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("amplitudes must be a nonempty vector")
        if not abs(np.sum(np.abs(x) ** 2) - 1.0) <= _REL_TOL:
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
        if not np.max(np.abs(np.sum(np.abs(f) ** 2, axis=1) - 1.0)) <= _REL_TOL:
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
        recomputed = phase_error(self.input, self.seed)
        if not abs(self.error - recomputed) <= _REL_TOL * recomputed:
            raise ValueError("design error inconsistent with its input and seed")


def phase_error(x, seed):
    """Mean error of the covariant design (x, T); theta-independent.

    With t_k = t_{k+1,k} = sum_r F[k+1,r] conj(F[k,r]) and x_m the last level,
    it is (1/4)[|x_0|^2 + |x_m|^2 + sum_k |x_{k+1} - conj(t_k) x_k|^2
    + sum_k (1 - |t_k|^2) |x_k|^2], exactly (1/2) sum |x_k|^2 - (1/2) Re sum
    conj(x_k) x_{k+1} t_k as nonnegative terms (|t_k| <= 1) that cannot cancel.
    """
    xv = x.amplitudes
    f = seed.factor
    if f.shape[0] != xv.size:
        raise ValueError("input state and seed dimensions differ")
    t = np.sum(f[1:] * np.conj(f[:-1]), axis=1)
    p = np.abs(xv) ** 2
    links = np.abs(xv[1:] - np.conj(t) * xv[:-1]) ** 2 + (1.0 - np.abs(t) ** 2) * p[:-1]
    return 0.25 * float(p[0] + p[-1] + np.sum(links))


def optimal_seed(x):
    """Rank-one seed t_{k,l} = conj(u_k) u_l, u_k = exp(i arg x_k): factor conj(u).

    A zero x_k gets u_k = 1 (any unit choice there attains the same error),
    and real nonnegative amplitudes give u = 1 exactly, so every link t_k is 1.
    """
    xv = x.amplitudes
    u = np.exp(1j * np.angle(xv))
    u[xv == 0.0] = 1.0
    return Seed(np.conj(u)[:, None])


def min_covariant_error(x):
    """Minimum covariant error: phase_error at t_k = 1 on a = |x|,
    (1/4)[a_0^2 + a_m^2 + sum_k (a_{k+1} - a_k)^2]."""
    a = np.abs(x.amplitudes)
    return 0.25 * float(a[0] ** 2 + a[-1] ** 2 + np.sum(np.diff(a) ** 2))


def _sine_error(top):
    """sin^2(pi/(D+2)), the error of _sine_design up to dimension D = top, in O(1)."""
    return math.sin(math.pi / (top + 2)) ** 2


def _sine_design(top, dims):
    """(input, seed, error) of the optimum up to dimension D = top: amplitude
    ∝ sin(pi d/(D+2)) on the dimensions d <= D, 0 above, and its optimal seed."""
    dims = np.asarray(dims)
    a = np.where(dims <= top, np.sin(math.pi * dims / (top + 2)), 0.0)
    state = PhaseInputState(a / np.linalg.norm(a))
    return state, optimal_seed(state), _sine_error(top)


def optimal_input(n):
    """Exact optimal design for n uses (d = n+1 levels).

    It is the SU(2) sine profile on the even dimensions 2, 4, ..., D = 2n+2:
    a_k ∝ sin(pi (k+1)/(n+2)), the principal eigenvector of the tridiagonal
    matrix with zero diagonal and 1/2 off-diagonal, eigenvalue cos(pi/(n+2)),
    and the error (1/2)(1 - cos(pi/(n+2))) = sin^2(pi/(2n+4)).
    """
    if as_index(n, "n") < 0:
        raise ValueError("n must be >= 0")
    return PhaseDesign(*_sine_design(2 * n + 2, np.arange(2, 2 * n + 3, 2)))


def bdm_input(n):
    """Sine-profile amplitudes a_k = sqrt(2/(n+1)) sin(pi (k+1/2)/(n+1))."""
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n + 1)
    amps = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi * (k + 0.5) / (n + 1))
    return PhaseInputState(amps)


def _bdm_error(n):
    """n sin^2(pi/(2(n+1)))/(n+1), the min_covariant_error of bdm_input(n), in O(1).

    With h = pi/(n+1) and s = sin(h/2), the two end amplitudes square to
    (2/(n+1)) s^2 each, and a_{k+1} - a_k = 2 sqrt(2/(n+1)) s cos((k+1)h),
    whose squares sum over k < n to (4/(n+1)) s^2 (n-1), because the cos^2
    of j h sum to (n-1)/2 over j = 1..n.
    """
    return n * math.sin(math.pi / (2 * n + 2)) ** 2 / (n + 1)


def asymptotic_error(n):
    """Large-n error scale pi^2 / (4 n^2)."""
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return math.pi**2 / (4.0 * n * n)
