"""SU(2) elements as batched arrays: Haar sampling, class angles, characters,
irreps, and multiplicities.

An element is a 2x2 complex array and a batch is an array of shape
(..., 2, 2).  Its class angle theta in [0, 2*pi] is the conjugation
invariant with Tr = 2*cos(theta/2).  The projective distance between u and
v, 1 - |Tr(u^dag v)/2|^2, is sin^2(theta/2) at the class angle of u^dag v.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def class_angles(matrices):
    """Vectorized class angles for an array of SU(2) matrices, shape (..., 2, 2)."""
    matrices = np.asarray(matrices)
    c = np.clip((matrices[..., 0, 0] + matrices[..., 1, 1]).real / 2.0, -1.0, 1.0)
    return 2.0 * np.arccos(c)


def haar_matrices(rng, size):
    """Sample `size` Haar-distributed SU(2) matrices, shape (size, 2, 2).

    Uniform points on the unit 3-sphere (quaternion method); the induced
    class-angle marginal has density sin^2(theta/2)/pi on [0, 2*pi).
    """
    q = rng.normal(size=(size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b, c, d = q.T
    m = np.empty((size, 2, 2), dtype=complex)
    m[:, 0, 0] = a + 1j * b
    m[:, 0, 1] = c + 1j * d
    m[:, 1, 0] = -c + 1j * d
    m[:, 1, 1] = a - 1j * b
    return m


def character(j, theta):
    """Character of the j-dimensional irrep at class angle theta.

    Equals sum_{l=1}^{j} e^{i(l-(j+1)/2) theta}, which is real; the sum form
    avoids the removable singularity of sin(j theta/2)/sin(theta/2) at
    theta in {0, 2*pi}.  Accepts scalars or arrays.
    """
    if j < 1:
        raise ValueError("irrep dimension must be >= 1")
    theta = np.asarray(theta, dtype=float)
    m = np.arange(1, j + 1) - 0.5 * (j + 1)
    out = np.cos(np.multiply.outer(theta, m)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _spin_generators(j):
    """Angular-momentum matrices (Jx, Jy, Jz) for spin (j-1)/2, weight basis."""
    s = 0.5 * (j - 1)
    m = s - np.arange(j)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((j, j), dtype=complex)
    for k in range(j - 1):
        # <m_k | J+ | m_{k+1}>, with m_k = s - k
        jp[k, k + 1] = math.sqrt(s * (s + 1) - m[k + 1] * (m[k + 1] + 1))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    for g in (jx, jy, jz):
        g.setflags(write=False)
    return jx, jy, jz


def irrep_matrix_batch(j, matrices):
    """Spin-(j-1)/2 irrep matrices for a batch of SU(2) matrices, shape (n, 2, 2).

    Writes each element as exp(i theta n.sigma/2) and exponentiates the spin
    generators via a batched Hermitian eigendecomposition.
    """
    if j < 1:
        raise ValueError("irrep dimension must be >= 1")
    matrices = np.asarray(matrices, dtype=complex)
    n = matrices.shape[0]
    if j == 1:
        return np.ones((n, 1, 1), dtype=complex)
    if j == 2:
        return matrices.copy()
    c = np.clip((matrices[:, 0, 0] + matrices[:, 1, 1]).real / 2.0, -1.0, 1.0)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    theta = 2.0 * np.arctan2(s, c)
    safe = np.where(s > 1e-12, s, 1.0)
    # H = -i(m - cI) = s * n.sigma is Hermitian for SU(2) input
    nz = matrices[:, 0, 0].imag / safe
    nxy = -1j * matrices[:, 1, 0] / safe  # nx + i ny
    deg = s <= 1e-12
    nz = np.where(deg, 1.0, nz)
    nx = np.where(deg, 0.0, nxy.real)
    ny = np.where(deg, 0.0, nxy.imag)
    jx, jy, jz = _spin_generators(j)
    k = (
        nx[:, None, None] * jx
        + ny[:, None, None] * jy
        + nz[:, None, None] * jz
    )
    evals, evecs = np.linalg.eigh(k)
    phase = np.exp(1j * theta[:, None] * evals)
    return (evecs * phase[:, None, :]) @ evecs.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class MultiplicitySpectrum:
    """Irrep dimensions and multiplicities of the n-fold tensor power of C^2."""

    n: int
    entries: tuple  # ((dim, multiplicity), ...) in increasing dim

    def multiplicity(self, dim):
        for m, mult in self.entries:
            if m == dim:
                return mult
        raise KeyError(f"no irrep of dimension {dim} for n={self.n}")


def multiplicity_spectrum(n):
    """Decompose the n-qubit tensor power into irrep (dimension, multiplicity) pairs.

    Exact integer arithmetic; the dimension identity sum(dim * mult) = 2**n
    holds by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = (n + 1) // 2
    entries = []
    if n % 2 == 1:
        ks = range(1, d + 1)
        dims = [2 * k for k in ks]
    else:
        ks = range(0, d + 1)
        dims = [2 * k + 1 for k in ks]
    for k, dim in zip(ks, dims):
        lower = d - k - 1
        mult = math.comb(n, d - k) - (math.comb(n, lower) if lower >= 0 else 0)
        entries.append((dim, mult))
    spec = MultiplicitySpectrum(n, tuple(entries))
    assert sum(m * mult for m, mult in spec.entries) == 2**n
    return spec
