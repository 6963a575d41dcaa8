"""SU(2) elements as batched arrays: Haar sampling, class angles, characters,
irreps, and multiplicities.

An element is a 2x2 complex array and a batch is an array of shape
(..., 2, 2).  Its class angle theta in [0, 2*pi] is the conjugation
invariant with Tr = 2*cos(theta/2).  The projective distance between u and
v, 1 - |Tr(u^dag v)/2|^2, is sin^2(theta/2) at the class angle of u^dag v.

Irreps act on the weight basis m_k = (j-1)/2 - k of dimension j, and
irrep_matrix_batch builds them from Euler angles, u = e^{i alpha sigma_z/2}
e^{i beta sigma_y/2} e^{i gamma sigma_z/2}: J_z is diagonal there, and
e^{i beta J_y} is a real combination of the J_y eigenprojectors, which are
computed once per j on first use and cached.  A batch of N elements costs
one (N x 2j) @ (2j x j^2) product, made over blocks of about 2^19 matrix
entries, and its memory is the N j^2 complex result plus one block.
"""

import math
from functools import lru_cache

import numpy as np

from ._checks import as_index

# matrix entries of d(beta) computed at a time in irrep_matrix_batch
_BLOCK_ENTRIES = 1 << 19


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
    if as_index(j, "j") < 1:
        raise ValueError("irrep dimension must be >= 1")
    theta = np.asarray(theta, dtype=float)
    m = np.arange(1, j + 1) - 0.5 * (j + 1)
    out = np.cos(np.multiply.outer(theta, m)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _weights(j):
    """Weights m_k = (j-1)/2 - k of the spin-(j-1)/2 irrep, k = 0..j-1."""
    return 0.5 * (j - 1) - np.arange(j)


@lru_cache(maxsize=None)
def _jy_eigensystem(j):
    """Eigenvalues of J_y and its rank-one projectors, stacked for a real product.

    Returns (lam, w): lam has shape (j,), and w has shape (2j, j*j), the real
    and negated imaginary parts of the projectors P_p = v_p v_p^dag, each
    flattened to a row.  e^{i beta J_y} = sum_p e^{i beta lam_p} P_p is real
    in the weight basis, so it equals [cos(beta lam), sin(beta lam)] @ w.
    """
    m = _weights(j)
    # <m_k | J+ | m_{k+1}> on the superdiagonal
    jp = np.diag(np.sqrt(m[0] * (m[0] + 1) - m[1:] * (m[1:] + 1)), 1)
    lam, v = np.linalg.eigh(-0.5j * (jp - jp.T))
    proj = (v.T[:, :, None] * v.T.conj()[:, None, :]).reshape(j, j * j)
    w = np.concatenate([proj.real, -proj.imag])
    lam.setflags(write=False)
    w.setflags(write=False)
    return lam, w


def irrep_matrix_batch(j, matrices):
    """Spin-(j-1)/2 irrep matrices for a batch of SU(2) matrices, shape (n, 2, 2).

    Each u = [[a, b], [-conj(b), conj(a)]] is split into Euler angles,
    u = e^{i alpha sigma_z/2} e^{i beta sigma_y/2} e^{i gamma sigma_z/2}, with
    beta = 2 atan2(|b|, |a|), (alpha+gamma)/2 = arg a, (alpha-gamma)/2 = arg b.
    In the weight basis, m_k = (j-1)/2 - k, the irrep is then
    D_kl = e^{i m_k alpha} d_kl(beta) e^{i m_l gamma} with d(beta) = e^{i beta J_y}.
    d(beta) is a real (rows x 2j) @ (2j x j^2) product with the J_y
    projectors, computed once per j and cached, made for blocks of rows of
    about _BLOCK_ENTRIES entries; each block's two phases are applied as it
    is written into the result.  No per-element decomposition is made, and
    the work memory beside the complex result is one block, whatever n.
    """
    if as_index(j, "j") < 1:
        raise ValueError("irrep dimension must be >= 1")
    matrices = np.asarray(matrices, dtype=complex)
    n = matrices.shape[0]
    if j == 1:
        return np.ones((n, 1, 1), dtype=complex)
    if j == 2:
        return matrices.copy()
    a, b = matrices[:, 0, 0], matrices[:, 0, 1]
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    arg_a, arg_b = np.angle(a), np.angle(b)
    lam, w = _jy_eigensystem(j)
    m = _weights(j)
    left = np.exp(1j * np.multiply.outer(arg_a + arg_b, m))
    right = np.exp(1j * np.multiply.outer(arg_a - arg_b, m))
    out = np.empty((n, j, j), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // (j * j))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        bl = np.multiply.outer(beta[rows], lam)
        d = (np.concatenate([np.cos(bl), np.sin(bl)], axis=1) @ w).reshape(-1, j, j)
        np.multiply(d, left[rows, :, None], out=out[rows])
        out[rows] *= right[rows, None, :]
    return out


def _block_dims(n):
    """Irrep dimensions 1 + n % 2, 3 + n % 2, ..., n + 1 of the n-qubit tensor power."""
    return tuple(range(1 + n % 2, n + 2, 2))


def multiplicity_spectrum(n):
    """The n-qubit tensor power as ((dim, multiplicity), ...) over _block_dims(n).

    The block of dimension dim = n+1-2i has multiplicity C(n, i) - C(n, i-1),
    in exact integer arithmetic; the dimension identity sum(dim * mult) = 2**n
    holds by construction.
    """
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    spectrum = tuple(
        (dim, math.comb(n, i) - (math.comb(n, i - 1) if i else 0))
        for dim in _block_dims(n)
        for i in [(n + 1 - dim) // 2]
    )
    assert sum(dim * mult for dim, mult in spectrum) == 2**n
    return spectrum
