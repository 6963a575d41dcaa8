"""SU(2) elements as batched arrays: Haar sampling, characters and irreps.

An element is a 2x2 complex array and a batch is an array of shape
(..., 2, 2).  Its class angle theta in [0, 2*pi] is the conjugation
invariant with Tr = 2*cos(theta/2).  The projective distance between u and
v, 1 - |Tr(u^dag v)/2|^2, is sin^2(theta/2) at the class angle of u^dag v.

Irreps act on the weight basis m_k = (j-1)/2 - k of dimension j, and
irrep_matrix_batch builds them from Euler angles, u = e^{i alpha sigma_z/2}
e^{i beta sigma_y/2} e^{i gamma sigma_z/2}: J_z is diagonal there, and
e^{i beta J_y} is a real combination of the J_y eigenprojectors, which are
computed once per j on first use and cached.  The spectrum is symmetric,
so each +-pair of projectors shares one cosine and one sine, and a batch
of N elements costs one real (N x j) @ (j x j^2) product.  It is made over
row blocks of about 2^14 matrix entries, in one loop on the calling
thread, each block multiplied by its J_z phases in cache and stored into
the result once.  Memory is the N j^2 complex result, the O(N j) phases,
and one block.
"""

from functools import lru_cache

import numpy as np

from ._checks import as_index

# matrix entries per row block of irrep_matrix_batch: a block's d(beta), phases
# and result rows (0.6 MB) stay in one core's cache
_BLOCK_ENTRIES = 1 << 14
# largest deviation from SU(2) form that irrep_matrix_batch accepts
_SU2_TOL = 1e-12


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
    """Half the J_y spectrum and its projectors, paired for a real product.

    J_y has the simple spectrum lam_p = -lam_{j-1-p}, p = 0..j-1 ascending,
    with rank-one projectors P_p = v_p v_p^dag.  e^{i beta J_y} =
    sum_p e^{i beta lam_p} P_p is real in the weight basis, so each +-pair
    shares one cosine and one sine:
        d(beta) = sum_{p < ceil(j/2)} cos(beta lam_p) Re(P_p + P_{j-1-p})
                + sum_{p < floor(j/2)} sin(beta lam_p) Im(P_{j-1-p} - P_p),
    where for odd j the middle projector, of eigenvalue 0, enters once with
    cosine 1.  Returns (lam, w): lam holds the ceil(j/2) lowest eigenvalues,
    and w has shape (j, j*j), the ceil(j/2) cosine rows and then the
    floor(j/2) sine rows, each a flattened matrix, so
    d(beta) = [cos(beta lam), sin(beta lam[:j//2])] @ w.
    """
    m = _weights(j)
    # <m_k | J+ | m_{k+1}> on the superdiagonal
    jp = np.diag(np.sqrt(m[0] * (m[0] + 1) - m[1:] * (m[1:] + 1)), 1)
    lam, v = np.linalg.eigh(-0.5j * (jp - jp.T))
    proj = (v.T[:, :, None] * v.T.conj()[:, None, :]).reshape(j, j * j)
    half, pairs = (j + 1) // 2, j // 2
    mirror = proj[::-1][:pairs]  # P_{j-1-p}, of eigenvalue -lam_p
    cos_rows = proj[:half].real.copy()
    cos_rows[:pairs] += mirror.real
    w = np.concatenate([cos_rows, mirror.imag - proj[:pairs].imag])
    lam = lam[:half].copy()
    lam.setflags(write=False)
    w.setflags(write=False)
    return lam, w


def _phases(angle, j):
    """e^{i m_k angle} for k = 0..j-1, shape (N, j), as a running product.

    Column 0 is e^{i (j-1) angle / 2}, and each next column is the one
    before times e^{-i angle}: two complex exponentials per element of
    `angle`, and one cumulative product.
    """
    z = np.empty((angle.size, j), dtype=complex)
    z[:, 0] = np.exp(0.5j * (j - 1) * angle)
    z[:, 1:] = np.exp(-1j * angle)[:, None]
    return np.cumprod(z, axis=1, out=z)


def irrep_matrix_batch(j, matrices):
    """Spin-(j-1)/2 irrep matrices for a batch of SU(2) matrices, shape (n, 2, 2).

    Each u = [[a, b], [-conj(b), conj(a)]] is split into Euler angles,
    u = e^{i alpha sigma_z/2} e^{i beta sigma_y/2} e^{i gamma sigma_z/2}, with
    beta = 2 atan2(|b|, |a|), (alpha+gamma)/2 = arg a, (alpha-gamma)/2 = arg b.
    In the weight basis, m_k = (j-1)/2 - k, the irrep is then
    D_kl = e^{i m_k alpha} d_kl(beta) e^{i m_l gamma} with d(beta) = e^{i beta J_y}.
    The J_z phases e^{i m_k alpha} are a running product of e^{-i alpha}, and
    d(beta) is one real (rows x j) @ (j x j^2) product with the paired J_y
    projectors of _jy_eigensystem, cached per j.  Rows go in blocks of about
    _BLOCK_ENTRIES entries, one after another on the calling thread: each
    block's d(beta) and phase outer product are formed in buffers of one
    block, sized to stay in cache, and multiplied into the result, so every
    entry of it is stored once.  No per-element decomposition is made, and
    the work memory beside the complex result is the O(n j) phases plus one
    block.

    Raises ValueError unless every element has a unit first row (a, b) and
    the second row (-conj(b), conj(a)), each within _SU2_TOL; NaN fails.
    """
    if as_index(j, "j") < 1:
        raise ValueError("irrep dimension must be >= 1")
    matrices = np.asarray(matrices, dtype=complex)
    if matrices.ndim != 3 or matrices.shape[1:] != (2, 2):
        raise ValueError("matrices must have shape (n, 2, 2)")
    n = matrices.shape[0]
    a, b = matrices[:, 0, 0], matrices[:, 0, 1]
    # each deviation is freed once tested, before the result is allocated
    in_su2 = (np.all(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0) <= _SU2_TOL)
              and np.all(np.abs(matrices[:, 1, 0] + b.conj()) <= _SU2_TOL)
              and np.all(np.abs(matrices[:, 1, 1] - a.conj()) <= _SU2_TOL))
    if not in_su2:
        raise ValueError("matrices must be SU(2) elements [[a, b], [-conj(b), conj(a)]] "
                         "with |a|^2 + |b|^2 = 1")
    if j == 1:
        return np.ones((n, 1, 1), dtype=complex)
    if j == 2:
        return matrices.copy()
    beta = 2.0 * np.arctan2(np.abs(b), np.abs(a))
    arg_a, arg_b = np.angle(a), np.angle(b)
    lam, w = _jy_eigensystem(j)
    bl = np.multiply.outer(beta, lam)
    coef = np.concatenate([np.cos(bl), np.sin(bl[:, :j // 2])], axis=1)
    left, right = _phases(arg_a + arg_b, j), _phases(arg_a - arg_b, j)
    out = np.empty((n, j, j), dtype=complex)
    rows = max(1, min(n, _BLOCK_ENTRIES // (j * j)))
    d = np.empty((rows, j * j))
    phase = np.empty((rows, j, j), dtype=complex)
    for start in range(0, n, rows):
        r = min(rows, n - start)
        block = slice(start, start + r)
        np.matmul(coef[block], w, out=d[:r])
        np.multiply(left[block, :, None], right[block, None, :], out=phase[:r])
        np.multiply(d[:r].reshape(r, j, j), phase[:r], out=out[block])
    return out
