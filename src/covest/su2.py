"""SU(2) elements as batched arrays: Haar sampling, characters and irreps.

An element is a 2x2 complex array and a batch is an array of shape
(..., 2, 2).  Its class angle theta in [0, 2*pi] is the conjugation
invariant with Tr = 2*cos(theta/2).  The projective distance between u and
v, 1 - |Tr(u^dag v)/2|^2, is sin^2(theta/2) at the class angle of u^dag v.

Irreps act on the weight basis m_k = (j-1)/2 - k of dimension j, and
irrep_matrix_batch builds them in Euler form, u = e^{i alpha sigma_z/2}
e^{i beta sigma_y/2} e^{i gamma sigma_z/2}, without forming an angle: with
z = |a| + i|b| = e^{i beta/2} and the units a/|a|, b/|b| of u's first row
(a, b), every J_z phase and every J_y coefficient is an integer power of
them (the units by phase._unit), built as a running product.
e^{i beta J_y} is a real combination of the J_y eigenprojectors, computed
afresh for each batch.  The spectrum is symmetric, so each +-pair of
projectors shares one cosine and one sine, and a batch of N elements costs
one real (N x j) @ (j x j^2) product.  It is made over row blocks of about
2^14 matrix entries, in one loop on the calling thread, each block
multiplied by its J_z phases while it is in cache.  Memory is the N j^2
complex result, the O(N j) coefficient and phase tables, and one block.
Characters are the same kind of running product, over the class angle.
"""

import numpy as np

from ._checks import as_index
from .phase import _unit

# matrix entries per row block of irrep_matrix_batch: a block's d(beta) and
# result rows (0.4 MB) stay in one core's cache
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
    theta in {0, 2*pi}.  Its terms pair up, from the middle outwards, as
    2 cos(m theta) for m = 1/2, 3/2, ... (even j) or 1, 2, ... after the
    middle term 1 (odd j), and are summed as the real parts of a running
    product of e^{i theta} that starts at e^{i theta/2} or e^{i theta}.
    That is at most four sines and cosines per angle, O(N) memory for N
    angles, and none at j = 1.  Accepts scalars or arrays.
    """
    if as_index(j, "j") < 1:
        raise ValueError("irrep dimension must be >= 1")
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, float(j % 2))
    if j == 1:
        return float(out) if out.ndim == 0 else out
    term = _cis(theta if j % 2 else 0.5 * theta)
    pair = term.real.copy()
    if j > 3:
        # e^{i theta} itself: squaring the even start doubles the drift of the product
        step = term.copy() if j % 2 else _cis(theta)
        for _ in range(j // 2 - 1):
            term *= step
            pair += term.real
    out += 2.0 * pair
    return float(out) if out.ndim == 0 else out


def _cis(x):
    """cos(x) + i sin(x), written part by part."""
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _jy_eigensystem(j):
    """The J_y eigenprojectors, paired for a real product, shape (j, j*j).

    J_y has the simple spectrum of the weights, lam_p = p - (j-1)/2 for
    p = 0..j-1 ascending, so lam_p = -lam_{j-1-p}, with rank-one projectors
    P_p = v_p v_p^dag.  e^{i beta J_y} = sum_p e^{i beta lam_p} P_p is real
    in the weight basis, so each +-pair shares one cosine and one sine:
        d(beta) = sum_{p < ceil(j/2)} cos(beta lam_p) Re(P_p + P_{j-1-p})
                + sum_{p < floor(j/2)} sin(beta lam_p) Im(P_{j-1-p} - P_p),
    where for odd j the middle projector, of eigenvalue 0, enters once with
    cosine 1.  The rows are the ceil(j/2) cosine rows and then the floor(j/2)
    sine rows, each a flattened matrix, so that
    d(beta) = [cos(beta lam), sin(beta lam[:j//2])] @ w over the ceil(j/2)
    lowest eigenvalues (_jy_coefficients).  Only the eigenvectors are read:
    the spectrum is known exactly.
    """
    m = 0.5 * (j - 1) - np.arange(j)  # the weights m_k
    # <m_k | J+ | m_{k+1}> on the superdiagonal
    jp = np.diag(np.sqrt(m[0] * (m[0] + 1) - m[1:] * (m[1:] + 1)), 1)
    v = np.linalg.eigh(-0.5j * (jp - jp.T))[1]
    proj = (v.T[:, :, None] * v.T.conj()[:, None, :]).reshape(j, j * j)
    half, pairs = (j + 1) // 2, j // 2
    mirror = proj[::-1][:pairs]  # P_{j-1-p}, of eigenvalue -lam_p
    cos_rows = proj[:half].real.copy()
    cos_rows[:pairs] += mirror.real
    return np.concatenate([cos_rows, mirror.imag - proj[:pairs].imag])


def _jy_coefficients(z, j):
    """The J_y coefficients [cos(beta lam), sin(beta lam[:j//2])] as rows, shape (j, N).

    With z = e^{i beta/2}, e^{i beta lam_p} = conj(z)^{j-1-2p}: a running
    product of conj(z)^2 from the middle row p = ceil(j/2) - 1, which is 1
    for odd j and conj(z) for even j, down to p = 0.  The real parts fill
    the cosine rows and the imaginary parts the sine rows, one row at a time.
    """
    half, pairs = (j + 1) // 2, j // 2
    coef = np.empty((j, z.size))
    term = np.ones(z.size, dtype=complex) if j % 2 else z.conj()
    step = np.conj(z * z)
    for p in range(half - 1, -1, -1):
        coef[p] = term.real
        if p < pairs:
            coef[half + p] = term.imag
        if p:
            term *= step
    return coef


def _phases(u, v, j):
    """The J_z phases (left, right) of _unit(a), _unit(b), each shape (j, N).

    With u = e^{i(alpha+gamma)/2} and v = e^{i(alpha-gamma)/2},
    e^{i m_k alpha} e^{i m_l gamma} = u^{j-1-k-l} v^{l-k} has only integer
    powers, and splits as left_k right_l with left_k = u^{j-1} conj(uv)^k
    and right_l = (conj(u) v)^l.  Both are running products, one row at a
    time; u^{j-1} is one more, kept in left's first row.
    """
    left = np.empty((j, u.size), dtype=complex)
    right = np.empty_like(left)
    left[0] = right[0] = 1.0
    step = u.conj() * v
    for k in range(1, j):
        np.multiply(right[k - 1], step, out=right[k])
        left[0] *= u
    step = np.conj(u * v)
    for k in range(1, j):
        np.multiply(left[k - 1], step, out=left[k])
    return left, right


def irrep_matrix_batch(j, matrices):
    """Spin-(j-1)/2 irrep matrices for a batch of SU(2) matrices, shape (n, 2, 2).

    Each u = [[a, b], [-conj(b), conj(a)]] is, in Euler angles,
    u = e^{i alpha sigma_z/2} e^{i beta sigma_y/2} e^{i gamma sigma_z/2}, with
    a = cos(beta/2) e^{i(alpha+gamma)/2} and b = sin(beta/2) e^{i(alpha-gamma)/2}.
    In the weight basis, m_k = (j-1)/2 - k, the irrep is then
    D_kl = e^{i m_k alpha} d_kl(beta) e^{i m_l gamma} with d(beta) = e^{i beta J_y}.
    No angle is formed: every factor is an integer power of z = |a| + i|b| =
    e^{i beta/2}, divided by its modulus, and of the units a/|a| and b/|b|
    (_unit), built as running products in (j, n) tables (_jy_coefficients,
    _phases), so |a|, |b| and |z| are the only per-element calls beyond
    arithmetic.  d(beta) is one real (rows x j) @ (j x j^2) product with the
    paired J_y projectors of _jy_eigensystem, built for this call, made in
    row blocks of about _BLOCK_ENTRIES entries, one after another on the
    calling thread.  Each block is multiplied by its left phases into the result and
    by its right phases in place while it is in cache, so the work memory
    beside the complex result is the O(n j) tables plus one block.

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
    abs_a, abs_b = np.abs(a), np.abs(b)
    # |z| is 1 only within _SU2_TOL, and z^(j-1) would scale that by j
    z = abs_a + 1j * abs_b
    z /= np.abs(z)
    w = _jy_eigensystem(j)
    coef = _jy_coefficients(z, j)
    left, right = _phases(_unit(a, abs_a), _unit(b, abs_b), j)
    out = np.empty((n, j, j), dtype=complex)
    rows = max(1, min(n, _BLOCK_ENTRIES // (j * j)))
    d = np.empty((rows, j * j))
    for start in range(0, n, rows):
        r = min(rows, n - start)
        block = slice(start, start + r)
        np.matmul(coef[:, block].T, w, out=d[:r])
        np.multiply(d[:r].reshape(r, j, j), left[:, block].T[:, :, None], out=out[block])
        out[block] *= right[:, block].T[:, None, :]
    return out
