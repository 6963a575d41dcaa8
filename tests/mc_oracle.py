"""Matrix-level oracles for the SU(2) designs of either parity.

Everything in the Haar oracle is built from explicit objects: the maximally
entangled block states as vectors and the irrep matrices
(`irrep_matrix_batch`) of group elements at the nodes of a product rule in
Euler angles.  The rule averages every polynomial of bounded degree in the
entries of g and conj(g) exactly over the Haar measure, so the total
probability, the mean loss and the POVM integral of a design come out exact
to roundoff, with no sampling and no closed-form error expression.  The
blocks are those of an `Su2Design`: dimensions 2, 4, ... for odd n and
1, 3, 5, ... for even n.

`brute_force_su2_error` is the error functional itself, assembled from the
dense seed matrix and the class-angle kernel matrix, and `class_angles` reads
the class angle of SU(2) matrices from their trace.
"""

import numpy as np

from covest import irrep_matrix_batch, su2_kernel_matrix

_BRUTE_FORCE_MAX_BLOCKS = 11


def class_angles(matrices):
    """Vectorized class angles for an array of SU(2) matrices, shape (..., 2, 2)."""
    matrices = np.asarray(matrices)
    c = np.clip((matrices[..., 0, 0] + matrices[..., 1, 1]).real / 2.0, -1.0, 1.0)
    return 2.0 * np.arccos(c)


def haar_rule(degree):
    """Nodes g (shape (N, 2, 2)) and weights (N,) of an exact Haar rule.

    g = e^{i alpha sigma_z/2} e^{i beta sigma_y/2} e^{i gamma sigma_z/2},
    with alpha and gamma over [0, 4 pi), a double cover of SU(2) on which
    the Haar measure is proportional to d alpha d(cos beta) d gamma.  A
    monomial of degree <= `degree` = K in the entries of g and conj(g) has
    alpha and gamma frequencies m/2 with |m| <= K, which K + 1 equispaced
    nodes average exactly; what survives is a polynomial of degree <= K/2
    in cos beta, which K//2 + 2 Gauss-Legendre nodes integrate exactly.
    """
    m = degree + 1
    turns = 4.0 * np.pi * np.arange(m) / m
    cos_beta, beta_weights = np.polynomial.legendre.leggauss(degree // 2 + 2)
    alpha, cb, gamma = np.meshgrid(turns, cos_beta, turns, indexing="ij")
    _, wb, _ = np.meshgrid(turns, beta_weights, turns, indexing="ij")
    c, s = np.sqrt((1.0 + cb) / 2.0), np.sqrt((1.0 - cb) / 2.0)
    g = np.empty(alpha.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = np.exp(0.5j * (alpha + gamma)) * c
    g[..., 0, 1] = np.exp(0.5j * (alpha - gamma)) * s
    g[..., 1, 0] = -np.exp(-0.5j * (alpha - gamma)) * s
    g[..., 1, 1] = np.exp(-0.5j * (alpha + gamma)) * c
    # the Gauss-Legendre weights sum to 2 over cos beta in [-1, 1]
    return g.reshape(-1, 2, 2), wb.reshape(-1) / (2.0 * m * m)


def entangled_block_states(dims):
    """Maximally entangled vectors vec(I_j)/sqrt(j) for each block."""
    return [np.eye(j, dtype=complex).reshape(-1) / np.sqrt(j) for j in dims]


def povm_amplitudes(design, g):
    """<eta| U_g |x_in> for a batch of elements g, via explicit matrices.

    |x_in> carries amplitude x_k on the maximally entangled state of block k;
    <eta| carries the weight j_k on the same state (the rank-one optimal seed
    for nonnegative amplitudes).
    """
    dims = design.block_dims
    amps = np.zeros(g.shape[0], dtype=complex)
    for xk, j, e in zip(design.input.amplitudes, dims, entangled_block_states(dims)):
        v = irrep_matrix_batch(j, g)
        em = e.reshape(j, j)
        proj = em @ em.conj().T
        # <x_E| (V x I) |x_E> as an explicit contraction
        amps += xk * j * np.einsum("bij,ji->b", v, proj)
    return amps


def haar_mean_loss(design):
    """(total probability, mean loss) of the design's outcome law, exact.

    The outcome density relative to the true element is |<eta| U_g |x_in>|^2,
    of degree 2(D - 1) with D the top block dimension, and the loss
    sin^2(theta_g/2) = 1 - |Tr g|^2/4 has degree 2, so the rule of degree
    2D integrates both exactly.
    """
    g, weights = haar_rule(2 * max(design.block_dims))
    density = np.abs(povm_amplitudes(design, g)) ** 2
    loss = np.sin(class_angles(g) / 2.0) ** 2
    return float(weights @ density), float(weights @ (density * loss))


def povm_identity_deviation(design):
    """Max deviation of the Haar integral of U_g |eta><eta| U_g^dag from the identity.

    The integral runs over the full space of the blocks (sum of j x j over
    the block dimensions j); its entries have degree <= 2(D - 1).
    """
    dims = design.block_dims
    g, weights = haar_rule(2 * max(dims))
    # U_g eta: block j is (V^j x I) applied to j * vec(I_j)/sqrt(j),
    # which vectorizes to sqrt(j) * V^j
    u_eta = np.concatenate(
        [(np.sqrt(j) * irrep_matrix_batch(j, g)).reshape(g.shape[0], j * j) for j in dims],
        axis=1,
    )
    acc = (weights[:, None] * u_eta).T @ u_eta.conj()
    return float(np.max(np.abs(acc - np.eye(acc.shape[0]))))


def brute_force_su2_error(x, seed, n):
    """Quadrature oracle for su2_error(x, seed, n), either parity.

    Assembles sum_{k,l} conj(x_k) x_l t_{l,k} K_{k,l} from the dense
    T = F F^H, where K is su2_kernel_matrix over the block dimensions of n
    uses, the class integrals of sin^2(theta/2) chi^{dim_k} chi^{dim_l}
    evaluated by quadrature instead of any closed-form pattern.
    """
    a = x.amplitudes
    d = a.size
    if d > _BRUTE_FORCE_MAX_BLOCKS:
        raise ValueError(f"oracle limited to d <= {_BRUTE_FORCE_MAX_BLOCKS}")
    dims = range(1 + n % 2, n + 2, 2)
    f = seed.factor
    if f.shape[0] != d or len(dims) != d:
        raise ValueError("amplitudes, seed and n differ in dimension")
    tm = f @ f.conj().T
    kernel = su2_kernel_matrix(dims)
    total = np.sum(np.outer(np.conj(a), a) * tm.T * kernel)
    if abs(total.imag) > 1e-10:
        raise ArithmeticError("oracle error has a non-negligible imaginary part")
    return float(total.real)
