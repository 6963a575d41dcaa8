"""Matrix-level Monte Carlo oracle for the SU(2) designs of either parity.

Everything here is built from explicit objects: the maximally entangled
block states as vectors, the irrep matrices of the sampled group elements,
and rejection sampling of the measurement outcome against the Haar
distribution.  No closed-form error expression is used on this path.  The
blocks are those of a design's `Su2BlockAmplitudes`: dimensions 2, 4, ...
for odd n and 1, 3, 5, ... for even n.
"""

import numpy as np

from covest import class_angles, haar_matrices, irrep_matrix_batch


def entangled_block_states(dims):
    """Maximally entangled vectors vec(I_j)/sqrt(j) for each block."""
    return [np.eye(j, dtype=complex).reshape(-1) / np.sqrt(j) for j in dims]


def povm_amplitudes(blocks, relative):
    """<eta| U_h |x_in> for a batch of relative elements h, via explicit matrices.

    |x_in> carries amplitude x_k on the maximally entangled state of block k;
    <eta| carries the weight j_k on the same state (the rank-one optimal seed
    for nonnegative amplitudes).
    """
    dims = blocks.block_dims
    amps = np.zeros(relative.shape[0], dtype=complex)
    for xk, j, e in zip(blocks.amplitudes, dims, entangled_block_states(dims)):
        v = irrep_matrix_batch(j, relative)
        em = e.reshape(j, j)
        proj = em @ em.conj().T
        # <x_E| (V x I) |x_E> as an explicit contraction
        amps += xk * j * np.einsum("bij,ji->b", v, proj)
    return amps


def sample_outcomes(blocks, seed, n_samples, chunk=200_000):
    """Rejection-sample POVM outcomes for a Haar-random true element.

    Returns (losses, true_matrix, n_proposals): losses are the distances
    d(g, ghat) of the accepted outcomes.
    """
    rng = np.random.default_rng(seed)
    g_true = haar_matrices(rng, 1)[0]
    bound = float(np.sum(blocks.amplitudes * np.array(blocks.block_dims))) ** 2
    losses = []
    n_proposals = 0
    collected = 0
    while collected < n_samples:
        ghat = haar_matrices(rng, chunk)
        n_proposals += chunk
        relative = ghat.conj().swapaxes(-1, -2) @ g_true  # ghat^{-1} g
        density = np.abs(povm_amplitudes(blocks, relative)) ** 2
        keep = rng.random(chunk) * bound < density
        angles = class_angles(relative[keep])
        losses.append(np.sin(angles / 2.0) ** 2)
        collected += int(keep.sum())
    losses = np.concatenate(losses)[:n_samples]
    return losses, g_true, n_proposals


def povm_identity_deviation(blocks, seed, n_samples):
    """Max deviation of the Monte Carlo POVM integral from the identity.

    Averages U_ghat |eta><eta| U_ghat^dag over Haar samples on the full
    space of the blocks (sum of j x j over the block dimensions j) and
    compares with the identity matrix.
    """
    dims = blocks.block_dims
    rng = np.random.default_rng(seed)
    eta = np.concatenate([j * e for j, e in zip(dims, entangled_block_states(dims))])
    dim = eta.size
    acc = np.zeros((dim, dim), dtype=complex)
    done = 0
    chunk = 20_000
    while done < n_samples:
        m = min(chunk, n_samples - done)
        ghat = haar_matrices(rng, m)
        # U_ghat eta: block j is (V^j x I) applied to j * vec(I_j)/sqrt(j),
        # which vectorizes to sqrt(j) * V^j
        u_eta = np.concatenate(
            [
                (np.sqrt(j) * irrep_matrix_batch(j, ghat)).reshape(m, j * j)
                for j in dims
            ],
            axis=1,
        )
        acc += np.einsum("bi,bj->ij", u_eta, u_eta.conj())
        done += m
    acc /= n_samples
    return float(np.max(np.abs(acc - np.eye(dim))))
