"""Class-function integrals over SU(2) and U(1), as kernel matrices.

Every integrand here is a trigonometric polynomial in the half angle
psi = theta/2, characters of even dimension included, so one rule serves
them all: nodes equispaced in psi over [0, 2*pi), that is theta over
[0, 4*pi) with the weight halved.  It is exact to roundoff once the node
count exceeds the degree in psi, and the count is derived from the largest
dimension or level asked for.  Each function builds its character or
exponential table once and returns the whole kernel as one weighted matrix
product.  The characters of one parity are window sums of a single table
of cos(theta m) over the weights m of the largest dimension D of that
parity: O(D N) cosines at N nodes, where one character at a time would take
O(D^2 N).
"""

import numpy as np

from ._checks import as_index

_IMAG_TOL = 1e-14


def _half_angle_rule(top):
    """Angles theta = 2 psi, psi = 2 pi i / N, and sin^2(theta/2) at them.

    N = 2 top + 16 exceeds the psi-degree 2 top + 2 of every integrand with
    dimensions or levels up to top.
    """
    nodes = 2 * top + 16
    theta = 4.0 * np.pi * np.arange(nodes) / nodes
    return theta, np.sin(theta / 2.0) ** 2


def _character_table(dims, theta):
    """chi[a] = character(dims[a], theta), bit for bit, from one cosine table per parity.

    character(d, theta) sums cos(theta m) over the weights m = -(d-1)/2 ..
    (d-1)/2.  These are the d central weights of D, the largest dimension of
    d's parity, so they are the contiguous columns (D-d)/2 .. (D+d)/2 - 1 of
    D's table, and each row is the same sum of the same values in the same
    order.
    """
    tops = {d % 2: d for d in sorted(dims)}
    tables = {parity: np.cos(np.multiply.outer(theta, np.arange(1, top + 1) - 0.5 * (top + 1)))
              for parity, top in tops.items()}
    chi = np.empty((len(dims), theta.size))
    for a, d in enumerate(dims):
        start = (tops[d % 2] - d) // 2
        chi[a] = tables[d % 2][:, start : start + d].sum(axis=-1)
    return chi


def su2_kernel_matrix(dims):
    """K[a, b] = integral of sin^2(theta/2) chi^{dims[a]} chi^{dims[b]} d mu.

    mu is the class measure sin^2(theta/2)/pi d theta on [0, 2*pi).  For
    dims 2k, 2l this is (1/2) delta_{k,l} - (1/4) delta_{k,l+-1}; the diagonal
    is 3/4 at dimension 1 and 1/2 above; entries of mixed parity vanish.
    """
    dims = tuple(as_index(d, "j") for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if min(dims) < 1:
        raise ValueError("irrep dimension must be >= 1")
    theta, s = _half_angle_rule(max(dims))
    chi = _character_table(dims, theta)
    return (chi * (2.0 * s * s / theta.size)) @ chi.T


def phase_kernel_matrix(levels):
    """K[a, b] = (1/2 pi) integral of sin^2(theta/2) e^{i(levels[a]-levels[b]) theta}.

    The integral runs over [0, 2*pi), so the constant function integrates to
    one.  K[a, b] is 1/2 where the levels agree, -1/4 where they differ by
    one, and 0 elsewhere.  Returns the real part; ArithmeticError if the
    imaginary part is not negligible.
    """
    levels = np.array([as_index(level, "level") for level in levels], dtype=int)
    if levels.size == 0:
        raise ValueError("levels must be nonempty")
    if levels.min() < 0:
        raise ValueError("levels must be >= 0")
    theta, s = _half_angle_rule(int(levels.max()))
    e = np.exp(1j * np.multiply.outer(levels, theta))
    k = (e * (s / theta.size)) @ e.conj().T
    if np.abs(k.imag).max() > _IMAG_TOL:
        raise ArithmeticError("phase kernel has a non-negligible imaginary part")
    return k.real
