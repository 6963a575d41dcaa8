"""Class-function integrals over SU(2) and U(1), as kernel matrices.

Every integrand here is a trigonometric polynomial in the half angle
psi = theta/2, characters of even dimension included, so one rule serves
them all: nodes equispaced in psi over [0, 2*pi), that is theta over
[0, 4*pi) with the weight halved.  It is exact to roundoff once the node
count exceeds the degree in psi, and the count is derived from the largest
dimension or level asked for.  Each function builds its character or
exponential table once and returns the whole kernel as one weighted matrix
product.
"""

import numpy as np

from .su2 import character

_IMAG_TOL = 1e-14


def _half_angle_rule(top):
    """Angles theta = 2 psi, psi = 2 pi i / N, and sin^2(theta/2) at them.

    N = 2 top + 16 exceeds the psi-degree 2 top + 2 of every integrand with
    dimensions or levels up to top.
    """
    nodes = 2 * top + 16
    theta = 4.0 * np.pi * np.arange(nodes) / nodes
    return theta, np.sin(theta / 2.0) ** 2


def su2_kernel_matrix(dims):
    """K[a, b] = integral of sin^2(theta/2) chi^{dims[a]} chi^{dims[b]} d mu.

    mu is the class measure sin^2(theta/2)/pi d theta on [0, 2*pi).  For
    dims 2k, 2l this is (1/2) delta_{k,l} - (1/4) delta_{k,l+-1}; the diagonal
    is 3/4 at dimension 1 and 1/2 above; entries of mixed parity vanish.
    """
    dims = tuple(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    theta, s = _half_angle_rule(max(dims))
    chi = np.array([character(d, theta) for d in dims])
    return (chi * (2.0 * s * s / theta.size)) @ chi.T


def phase_kernel_matrix(levels):
    """K[a, b] = (1/2 pi) integral of sin^2(theta/2) e^{i(levels[a]-levels[b]) theta}.

    The integral runs over [0, 2*pi), so the constant function integrates to
    one.  K[a, b] is 1/2 where the levels agree, -1/4 where they differ by
    one, and 0 elsewhere.  Returns the real part; ArithmeticError if the
    imaginary part is not negligible.
    """
    levels = np.asarray(tuple(levels), dtype=int)
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
