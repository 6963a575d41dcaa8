"""Class-function integrals over SU(2) and U(1), as kernel matrices.

Every integrand here is a trigonometric polynomial in the half angle
psi = theta/2, so one rule serves them all: nodes equispaced in psi over
[0, 2*pi), that is theta over [0, 4*pi) with the weight halved, exact to
roundoff once the node count, derived from the largest dimension or level,
exceeds the degree in psi.  Each kernel is one weighted product of a real
table with itself: Weyl's sine form sin(theta/2) chi^d = sin(d theta/2) of
the characters for SU(2), cos(l theta) and sin(l theta) for U(1).
"""

import numpy as np

from ._checks import as_index


def _half_angle_rule(top):
    """Angles theta = 2 psi, psi = 2 pi i / N, and sin^2(theta/2) at them.

    N = 2 top + 16 exceeds the psi-degree 2 top + 2 of every integrand with
    dimensions or levels up to top.
    """
    nodes = 2 * top + 16
    theta = 4.0 * np.pi * np.arange(nodes) / nodes
    return theta, np.sin(theta / 2.0) ** 2


def _sine_rows(dims, theta):
    """rows[a] = sin(dims[a] theta/2) = sin(theta/2) chi^{dims[a]}(theta)."""
    return np.sin(np.multiply.outer(dims, theta / 2.0))


def _phase_rows(levels, theta):
    """rows[a] = [cos(levels[a] theta) | sin(levels[a] theta)]."""
    angles = np.multiply.outer(levels, theta)
    return np.hstack([np.cos(angles), np.sin(angles)])


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
    rows = _sine_rows(dims, theta)
    return (rows * (2.0 * s / theta.size)) @ rows.T


def phase_kernel_matrix(levels):
    """K[a, b] = (1/2 pi) integral of sin^2(theta/2) e^{i(levels[a]-levels[b]) theta}.

    The integral runs over [0, 2*pi), so the constant function integrates to
    one.  K[a, b] is 1/2 where the levels agree, -1/4 where they differ by
    one, and 0 elsewhere; the imaginary part is odd in theta and vanishes.
    """
    levels = np.array([as_index(level, "level") for level in levels], dtype=int)
    if levels.size == 0:
        raise ValueError("levels must be nonempty")
    if levels.min() < 0:
        raise ValueError("levels must be >= 0")
    theta, s = _half_angle_rule(int(levels.max()))
    rows = _phase_rows(levels, theta)
    return (rows * np.tile(s / theta.size, 2)) @ rows.T
