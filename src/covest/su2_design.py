"""Estimation of an unknown SU(2) action from n uses.

An SU(2) design is a phase design over the irrep blocks of the n-fold
tensor power, dimensions 1 + n % 2, 3 + n % 2, ..., n + 1: `Su2Design`
holds one amplitude per block as a PhaseInputState, with the same seed and
error fields as PhaseDesign.  Its error is the phase functional of the
block amplitudes (odd n exactly; even n with an extra a_0^2/4 penalty from
the trivial block), and design_optimal gives one sine-profile optimum for
both parities.  Self-entangled designs replace the external reference by
the permutation multiplicity spaces, usable wherever multiplicity >= irrep
dimension (see su2.multiplicity_spectrum).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index
from .phase import PhaseInputState, Seed, optimal_seed, phase_error
from .su2 import _block_dims

EXTERNAL = "external"
SELF_ENTANGLED = "self-entangled"

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class Su2Design:
    """Block amplitudes, seed, number of uses, and closed-form error.

    `input` holds one real, nonnegative amplitude per irrep block, in the
    order of `block_dims`; its count and n are checked by su2_error.
    """

    input: PhaseInputState
    seed: Seed
    n: int
    error: float

    def __post_init__(self):
        a = self.input.amplitudes
        if np.any(a.imag != 0.0) or np.any(a.real < 0.0):
            raise ValueError("block amplitudes must be real and nonnegative")
        if not abs(self.error - su2_error(self.input, self.seed, self.n)) <= _NORM_TOL:
            raise ValueError("design error inconsistent with its blocks and seed")

    @property
    def block_dims(self):
        return _block_dims(self.n)


def su2_error(x, seed, n):
    """Mean error of the covariant design (x, T) over the blocks of n uses.

    The phase functional of the block amplitudes, plus the trivial-block
    penalty |x_0|^2/4 for even n; with the optimal seed the phase functional
    is (1/2)(1 - sum |x_k| |x_{k+1}|).  Raises ValueError for n < 1 and when
    x does not hold the n//2 + 1 amplitudes of the blocks of n uses.
    """
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if x.dim != n // 2 + 1:
        raise ValueError(f"expected {n // 2 + 1} block amplitudes for n={n}, got {x.dim}")
    err = phase_error(x, seed)
    if n % 2 == 0:
        err += 0.25 * abs(x.amplitudes[0]) ** 2
    return err


def design_optimal(n, reference_mode=EXTERNAL):
    """Optimal design for n uses.

    With D the largest block dimension in use, the block of dimension
    dim <= D gets amplitude ∝ sin(pi dim/(D+2)) and the error is
    sin^2(pi/(D+2)), for either parity.  Even n uses b = (D+1)/2 blocks, and
    2b < D+2 < 2b+2, so its error lies strictly between the phase optima for
    b-1 and b-2 uses, sin^2(pi/(2b+2)) and sin^2(pi/(2b)).

    An external reference uses every block, D = n+1.  A self-entangled one
    uses the blocks whose permutation multiplicity can host the reference
    copy, which for n >= 2 are all but the top one, D = n-1: the top block
    has multiplicity 1, and the block of dimension n+1-2k, k >= 1, has
    multiplicity C(n,k)(n-2k+1)/(n-k+1) >= n+1-2k.  n = 1 has none.
    """
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if reference_mode not in (EXTERNAL, SELF_ENTANGLED):
        raise ValueError(f"unknown reference mode {reference_mode!r}")
    if reference_mode == EXTERNAL:
        top = n + 1
    elif n == 1:
        raise ValueError("no self-entangleable block for n=1")
    else:
        top = n - 1
    dims = np.array(_block_dims(n))
    a = np.where(dims <= top, np.sin(math.pi * dims / (top + 2)), 0.0)
    state = PhaseInputState(a / np.linalg.norm(a))
    return Su2Design(state, optimal_seed(state), n, math.sin(math.pi / (top + 2)) ** 2)


def asymptotic_error_su2(n):
    """Large-n error scale pi^2 / n^2 for the SU(2) problem."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.pi**2 / (n * n)
