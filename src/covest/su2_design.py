"""Estimation of an unknown SU(2) action from n uses.

An SU(2) design is a phase design over the irrep blocks of the n-fold
tensor power, dimensions 1 + n % 2, 3 + n % 2, ..., n + 1: `Su2Design`
holds one amplitude per block as a PhaseInputState, with the same seed and
error fields as PhaseDesign.  Its error is phase_error of the block
amplitudes (odd n exactly; even n with an extra a_0^2/4 penalty from the
trivial block).  design_optimal gives one sine-profile optimum for both
parities from phase._sine_design, whose profile on the even dimensions
2, ..., 2m+2 is the phase optimum of m uses.  Self-entangled designs
replace the external reference by the permutation multiplicity spaces,
usable wherever multiplicity >= irrep dimension (see _self_entangled_top).
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_index
from .phase import _REL_TOL, PhaseInputState, Seed, _sine_design, phase_error

EXTERNAL = "external"
SELF_ENTANGLED = "self-entangled"


def _block_dims(n):
    """Irrep dimensions 1 + n % 2, 3 + n % 2, ..., n + 1 of the n-qubit tensor power."""
    return tuple(range(1 + n % 2, n + 2, 2))


def multiplicity_spectrum(n):
    """The n-qubit tensor power as ((dim, multiplicity), ...) over _block_dims(n).

    The block of dimension dim = n+1-2i has multiplicity C(n, i) - C(n, i-1).
    One pass builds the binomials by the running product C(n, i) =
    C(n, i-1) (n-i+1) / i, exact in integers, in O(n) big-integer steps; a
    failed dimension identity sum(dim * mult) = 2**n raises ArithmeticError.
    """
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    spectrum, comb, below = [], 1, 0  # comb = C(n, i), below = C(n, i-1)
    for i in range(n // 2 + 1):
        if i:
            below, comb = comb, comb * (n - i + 1) // i
        spectrum.append((n + 1 - 2 * i, comb - below))
    if sum(dim * mult for dim, mult in spectrum) != 2**n:
        raise ArithmeticError(f"multiplicities of n = {n} fail the dimension identity")
    return tuple(reversed(spectrum))


def _self_entangled_top(n):
    """The largest block dimension whose multiplicity can host the reference.

    That needs multiplicity >= dimension, which holds for every block but the
    top one (multiplicity 1) when n >= 2: the block of dimension n+1-2k,
    k >= 1, has multiplicity C(n,k)(n-2k+1)/(n-k+1) >= n+1-2k, as
    C(n,k) >= n >= n-k+1.  So this is n-1, and None for n = 1.
    """
    return n - 1 if n >= 2 else None


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
        recomputed = su2_error(self.input, self.seed, self.n)
        if not abs(self.error - recomputed) <= _REL_TOL * recomputed:
            raise ValueError("design error inconsistent with its blocks and seed")

    @property
    def block_dims(self):
        return _block_dims(self.n)


def su2_error(x, seed, n):
    """Mean error of the covariant design (x, T) over the blocks of n uses.

    The phase functional of the block amplitudes, plus the trivial-block
    penalty |x_0|^2/4 for even n; with the optimal seed the phase functional
    is min_covariant_error(x).  The penalty is the junction term of
    the mirror in outcome_coefficients: this is the phase_error of the
    mirrored design, amplitudes (-x reversed, n % 2 zeros, x)/sqrt(2) with
    the factor rows mirrored and any unit row at the gap.  Raises ValueError
    for n < 1 and when x does not hold the n//2 + 1 amplitudes of n uses.
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

    An external reference uses every block, D = n+1, and a self-entangled
    one the blocks up to D = _self_entangled_top(n).
    """
    state, seed, error = _sine_design(_largest_dim(n, reference_mode), _block_dims(n))
    return Su2Design(state, seed, n, error)


def _largest_dim(n, reference_mode):
    """D, the largest block dimension design_optimal(n, reference_mode) uses."""
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    if reference_mode not in (EXTERNAL, SELF_ENTANGLED):
        raise ValueError(f"unknown reference mode {reference_mode!r}")
    if reference_mode == EXTERNAL:
        return n + 1
    top = _self_entangled_top(n)
    if top is None:
        raise ValueError("no self-entangleable block for n=1")
    return top


def asymptotic_error_su2(n):
    """Large-n error scale pi^2 / n^2 for the SU(2) problem."""
    if as_index(n, "n") < 1:
        raise ValueError("n must be >= 1")
    return math.pi**2 / (n * n)
