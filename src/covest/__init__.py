"""Covariant estimation of an unknown phase and of an unknown SU(2) action."""

from .integrals import phase_kernel_matrix, su2_kernel_matrix
from .phase import (
    PhaseDesign,
    PhaseInputState,
    Seed,
    asymptotic_error,
    bdm_input,
    min_covariant_error,
    optimal_input,
    optimal_seed,
    phase_error,
)
from .simulate import (
    SimConfig,
    SimResult,
    outcome_coefficients,
    simulate,
)
from .su2 import character, haar_matrices, irrep_matrix_batch
from .su2_design import (
    Su2Design,
    asymptotic_error_su2,
    design_optimal,
    multiplicity_spectrum,
    su2_error,
)

__version__ = "0.1.0"

__all__ = [
    "character",
    "haar_matrices",
    "irrep_matrix_batch",
    "multiplicity_spectrum",
    "PhaseDesign",
    "PhaseInputState",
    "Seed",
    "asymptotic_error",
    "bdm_input",
    "min_covariant_error",
    "optimal_input",
    "optimal_seed",
    "phase_error",
    "phase_kernel_matrix",
    "su2_kernel_matrix",
    "Su2Design",
    "asymptotic_error_su2",
    "design_optimal",
    "su2_error",
    "SimConfig",
    "SimResult",
    "outcome_coefficients",
    "simulate",
    "__version__",
]
