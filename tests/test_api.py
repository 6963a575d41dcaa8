"""The public API is pinned: a name added to or restored in `covest` must be
added here on purpose."""

import pytest

import covest

PUBLIC = [
    "PhaseDesign",
    "PhaseInputState",
    "Seed",
    "SimConfig",
    "SimResult",
    "Su2Design",
    "__version__",
    "asymptotic_error",
    "asymptotic_error_su2",
    "bdm_input",
    "character",
    "design_optimal",
    "haar_matrices",
    "irrep_matrix_batch",
    "min_covariant_error",
    "multiplicity_spectrum",
    "optimal_input",
    "optimal_seed",
    "outcome_coefficients",
    "phase_error",
    "phase_kernel_matrix",
    "simulate",
    "su2_error",
    "su2_kernel_matrix",
]

REMOVED = [
    "SeedMatrix",
    "GroupElement",
    "make_group_element",
    "from_matrix",
    "haar_sample",
    "irrep_matrix",
    "distance",
    "class_angle",
    "su2_error_odd",
    "min_su2_error_odd",
    "su2_error_even",
    "QuadratureSpec",
    "class_integral",
    "su2_error_kernel",
    "su2_single_irrep_integral",
    "phase_error_kernel",
    "MultiplicitySpectrum",
    "BlockFeasibility",
    "FeasibilityReport",
    "self_entanglement_feasible",
    "Su2BlockAmplitudes",
    "single_irrep_error",
    "brute_force_su2_error",
    "outcome_density_phase",
    "outcome_density_su2_class",
    "class_angles",
]


def test_all_is_pinned():
    assert sorted(covest.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        getattr(covest, name)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    with pytest.raises(AttributeError):
        getattr(covest, name)
