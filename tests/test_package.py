"""The public surface of `import fvps`: 74 exported names and 9 submodules.

The package loads each one on first access; these tests pin that the
surface is the one the package has always exposed.
"""

import importlib

import pytest

import fvps

EXPORTS = {
    "errors": ["ConditioningError", "ConjugacyError", "GridError", "ResolutionError", "ResolutionWarning",
               "StepSizeError", "TruncationError"],
    "grids": ["NATURAL", "MomentumGrid", "PhaseSpaceGrid", "UnitSystem", "fourier_pair", "phase_space_quadrature",
              "quadrature"],
    "moyal": ["anti_moyal_bracket", "bracket_with_energy", "classical_limit_gap", "evolve_even", "evolve_odd",
              "evolve_timestep_reference", "moyal_bracket", "poisson_bracket", "star_product"],
    "opmatrix": ["OperatorMatrix", "branch_reduce", "branch_vectors", "build_hamiltonian", "charge_invariant",
                 "charge_metric", "even_part", "kernel_relation_check", "momentum_kernel", "newton_wigner_matrix",
                 "odd_part", "position_kernel", "sign_operator"],
    "pairs": ["PairState", "overlap_penalty", "pair_energy", "penalty_curve"],
    "rotator": ["OrbitSeries", "RotatorModel", "deformed_commutator", "even_ladder", "modulation_depth",
                "modulation_spectrum", "orbit_series", "orbit_series_matrix_oracle", "translational_coupling"],
    "spectrum": ["EPS_RELATIVISTIC", "EPS_UNITY", "EnergyModel", "chi_factor", "deformation_f", "energy",
                 "eps_factor", "landau_energy", "purity_rhs"],
    "states": ["ChargeBranchState", "CoherentSpec", "FockExpansion", "displaced_number_state",
               "free_coherent_state", "gaussian_state", "rotator_coherent_state"],
    "wigner": ["Moments", "expectation", "fine_amplitude", "interference_gain", "moments", "purity_check",
               "reconstruct_kernel", "wigner_even", "wigner_odd"],
}
PUBLIC = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)


def test_surface_size():
    assert len(PUBLIC) == 83


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_its_modules_object(module):
    home = importlib.import_module(f"fvps.{module}")
    assert getattr(fvps, module) is home
    for name in EXPORTS[module]:
        assert getattr(fvps, name) is getattr(home, name), name


def test_dir_lists_the_surface():
    assert PUBLIC <= set(dir(fvps))


def test_star_import_binds_exactly_the_surface():
    namespace = {}
    exec("from fvps import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_eps_names_are_one_object_everywhere():
    from fvps import cli, spectrum, wigner

    assert wigner.EPS_RELATIVISTIC is spectrum.EPS_RELATIVISTIC is fvps.EPS_RELATIVISTIC
    assert wigner.EPS_UNITY is spectrum.EPS_UNITY is fvps.EPS_UNITY
    assert cli.build_parser().parse_args(["wigner", "--out", "w.csv"]).eps_mode is spectrum.EPS_RELATIVISTIC


@pytest.mark.parametrize("name", ["no_such_name", "tables_writer", "__wrapped__"])
def test_unknown_name_raises_attribute_error_naming_fvps(name):
    with pytest.raises(AttributeError, match=f"module 'fvps' has no attribute '{name}'"):
        getattr(fvps, name)
