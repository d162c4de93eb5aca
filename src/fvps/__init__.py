"""Phase-space toolkit for relativistic scalar charged particles.

Builds states, the four-component charge-resolved phase-space transform
with its spectral weighting kernels, exact Moyal evolution, the deformed
ladder algebra of the magnetic problem, and two-particle exchange
energetics; a dense doubled-space matrix oracle grounds every closed
form used.

`import fvps` loads no submodule.  Each name below, and each submodule,
is loaded on first use (`fvps.wigner_even`, `from fvps import moments`,
`from fvps import *`), through the one table `_EXPORTS` and the module
`__getattr__` of PEP 562, and read from its module at every access.
"""

import importlib

__version__ = "0.1.0"

# The exported names, by the submodule that defines them.
_EXPORTS = {
    "errors": ("ConditioningError", "ConjugacyError", "GridError", "ResolutionError", "ResolutionWarning",
               "StepSizeError", "TruncationError"),
    "grids": ("NATURAL", "MomentumGrid", "PhaseSpaceGrid", "UnitSystem", "fourier_pair", "phase_space_quadrature",
              "quadrature"),
    "moyal": ("anti_moyal_bracket", "bracket_with_energy", "classical_limit_gap", "evolve_even", "evolve_odd",
              "evolve_timestep_reference", "moyal_bracket", "poisson_bracket", "star_product"),
    "opmatrix": ("OperatorMatrix", "branch_reduce", "branch_vectors", "build_hamiltonian", "charge_invariant",
                 "charge_metric", "even_part", "kernel_relation_check", "momentum_kernel", "newton_wigner_matrix",
                 "odd_part", "position_kernel", "sign_operator"),
    "pairs": ("PairState", "overlap_penalty", "pair_energy", "penalty_curve"),
    "rotator": ("OrbitSeries", "RotatorModel", "deformed_commutator", "even_ladder", "modulation_depth",
                "modulation_spectrum", "orbit_series", "orbit_series_matrix_oracle", "translational_coupling"),
    "spectrum": ("EPS_RELATIVISTIC", "EPS_UNITY", "EnergyModel", "chi_factor", "deformation_f", "energy", "eps_factor",
                 "landau_energy", "purity_rhs"),
    "states": ("ChargeBranchState", "CoherentSpec", "FockExpansion", "displaced_number_state", "free_coherent_state",
               "gaussian_state", "rotator_coherent_state"),
    "wigner": ("Moments", "expectation", "fine_amplitude", "interference_gain", "moments", "purity_check",
               "reconstruct_kernel", "wigner_even", "wigner_odd"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
