"""Phase-space toolkit for relativistic scalar charged particles.

Builds states, the four-component charge-resolved phase-space transform
with its spectral weighting kernels, exact Moyal evolution, the deformed
ladder algebra of the magnetic problem, and two-particle exchange
energetics; a dense doubled-space matrix oracle grounds every closed
form used.
"""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    ConjugacyError,
    GridError,
    ResolutionError,
    ResolutionWarning,
    StepSizeError,
    TruncationError,
)
from .grids import (
    NATURAL,
    MomentumGrid,
    PhaseSpaceGrid,
    UnitSystem,
    fourier_pair,
    phase_space_quadrature,
    quadrature,
)
from .moyal import (
    anti_moyal_bracket,
    bracket_with_energy,
    classical_limit_gap,
    evolve_even,
    evolve_odd,
    evolve_timestep_reference,
    moyal_bracket,
    poisson_bracket,
    star_product,
)
from .opmatrix import (
    OperatorMatrix,
    branch_reduce,
    branch_vectors,
    build_hamiltonian,
    charge_invariant,
    charge_metric,
    even_part,
    kernel_relation_check,
    momentum_kernel,
    newton_wigner_matrix,
    odd_part,
    position_kernel,
    sign_operator,
)
from .pairs import PairState, overlap_penalty, pair_energy, penalty_curve
from .rotator import (
    OrbitSeries,
    RotatorModel,
    deformed_commutator,
    even_ladder,
    modulation_depth,
    modulation_spectrum,
    orbit_series,
    orbit_series_matrix_oracle,
    translational_coupling,
)
from .spectrum import (
    EnergyModel,
    chi_factor,
    deformation_f,
    energy,
    eps_factor,
    landau_energy,
    purity_rhs,
)
from .states import (
    ChargeBranchState,
    CoherentSpec,
    FockExpansion,
    displaced_number_state,
    free_coherent_state,
    gaussian_state,
    rotator_coherent_state,
)
from .wigner import (
    EPS_RELATIVISTIC,
    EPS_UNITY,
    Moments,
    expectation,
    fine_amplitude,
    interference_gain,
    moments,
    purity_check,
    reconstruct_kernel,
    wigner_even,
    wigner_odd,
)
