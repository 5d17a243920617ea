"""eigendyn: eigenvalue dynamics of time-dependent matrices.

Tracks eigenvalues of matrix families M(t) with biorthonormal left/right
eigenvectors, computes their velocities, accelerations, and the
attraction force between an eigenvalue and its complex conjugate
(deterministic and in expectation under stochastic perturbations), and
ships builders for ring-lattice, scattering, and effective-Hamiltonian
state matrices.
"""

# set before the submodule imports: engine records it in run provenance
__version__ = "0.1.0"

from .core import (
    ConjugatePairing,
    PathMatch,
    SpectralDecomposition,
    decompose,
    is_real,
    match_paths,
    pair_conjugates,
)
from .dynamics import (
    ForceBreakdown,
    ForceColumns,
    MatrixTrajectory,
    circulant_acceleration,
    circulant_eigenvalues,
    circulant_matrix,
    conjugate_force,
    dft_basis,
    eigen_acceleration,
    eigen_velocity,
    force_columns,
    pairwise_conjugate_summand,
)
from .engine import (
    CollisionEvent,
    RunRecord,
    ScenarioConfig,
    detect_collisions,
    export,
    load_record,
    run_scenario,
)
from .models import (
    BiophysicalRing,
    EffectiveHamiltonianSpec,
    TransferMatrixModel,
    build_omega,
    build_omega_le,
    effective_hamiltonian,
    main_result_acceleration,
    omega_le_spectrum,
    scattering_data,
    scattering_state,
)
from .stochastic import (
    MonteCarloEstimate,
    PerturbationProcess,
    expected_conjugate_force_general,
    expected_conjugate_force_iid,
    monte_carlo_conjugate_force,
    sample_step,
)
