"""eigendyn: eigenvalue dynamics of time-dependent matrices.

Tracks eigenvalues of matrix families M(t) with biorthonormal left/right
eigenvectors, computes their velocities, accelerations, and the
attraction force between an eigenvalue and its complex conjugate
(deterministic and in expectation under stochastic perturbations), and
ships builders for ring-lattice, scattering, and effective-Hamiltonian
state matrices.  The API lives in the modules: ``core``, ``dynamics``,
``models``, ``stochastic``, ``engine`` and ``cli``.
"""

__version__ = "0.1.0"
