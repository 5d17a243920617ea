"""Builders for the three case-study matrix families.

* Biophysical ring lattices: the linearized reaction-diffusion matrix on
  a periodic ring (circulant), and its convective/disordered variant with
  asymmetric hops D e^{+-h} and per-site growth fluctuations U_i.
* 1D scattering: 2x2 transfer matrices M with det M = 1, the scattering
  matrix S assembled from them, its closed-form eigenvalues s+-, and the
  asymptotic scattering states.
* Open quantum systems: the non-Hermitian effective Hamiltonian obtained
  by displacing Lindblad operators by scalars,
  H + (i/2) sum_k (conj(l_k) L_k - l_k L_k^dagger).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import core, dynamics
from .core import as_square_matrix
from .dynamics import ForceBreakdown, MatrixTrajectory
from .errors import (
    DimensionMismatch,
    NotUnimodular,
    PairingFailure,
    SpectralSingularity,
)

__all__ = [
    "BiophysicalRing",
    "build_omega",
    "build_omega_le",
    "omega_le_spectrum",
    "EffectiveHamiltonianSpec",
    "effective_hamiltonian",
    "TransferMatrixModel",
    "ScatteringData",
    "ScatteringState",
    "scattering_data",
    "scattering_state",
    "main_result_acceleration",
    "MainResultDiagnostic",
]


# ---------------------------------------------------------------------------
# biophysical ring lattices


@dataclass(frozen=True)
class BiophysicalRing:
    """Parameters of the ring-lattice growth/diffusion model.

    n sites on a periodic ring, diffusion constant D > 0, uniform growth
    rate a, saturation coefficient b (stored only: the library works with
    the linearized matrices), convection tilt h, and per-site growth
    fluctuations U (length n, defaults to zero).
    """

    n: int
    diffusion: float
    growth: float = 0.0
    saturation: float = 0.0
    tilt: float = 0.0
    fluctuations: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ring needs at least 3 sites")
        if self.diffusion <= 0:
            raise ValueError("diffusion constant must be > 0")
        if self.fluctuations is not None:
            u = np.asarray(self.fluctuations, dtype=float)
            if u.shape != (self.n,):
                raise DimensionMismatch(f"fluctuations must have length {self.n}")
            object.__setattr__(self, "fluctuations", u)

    @property
    def u(self) -> np.ndarray:
        if self.fluctuations is None:
            return np.zeros(self.n)
        return self.fluctuations


def build_omega(ring: BiophysicalRing) -> np.ndarray:
    """Linearized diffusion matrix: circulant, diagonal a - 2D, nearest
    neighbours D on the periodic ring.  Every row sums to a (the uniform
    mode is an eigenvector with eigenvalue a)."""
    n, d, a = ring.n, ring.diffusion, ring.growth
    row = np.zeros(n)
    row[0] = a - 2 * d
    row[1] = d
    row[-1] = d
    return dynamics.circulant_matrix(row).real.astype(float)


def build_omega_le(ring: BiophysicalRing) -> np.ndarray:
    """Ring matrix with convection tilt and growth-rate disorder.

    Diagonal a - 2D + U_i; hop to the next site D e^{h}, to the previous
    D e^{-h}, periodic wrap.  With U = 0 it is circulant with spectrum
    a - 2D + D e^{h} w^m + D e^{-h} w^{-m}, w = exp(2i pi / n).
    """
    n, d, a, h = ring.n, ring.diffusion, ring.growth, ring.tilt
    m = np.zeros((n, n))
    np.fill_diagonal(m, a - 2 * d + ring.u)
    fwd, bwd = d * np.exp(h), d * np.exp(-h)
    for i in range(n):
        m[i, (i + 1) % n] = fwd
        m[i, (i - 1) % n] = bwd
    return m


def omega_le_spectrum(ring: BiophysicalRing) -> np.ndarray:
    """Analytic (DFT) spectrum of the clean (U = 0) tilted ring,
    a - 2D + D e^{h} w^m + D e^{-h} w^{-m}, m = 0..n-1."""
    n, d, a, h = ring.n, ring.diffusion, ring.growth, ring.tilt
    w = np.exp(2j * np.pi * np.arange(n) / n)
    return a - 2 * d + d * np.exp(h) * w + d * np.exp(-h) / w


# ---------------------------------------------------------------------------
# effective Hamiltonians


@dataclass(frozen=True)
class EffectiveHamiltonianSpec:
    """Hermitian H plus Lindblad operators L_k displaced by scalars l_k."""

    h: np.ndarray
    lindblad_ops: Sequence[np.ndarray] = field(default_factory=tuple)
    displacements: Sequence[complex] = field(default_factory=tuple)
    hermiticity_tol: float = 1e-10

    def __post_init__(self):
        h = as_square_matrix(self.h)
        object.__setattr__(self, "h", h)
        ops = tuple(as_square_matrix(op) for op in self.lindblad_ops)
        ls = tuple(complex(l) for l in self.displacements)
        if len(ops) != len(ls):
            raise DimensionMismatch("one displacement scalar per Lindblad operator")
        for op in ops:
            if op.shape != h.shape:
                raise DimensionMismatch("Lindblad operator dimension mismatch")
        object.__setattr__(self, "lindblad_ops", ops)
        object.__setattr__(self, "displacements", ls)


def effective_hamiltonian(spec: EffectiveHamiltonianSpec) -> np.ndarray:
    """H + (i/2) sum_k (conj(l_k) L_k - l_k L_k^dagger).

    Warns when H is not Hermitian to tolerance.  With all l_k = 0 the
    result is H itself; with Hermitian L_k and real l_k the displacement
    terms cancel.  Each displacement term (i/2)(conj(l) L - l L^dagger)
    is Hermitian, so Hermitian H stays Hermitian: the displacement is a
    frame change, and non-Hermiticity enters through a non-Hermitian H
    block (e.g. a system block dressed with decay rates).
    """
    h = spec.h
    if np.max(np.abs(h - h.conj().T)) > spec.hermiticity_tol:
        warnings.warn("H is not Hermitian to tolerance", stacklevel=2)
    if not spec.lindblad_ops:
        return h.copy()
    acc = np.zeros_like(h)
    for op, l in zip(spec.lindblad_ops, spec.displacements):
        acc = acc + np.conjugate(l) * op - l * op.conj().T
    return h + 0.5j * acc


# ---------------------------------------------------------------------------
# transfer matrices / scattering


@dataclass(frozen=True)
class TransferMatrixModel:
    """2x2 transfer matrix entries as functions of the wavenumber k.

    The transfer matrix relates field amplitudes on the two sides of a
    1D scatterer, E+ = M E-.  det M(k) must equal 1 to ``unimodular_tol``
    at every queried k.  ``branch`` selects which root s+ or s- is
    reported as primary (both are always computed).
    """

    m11: Callable[[float], complex]
    m12: Callable[[float], complex]
    m21: Callable[[float], complex]
    m22: Callable[[float], complex]
    branch: int = +1
    unimodular_tol: float = 1e-9

    @staticmethod
    def from_constant(m, branch: int = +1,
                      unimodular_tol: float = 1e-9) -> "TransferMatrixModel":
        m = as_square_matrix(m)
        if m.shape != (2, 2):
            raise DimensionMismatch("transfer matrix must be 2x2")
        return TransferMatrixModel(
            lambda k: complex(m[0, 0]),
            lambda k: complex(m[0, 1]),
            lambda k: complex(m[1, 0]),
            lambda k: complex(m[1, 1]),
            branch=branch,
            unimodular_tol=unimodular_tol,
        )

    def matrix(self, k: float) -> np.ndarray:
        return np.array(
            [[self.m11(k), self.m12(k)], [self.m21(k), self.m22(k)]],
            dtype=complex,
        )


@dataclass(frozen=True)
class ScatteringData:
    """S-matrix blocks and closed-form eigenvalues at one wavenumber.

    T_l = T_r = 1/M22, R_r = M12/M22, R_l = -M21/M22;
    s+- = (1 +- sqrt(1 - M11 M22)) / M22.
    """

    k: float
    t_left: complex
    r_left: complex
    t_right: complex
    r_right: complex
    s_plus: complex
    s_minus: complex

    @property
    def s_matrix(self) -> np.ndarray:
        return np.array(
            [[self.t_left, self.r_right], [self.r_left, self.t_right]],
            dtype=complex,
        )

    def primary(self, branch: int) -> complex:
        return self.s_plus if branch >= 0 else self.s_minus


def scattering_data(model: TransferMatrixModel, k: float,
                    singularity_tol: float = 1e-12) -> ScatteringData:
    """Assemble the scattering data of the transfer matrix at wavenumber k.

    Raises NotUnimodular when |det M - 1| exceeds the model tolerance and
    SpectralSingularity when M22 vanishes (divergent transmission, a
    distinguished physical event).
    """
    m = model.matrix(k)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det - 1.0) > model.unimodular_tol:
        raise NotUnimodular(f"|det M(k={k}) - 1| = {abs(det - 1.0):.3e}")
    m22 = m[1, 1]
    if abs(m22) <= singularity_tol:
        raise SpectralSingularity(f"M22(k={k}) = {m22}: spectral singularity")
    root = np.sqrt(complex(1.0 - m[0, 0] * m22))  # principal branch
    return ScatteringData(
        k=k,
        t_left=complex(1.0 / m22),
        r_left=complex(-m[1, 0] / m22),
        t_right=complex(1.0 / m22),
        r_right=complex(m[0, 1] / m22),
        s_plus=complex((1.0 + root) / m22),
        s_minus=complex((1.0 - root) / m22),
    )


@dataclass(frozen=True)
class ScatteringState:
    """Asymptotic scattering state sampled over a position grid.

    Left incidence:  N_l (e^{ikx} + R_l e^{-ikx}) as x -> -inf,
                     N_l T_l e^{ikx}              as x -> +inf.
    Right incidence: mirrored with N_r, R_r, T_r.
    The free-space model treats the asymptotic forms as exact on the two
    half-lines (split at x = 0).
    """

    side: str
    k: float
    amplitude: complex
    reflection: complex
    transmission: complex
    x: np.ndarray
    psi: np.ndarray


def scattering_state(model: TransferMatrixModel, k: float, side: str,
                     x_grid, amplitude: complex = 1.0) -> ScatteringState:
    """Sample the asymptotic scattering state on ``x_grid``."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    data = scattering_data(model, k)
    x = np.asarray(x_grid, dtype=float)
    n0 = complex(amplitude)
    psi = np.empty(len(x), dtype=complex)
    if side == "left":
        refl, trans = data.r_left, data.t_left
        neg = x < 0
        psi[neg] = n0 * (np.exp(1j * k * x[neg]) + refl * np.exp(-1j * k * x[neg]))
        psi[~neg] = n0 * trans * np.exp(1j * k * x[~neg])
    else:
        refl, trans = data.r_right, data.t_right
        neg = x < 0
        psi[neg] = n0 * trans * np.exp(-1j * k * x[neg])
        psi[~neg] = n0 * (np.exp(-1j * k * x[~neg]) + refl * np.exp(1j * k * x[~neg]))
    return ScatteringState(side=side, k=k, amplitude=n0, reflection=refl,
                           transmission=trans, x=x, psi=psi)


# ---------------------------------------------------------------------------
# preset accelerations


@dataclass(frozen=True)
class MainResultDiagnostic:
    """Exact vs ansatz-eigenvector evaluation of the acceleration sum.

    The exact decomposition drives all certified numbers; the ansatz path
    quantifies the approximation made by model eigenvectors (localized
    exponentials, scattering states), never replaces it.
    """

    exact: complex
    ansatz: complex

    @property
    def discrepancy(self) -> float:
        return abs(self.exact - self.ansatz)


_MODEL_KINDS = ("open_quantum", "biophysical", "pt_symmetric")


def main_result_acceleration(
    model_kind: str,
    trajectory: MatrixTrajectory,
    t: float,
    j: int,
    gap_tol: float = 1e-12,
    tol: float = 1e-9,
    ansatz_left: Optional[np.ndarray] = None,
    ansatz_right: Optional[np.ndarray] = None,
) -> tuple[ForceBreakdown, Optional[MainResultDiagnostic]]:
    """Acceleration of eigenvalue j of a model state matrix at time t.

    Delegates to :func:`eigendyn.dynamics.eigen_acceleration` with the
    numerically exact biorthonormal eigenvectors of the state matrix
    (effective Hamiltonian, ring matrix, or S-matrix family).  When
    ansatz eigenvector sets are supplied (columns per eigenvalue), the
    same sum is additionally evaluated with them in diagnostic mode and
    the discrepancy reported.
    """
    if model_kind not in _MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {_MODEL_KINDS}")
    m = as_square_matrix(trajectory.value(t))
    mdot = as_square_matrix(trajectory.first_derivative(t))
    mddot = as_square_matrix(trajectory.second_derivative(t))
    d = core.decompose(m, tol)
    pairing = None
    if core.is_real(m, tol) and core.is_real(mdot, tol):
        try:
            pairing = core.pair_conjugates(d, max(tol, 1e-7))
        except PairingFailure:
            pairing = None
    breakdown = dynamics.eigen_acceleration(d, mdot, mddot, j,
                                            pairing=pairing, gap_tol=gap_tol)

    diagnostic = None
    if ansatz_left is not None and ansatz_right is not None:
        ul = np.asarray(ansatz_left, dtype=complex)
        vr = np.asarray(ansatz_right, dtype=complex)
        if ul.shape != (d.n, d.n) or vr.shape != (d.n, d.n):
            raise DimensionMismatch("ansatz eigenvector sets must be n x n")
        # the kernel zeroes singular pairs: the diagnostic skips them
        f = dynamics.force_columns(ul, vr, d.eigenvalues, mdot, mddot, [j],
                                   gap_tol=gap_tol)
        diagnostic = MainResultDiagnostic(
            exact=breakdown.total, ansatz=complex(f.total[0])
        )
    return breakdown, diagnostic
