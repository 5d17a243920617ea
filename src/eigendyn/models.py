"""Builders for the three case-study matrix families.

* Biophysical ring lattices: the linearized reaction-diffusion matrix on
  a periodic ring (circulant), and its convective/disordered variant with
  asymmetric hops D e^{+-h} and per-site growth fluctuations U_i.
* 1D scattering: 2x2 transfer matrices M with det M = 1, the scattering
  matrix S assembled from them, and its closed-form eigenvalues s+-.
* Open quantum systems: the non-Hermitian effective Hamiltonian obtained
  by displacing Lindblad operators by scalars,
  H + (i/2) sum_k (conj(l_k) L_k - l_k L_k^dagger).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import as_square_matrix
from .errors import (
    DimensionMismatch,
    NotUnimodular,
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
    "scattering_data",
]


# ---------------------------------------------------------------------------
# biophysical ring lattices


@dataclass(frozen=True)
class BiophysicalRing:
    """Parameters of the ring-lattice growth/diffusion model.

    n sites on a periodic ring, diffusion constant D > 0, uniform growth
    rate a and convection tilt h.  Per-site growth fluctuations U_i are
    added by the caller to the diagonal of :func:`build_omega_le`.  The
    library works with the linearized matrices, so the saturation
    term of the model has no parameter here.
    """

    n: int
    diffusion: float
    growth: float = 0.0
    tilt: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("ring needs at least 3 sites")
        if self.diffusion <= 0:
            raise ValueError("diffusion constant must be > 0")


def build_omega(ring: BiophysicalRing) -> np.ndarray:
    """Linearized diffusion matrix: circulant, diagonal a - 2D, nearest
    neighbours D on the periodic ring.  Every row sums to a (the uniform
    mode is an eigenvector with eigenvalue a)."""
    return build_omega_le(replace(ring, tilt=0.0))


def build_omega_le(ring: BiophysicalRing) -> np.ndarray:
    """Ring matrix with convection tilt, before growth-rate disorder.

    Diagonal a - 2D; hop to the next site D e^{h}, to the previous
    D e^{-h}, periodic wrap.  It is circulant with spectrum
    a - 2D + D e^{h} w^m + D e^{-h} w^{-m}, w = exp(2i pi / n); the
    disorder U_i adds to the diagonal.
    """
    n, d, a, h = ring.n, ring.diffusion, ring.growth, ring.tilt
    m = np.zeros((n, n))
    np.fill_diagonal(m, a - 2 * d)
    sites = np.arange(n)
    m[sites, (sites + 1) % n] = d * np.exp(h)
    m[sites, (sites - 1) % n] = d * np.exp(-h)
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
    """Hermitian H plus Lindblad operators L_k displaced by scalars l_k.

    Warns when an entry of H - H^dagger exceeds 1e-10 in magnitude.
    """

    h: np.ndarray
    lindblad_ops: Sequence[np.ndarray] = field(default_factory=tuple)
    displacements: Sequence[complex] = field(default_factory=tuple)

    def __post_init__(self):
        h = as_square_matrix(self.h)
        if len(self.lindblad_ops) != len(self.displacements):
            raise DimensionMismatch("one displacement scalar per Lindblad operator")
        for op in self.lindblad_ops:
            if as_square_matrix(op).shape != h.shape:
                raise DimensionMismatch("Lindblad operator dimension mismatch")
        if np.max(np.abs(h - h.conj().T)) > 1e-10:
            warnings.warn("H is not Hermitian to tolerance", stacklevel=3)


def effective_hamiltonian(spec: EffectiveHamiltonianSpec) -> np.ndarray:
    """H + (i/2) sum_k (conj(l_k) L_k - l_k L_k^dagger).

    With all l_k = 0 the result is H itself; with Hermitian L_k and real
    l_k the displacement terms cancel.  Each displacement term
    (i/2)(conj(l) L - l L^dagger) is Hermitian, so Hermitian H stays
    Hermitian: the displacement is a frame change, and non-Hermiticity
    enters through a non-Hermitian H block (e.g. a system block dressed
    with decay rates).  The result is affine in the l_k: displacements
    l_k + t r_k give the value at l_k plus t times the value of the spec
    with H = 0 and displacements r_k.
    """
    h = np.asarray(spec.h, dtype=complex)
    acc = np.zeros_like(h)
    for op, l in zip(spec.lindblad_ops, spec.displacements):
        op, l = np.asarray(op, dtype=complex), complex(l)
        acc = acc + np.conjugate(l) * op - l * op.conj().T
    return h + 0.5j * acc


# ---------------------------------------------------------------------------
# transfer matrices / scattering


def _power(k, p: int):
    """k**p; for p >= 2 each entry of an array k is raised by Python's
    float power, as a scalar k is: numpy's array power rounds some
    entries differently."""
    if p < 2 or np.ndim(k) == 0:
        return k**p
    return np.reshape([x**p for x in np.ravel(k).tolist()], np.shape(k))


@dataclass(frozen=True)
class TransferMatrixModel:
    """2x2 transfer matrix entries as polynomials in the wavenumber k: each
    field lists the coefficients of k^0, k^1, ... of its entry.

    The transfer matrix relates field amplitudes on the two sides of a
    1D scatterer, E+ = M E-.  det M(k) must equal 1 to ``unimodular_tol``
    at every queried k.
    """

    m11: Sequence[complex]
    m12: Sequence[complex]
    m21: Sequence[complex]
    m22: Sequence[complex]
    unimodular_tol: float = 1e-9

    @staticmethod
    def from_constant(m) -> "TransferMatrixModel":
        m = as_square_matrix(m)
        if m.shape != (2, 2):
            raise DimensionMismatch("transfer matrix must be 2x2")
        return TransferMatrixModel(*m.reshape(4, 1).tolist())

    def matrix(self, k) -> np.ndarray:
        """M(k), or a stack with the shape of an array ``k`` in front."""
        entries = [np.broadcast_to(sum(c * _power(k, q) for q, c in enumerate(coeffs)),
                                   np.shape(k))
                   for coeffs in (self.m11, self.m12, self.m21, self.m22)]
        return np.stack(entries, axis=-1).astype(complex).reshape(
            np.shape(k) + (2, 2))


@dataclass(frozen=True)
class ScatteringData:
    """S matrix and its closed-form eigenvalues at one wavenumber, or
    arrays of them over an array of wavenumbers.

    S = [[T, R_r], [R_l, T]] with T = 1/M22, R_r = M12/M22,
    R_l = -M21/M22; s+- = (1 +- sqrt(1 - M11 M22)) / M22.
    """

    s_matrix: np.ndarray
    s_plus: complex
    s_minus: complex


def scattering_data(model: TransferMatrixModel, k) -> ScatteringData:
    """Assemble the scattering data of the transfer matrix at wavenumber
    k, or at each wavenumber of an array k.

    Raises NotUnimodular when |det M - 1| exceeds the model tolerance and
    SpectralSingularity when |M22| <= 1e-12 (divergent transmission, a
    distinguished physical event), each at the first offending k.
    """
    m = model.matrix(k)
    # numpy scalars for a scalar k, arrays for an array k
    m11, m12, m21, m22 = np.moveaxis(m.reshape(m.shape[:-2] + (4,)), -1, 0)
    det = m11 * m22 - m12 * m21
    off = np.abs(det - 1.0)
    bad = np.flatnonzero(off > model.unimodular_tol)
    if bad.size:
        i = bad[0]
        raise NotUnimodular(f"|det M(k={np.ravel(k)[i]}) - 1| = "
                            f"{np.ravel(off)[i]:.3e}")
    bad = np.flatnonzero(np.abs(m22) <= 1e-12)
    if bad.size:
        i = bad[0]
        raise SpectralSingularity(f"M22(k={np.ravel(k)[i]}) = "
                                  f"{np.ravel(m22)[i]}: spectral singularity")
    root = np.sqrt(1.0 - m11 * m22)  # principal branch
    s = np.stack([np.stack([1.0 / m22, m12 / m22], axis=-1),
                  np.stack([-m21 / m22, 1.0 / m22], axis=-1)], axis=-2)
    s_plus, s_minus = (1.0 + root) / m22, (1.0 - root) / m22
    if np.ndim(k) == 0:
        s_plus, s_minus = complex(s_plus), complex(s_minus)
    return ScatteringData(s, s_plus, s_minus)
