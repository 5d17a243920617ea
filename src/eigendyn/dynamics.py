"""Eigenvalue velocities, accelerations, and attraction forces.

With biorthonormal left/right vectors (see :mod:`eigendyn.core`) and a
simple spectrum, the eigenvalue paths of a smooth matrix family M(t) obey

    d(lambda_j)/dt   = u_j^H Mdot v_j,
    d2(lambda_j)/dt2 = u_j^H Mddot v_j
                       + 2 sum_{i != j} (u_j^H Mdot v_i)(u_i^H Mdot v_j)
                                        / (lambda_j - lambda_i).

For a real matrix the i = conj-partner summand is purely imaginary,
equal to -i |u_j^T Mdot v_j|^2 / Im(lambda_j): the attraction between an
eigenvalue and its complex conjugate, singular as the pair reaches the
real axis.

:func:`force_columns` evaluates these sums for any set of j in one call;
the per-eigenvalue accelerations below are views on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ConjugatePairing, SpectralDecomposition, as_square_matrix
from .errors import DimensionMismatch, RealEigenvalue, SingularGap

__all__ = [
    "MatrixTrajectory",
    "ForceBreakdown",
    "ForceColumns",
    "force_columns",
    "eigen_velocity",
    "eigen_acceleration",
    "conjugate_force",
    "pairwise_conjugate_summand",
    "circulant_acceleration",
    "dft_basis",
    "circulant_matrix",
    "circulant_eigenvalues",
]


@dataclass(frozen=True)
class MatrixTrajectory:
    """A time-parametrized matrix family with first and second derivatives.

    ``derivative_mode`` is "analytic" when derivative callables were
    supplied, else "finite-difference" with central differences of
    ``value`` at the stored step.
    """

    n: int
    value: Callable[[float], np.ndarray]
    first_derivative: Callable[[float], np.ndarray]
    second_derivative: Callable[[float], np.ndarray]
    derivative_mode: str
    fd_step: Optional[float] = None

    @staticmethod
    def from_callable(
        value: Callable[[float], np.ndarray],
        first_derivative: Optional[Callable[[float], np.ndarray]] = None,
        second_derivative: Optional[Callable[[float], np.ndarray]] = None,
        fd_step: Optional[float] = None,
        n: Optional[int] = None,
    ) -> "MatrixTrajectory":
        """Wrap callables; missing derivatives fall back to central
        differences of ``value``.

        The default steps scale with the Frobenius norm at t=0:
        1e-4 * max(1, ||M||_F) for the first derivative and a 1e-3 scale
        for the second, balancing truncation against cancellation.
        """
        m0 = as_square_matrix(value(0.0))
        dim = n if n is not None else m0.shape[0]

        if first_derivative is not None and second_derivative is not None:
            return MatrixTrajectory(dim, value, first_derivative,
                                    second_derivative, "analytic")

        scale = max(1.0, float(np.linalg.norm(m0)))
        h1 = fd_step if fd_step is not None else 1e-4 * scale
        h2 = fd_step if fd_step is not None else 1e-3 * scale

        def fd1(t: float) -> np.ndarray:
            return (value(t + h1) - value(t - h1)) / (2 * h1)

        def fd2(t: float) -> np.ndarray:
            return (value(t + h2) - 2 * value(t) + value(t - h2)) / h2**2

        return MatrixTrajectory(
            dim,
            value,
            first_derivative if first_derivative is not None else fd1,
            second_derivative if second_derivative is not None else fd2,
            "finite-difference",
            fd_step=h1,
        )

    @staticmethod
    def polynomial(a, b=None, c=None) -> "MatrixTrajectory":
        """M(t) = A + t B + t^2 C with analytic derivatives."""
        a = as_square_matrix(a)
        n = a.shape[0]
        b = as_square_matrix(b) if b is not None else np.zeros_like(a)
        c = as_square_matrix(c) if c is not None else np.zeros_like(a)
        if b.shape != a.shape or c.shape != a.shape:
            raise DimensionMismatch("polynomial coefficients must share shape")
        return MatrixTrajectory(
            n,
            lambda t: a + t * b + t * t * c,
            lambda t: b + 2 * t * c,
            lambda t: 2 * c,
            "analytic",
        )


@dataclass(frozen=True)
class ForceBreakdown:
    """d2(lambda_j)/dt2 split into its three contributions.

    inertial        u_j^H Mddot v_j
    conjugate_term  the i = conj-partner summand (zero for self-paired or
                    when no pairing is available)
    others          the remaining i summands
    total           exact sum of the three
    """

    inertial: complex
    conjugate_term: complex
    others: complex

    @property
    def total(self) -> complex:
        return self.inertial + self.conjugate_term + self.others


@dataclass(frozen=True)
class ForceColumns:
    """Velocity and acceleration terms of the eigenvalues ``cols``.

    Entry c of every per-column array belongs to eigenvalue j = cols[c];
    ``pairwise[i, c]`` is the summand T[i, j], zero for i = j and for
    every i whose gap to j is below ``gap_tol``.  ``singular[c]`` is the
    first such i, or -1 when there is none.
    """

    cols: np.ndarray
    velocity: np.ndarray
    inertial: np.ndarray
    pairwise: np.ndarray
    conjugate_term: np.ndarray
    others: np.ndarray
    singular: np.ndarray
    gap_tol: float

    @property
    def total(self) -> np.ndarray:
        return self.inertial + self.conjugate_term + self.others

    def breakdown(self, c: int) -> ForceBreakdown:
        return ForceBreakdown(inertial=complex(self.inertial[c]),
                              conjugate_term=complex(self.conjugate_term[c]),
                              others=complex(self.others[c]))

    def raise_singular(self) -> None:
        """Raise SingularGap for the first column with a singular gap."""
        bad = np.flatnonzero(self.singular >= 0)
        if bad.size:
            i, j = int(self.singular[bad[0]]), int(self.cols[bad[0]])
            raise SingularGap(f"eigenvalue gap |lambda_{i} - lambda_{j}| "
                              f"below tolerance {self.gap_tol}", pair=(i, j))


def force_columns(
    left,
    right,
    eigenvalues,
    mdot,
    mddot,
    cols,
    partner=None,
    gap_tol: float = 1e-12,
) -> ForceColumns:
    """The acceleration sum for the eigenvalues ``cols``, all i at once.

    With C = U^H Mdot V (only the rows and columns ``cols`` are formed):
    velocity C[j, j], inertial u_j^H Mddot v_j, and the pairwise terms
    T[i, j] = 2 C[i, j] C[j, i] / (lambda_j - lambda_i).  T is
    antisymmetric, so over the whole spectrum the totals sum to tr Mddot
    and the velocities to tr Mdot.  With ``partner`` (an index per
    eigenvalue, self for real ones) T[partner[j], j] is split off as the
    conjugate term; ``others`` sums the remaining i directly rather than
    subtracting it from the column sum, which would cancel near the real
    axis.  Works for any left/right vector sets, not only a
    decomposition's.
    """
    u = np.asarray(left)
    v = np.asarray(right)
    w = np.asarray(eigenvalues)
    cols = np.asarray(cols, dtype=int)
    n, k = len(w), len(cols)
    ucols = u[:, cols].conj().T

    # rows and columns ``cols`` of C, same products as the bilinear forms
    c_col = u.conj().T @ (mdot @ v[:, cols])  # C[i, j]
    c_row = (ucols @ mdot) @ v                # C[j, i]
    velocity = c_row[np.arange(k), cols]
    inertial = np.einsum("ci,ic->c", ucols @ mddot, v[:, cols])

    gap = w[cols][None, :] - w[:, None]       # lambda_j - lambda_i
    own = np.arange(n)[:, None] == cols[None, :]
    small = (np.abs(gap) < gap_tol) & ~own
    pairwise = np.divide(2.0 * c_col * c_row.T, gap,
                         out=np.zeros((n, k), dtype=complex),
                         where=~(own | small))
    singular = np.where(small.any(axis=0), small.argmax(axis=0), -1)

    rest = pairwise
    conjugate_term = np.zeros(k, dtype=complex)
    if partner is not None:
        jbar = np.asarray(partner)[cols]
        conjugate_term = pairwise[jbar, np.arange(k)]
        rest = np.where(np.arange(n)[:, None] == jbar[None, :], 0.0, pairwise)
    return ForceColumns(cols=cols, velocity=velocity, inertial=inertial,
                        pairwise=pairwise, conjugate_term=conjugate_term,
                        others=rest.sum(axis=0), singular=singular,
                        gap_tol=gap_tol)


def _check_dim(d: SpectralDecomposition, m: np.ndarray, name: str) -> None:
    if m.shape != (d.n, d.n):
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected {(d.n, d.n)}")


def eigen_velocity(d: SpectralDecomposition, mdot, j: int) -> complex:
    """d(lambda_j)/dt = u_j^H Mdot v_j."""
    mdot = as_square_matrix(mdot)
    _check_dim(d, mdot, "Mdot")
    return complex(d.left[:, j].conj() @ mdot @ d.right[:, j])


def eigen_acceleration(
    d: SpectralDecomposition,
    mdot,
    mddot,
    j: int,
    pairing: Optional[ConjugatePairing] = None,
    gap_tol: float = 1e-12,
) -> ForceBreakdown:
    """d2(lambda_j)/dt2 decomposed into inertial/conjugate/rest terms.

    When ``pairing`` is given (real-matrix runs) the conjugate-partner
    summand is isolated; otherwise it is folded into ``others``.

    Raises SingularGap when some |lambda_i - lambda_j| < gap_tol, carrying
    the offending pair (the first such i).
    """
    mdot = as_square_matrix(mdot)
    mddot = as_square_matrix(mddot)
    _check_dim(d, mdot, "Mdot")
    _check_dim(d, mddot, "Mddot")
    f = force_columns(d.left, d.right, d.eigenvalues, mdot, mddot, [j],
                      None if pairing is None else pairing.partner, gap_tol)
    f.raise_singular()
    return f.breakdown(0)


def conjugate_force(
    d: SpectralDecomposition,
    pairing: ConjugatePairing,
    mdot,
    j: int,
    unsquared_form: bool = False,
    im_tol: float = 0.0,
) -> complex:
    """Attraction of lambda_j toward its complex conjugate.

    Default: the i = conj-partner summand of :func:`eigen_acceleration`
    (factor 2 included), which for real M and Mdot equals
    -i |u_j^T Mdot v_j|^2 / Im(lambda_j) in the biorthonormal convention.

    ``unsquared_form``: the unsquared magnitude form
    -i |u_j^T Mdot v_j| / Im(lambda_j) evaluated with *unit-normalized*
    left and right vectors (the "standard" eigenvectors); this is the
    variant whose magnitude scales as 1/Im(lambda_j) as a pair approaches
    the real axis.

    Raises RealEigenvalue when |Im(lambda_j)| <= im_tol.
    """
    mdot = as_square_matrix(mdot)
    _check_dim(d, mdot, "Mdot")
    im = d.eigenvalues[j].imag
    if abs(im) <= im_tol or im == 0.0:
        raise RealEigenvalue(
            f"lambda_{j} = {d.eigenvalues[j]} is real: conjugate force singular"
        )
    if unsquared_form:
        u = d.left[:, j] / np.linalg.norm(d.left[:, j])
        v = d.right[:, j]
        return complex(-1j * abs(u @ mdot @ v) / im)
    jbar = int(pairing.partner[j])
    if jbar == j:
        raise RealEigenvalue(f"lambda_{j} is self-paired (real)")
    w = d.eigenvalues
    num = (d.left[:, jbar].conj() @ mdot @ d.right[:, j]) * (
        d.left[:, j].conj() @ mdot @ d.right[:, jbar]
    )
    return complex(2.0 * num / (w[j] - w[jbar]))


def pairwise_conjugate_summand(
    d: SpectralDecomposition, pairing: ConjugatePairing, mdot, j: int
) -> complex:
    """Single directed force F(conj(lambda_j) -> lambda_j): the undoubled
    pairwise term.  Its expectation under random Mdot is what the
    closed-form expected-force formulas compute; the acceleration sum
    counts it twice."""
    return conjugate_force(d, pairing, mdot, j) / 2.0


def dft_basis(n: int) -> np.ndarray:
    """Unitary DFT matrix whose columns diagonalize every circulant.

    Column m has entries exp(2i pi a m / n) / sqrt(n).
    """
    a = np.arange(n)
    return np.exp(2j * np.pi * np.outer(a, a) / n) / np.sqrt(n)


def circulant_matrix(first_row) -> np.ndarray:
    """Circulant with C[j, k] = c[(k - j) mod n]."""
    c = np.asarray(first_row, dtype=complex)
    n = len(c)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return c[(k - j) % n]


def circulant_eigenvalues(first_row) -> np.ndarray:
    """lambda_m = sum_k c_k exp(2i pi m k / n), m = 0..n-1."""
    c = np.asarray(first_row, dtype=complex)
    n = len(c)
    m = np.arange(n)
    return np.exp(2j * np.pi * np.outer(m, np.arange(n)) / n) @ c


def circulant_acceleration(
    eigenvector_matrix,
    p,
    spectrum,
    j: int,
    gap_tol: float = 1e-12,
) -> complex:
    """Acceleration of eigenvalue j of a circulant under a diagonal
    perturbation, evaluated in the Fourier eigenbasis.

    Circulants are normal, so the DFT columns serve as both left and
    right eigenvectors (orthonormal, hence biorthonormal).  With
    Mddot = 0 the result equals the general pairwise sum

        2 sum_{i != j} |v_i^H diag(p) v_j|-type cross terms / (l_j - l_i),

    and must agree with :func:`eigen_acceleration` on the assembled
    circulant to near round-off.
    """
    v = np.asarray(eigenvector_matrix, dtype=complex)
    p = np.asarray(p, dtype=float)
    w = np.asarray(spectrum, dtype=complex)
    n = len(w)
    if v.shape != (n, n) or len(p) != n:
        raise DimensionMismatch("eigenvector matrix / perturbation size mismatch")

    f = force_columns(v, v, w, np.diag(p), np.zeros((n, n)), [j],
                      gap_tol=gap_tol)
    f.raise_singular()
    return complex(f.others[0])
