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

import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
# numpy and scipy may each bundle their own OpenBLAS with its own thread
# pool; a threaded numpy product leaves its workers spinning against the
# next step's eigensolve, so the n x n x n products run on the BLAS that
# scipy's LAPACK (core.decompose) already uses
from scipy.linalg.blas import zgemm

from .core import ConjugatePairing, SpectralDecomposition, as_square_matrix
from .errors import DimensionMismatch, NonFiniteMatrix, RealEigenvalue, SingularGap

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


def _times(t) -> np.ndarray:
    # a time, or an array of times, broadcasting against (n, n)
    return np.asarray(t)[..., None, None]


@dataclass(frozen=True)
class MatrixTrajectory:
    """A time-parametrized matrix family with first and second derivatives.

    Each callable takes a time, giving one (n, n) matrix, or an array of
    times, giving a stack with the array's shape in front.
    """

    n: int
    value: Callable[[float], np.ndarray]
    first_derivative: Callable[[float], np.ndarray]
    second_derivative: Callable[[float], np.ndarray]

    def at(self, t) -> tuple:
        """M, Mdot and Mddot at ``t`` (a time or an array of times) as
        complex arrays.  Raises NonFiniteMatrix naming the first time at
        which one of them has a NaN or infinite entry; the overflow that
        made it raises no numpy warning besides."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = tuple(np.array(f(t), dtype=complex) for f in (
                self.value, self.first_derivative, self.second_derivative))
        bad = [~np.isfinite(x).all(axis=(-2, -1)).ravel() for x in out]
        if np.any(bad):
            s = int(np.flatnonzero(np.logical_or.reduce(bad))[0])
            name = next(name for name, b in zip(("M", "Mdot", "Mddot"), bad)
                        if b[s])
            raise NonFiniteMatrix(f"{name}(t={np.ravel(t)[s]}) has NaN/Inf "
                                  "entries")
        return out

    @staticmethod
    def polynomial(a, b=None, c=None) -> "MatrixTrajectory":
        """M(t) = A + t B + t^2 C with analytic derivatives."""
        a = as_square_matrix(a)
        n = a.shape[0]
        b = as_square_matrix(b) if b is not None else np.zeros_like(a)
        c = as_square_matrix(c) if c is not None else np.zeros_like(a)
        if b.shape != a.shape or c.shape != a.shape:
            raise DimensionMismatch("polynomial coefficients must share shape")
        with np.errstate(over="ignore"):  # at() names an infinite Mddot
            mddot = 2 * c
        return MatrixTrajectory(
            n,
            lambda t: a + _times(t) * b + _times(t) * _times(t) * c,
            lambda t: b + 2 * _times(t) * c,
            lambda t: np.broadcast_to(mddot, np.shape(t) + mddot.shape).copy(),
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

    With C = U^H Mdot V (formed whole when ``cols`` has n entries, else
    only its rows and columns ``cols``): velocity C[j, j], inertial
    u_j^H Mddot v_j, and the pairwise terms
    T[i, j] = 2 C[i, j] C[j, i] / (lambda_j - lambda_i).  T is
    antisymmetric, so over the whole spectrum the totals sum to tr Mddot
    and the velocities to tr Mdot.  With ``partner`` (an index per
    eigenvalue, self for real ones) T[partner[j], j] is split off as the
    conjugate term; ``others`` sums the remaining i directly rather than
    subtracting it from the column sum, which would cancel near the real
    axis.  Works for any left/right vector sets, not only a
    decomposition's.

    Every argument may carry a leading step axis, as a stacked
    decomposition's fields do (``cols`` (S, k), ``partner`` (S, n)): the
    matrix products run per step, the terms once over the stack, and
    every field of the result gains the step axis.
    """
    u, v, w = np.asarray(left), np.asarray(right), np.asarray(eigenvalues)
    mdot, mddot = np.asarray(mdot), np.asarray(mddot)
    steps, n = w.shape[:-1], w.shape[-1]
    cols = np.broadcast_to(np.asarray(cols, dtype=int), steps + np.shape(cols)[-1:])
    k = cols.shape[-1]
    # an all-zero Mddot (every ring and effective-Hamiltonian model) has
    # zero inertial terms: its products are skipped
    moving = mddot.any(axis=(-2, -1))
    u_mddot = np.zeros(steps + (k, n), dtype=complex)
    if k == n:
        c = np.empty(steps + (n, n), dtype=complex)
        for s in np.ndindex(steps):
            # trans_a=2: U^H
            c[s] = zgemm(1.0, u[s], zgemm(1.0, mdot[s], v[s]), trans_a=2)
            if moving[s]:
                u_mddot[s] = zgemm(1.0, u[s][:, cols[s]], mddot[s], trans_a=2)
        # gathers keep any order of cols, repeats too
        c_col = np.take_along_axis(c, cols[..., None, :], axis=-1)  # C[i, j]
        c_row = np.take_along_axis(c, cols[..., :, None], axis=-2)  # C[j, i]
    else:
        c_col = np.empty(steps + (n, k), dtype=complex)
        c_row = np.empty(steps + (k, n), dtype=complex)
        for s in np.ndindex(steps):
            # n x n x k products: with few columns they stay below
            # OpenBLAS's threading threshold, where numpy's BLAS costs
            # nothing
            us, vs, cs = u[s], v[s], cols[s]
            ucols = us[:, cs].conj().T
            c_col[s] = us.conj().T @ (mdot[s] @ vs[:, cs])
            c_row[s] = (ucols @ mdot[s]) @ vs
            if moving[s]:
                u_mddot[s] = ucols @ mddot[s]
    velocity = np.take_along_axis(c_row, cols[..., :, None], axis=-1)[..., 0]
    inertial = np.zeros(steps + (k,), dtype=complex)
    if np.any(moving):
        inertial = np.einsum("...ci,...ic->...c", u_mddot,
                             np.take_along_axis(v, cols[..., None, :], axis=-1))

    # lambda_j - lambda_i
    gap = np.take_along_axis(w, cols, axis=-1)[..., None, :] - w[..., :, None]
    own = np.arange(n)[:, None] == cols[..., None, :]
    small = (np.abs(gap) < gap_tol) & ~own
    pairwise = np.divide(2.0 * c_col * c_row.swapaxes(-1, -2), gap,
                         out=np.zeros(steps + (n, k), dtype=complex),
                         where=~(own | small))
    singular = np.where(small.any(axis=-2), small.argmax(axis=-2), -1)

    rest = pairwise
    conjugate_term = np.zeros(steps + (k,), dtype=complex)
    if partner is not None:
        jbar = np.take_along_axis(np.asarray(partner), cols, axis=-1)
        conjugate_term = np.take_along_axis(pairwise, jbar[..., None, :],
                                            axis=-2)[..., 0, :]
        rest = np.where(np.arange(n)[:, None] == jbar[..., None, :], 0.0, pairwise)
    return ForceColumns(cols=cols, velocity=velocity, inertial=inertial,
                        pairwise=pairwise, conjugate_term=conjugate_term,
                        others=rest.sum(axis=-2), singular=singular,
                        gap_tol=gap_tol)


def _check_dim(d: SpectralDecomposition, m: np.ndarray, name: str) -> None:
    if m.shape != (d.n, d.n):
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected {(d.n, d.n)}")


def _check_index(n: int, j) -> int:
    # a float or a string raises TypeError; numpy would read a bool as a
    # mask and a negative j as counted from the end
    i = operator.index(j)
    if isinstance(j, bool) or not 0 <= i < n:
        raise DimensionMismatch(f"eigenvalue index {j!r} outside 0..{n - 1}")
    return i


def eigen_velocity(d: SpectralDecomposition, mdot, j: int) -> complex:
    """d(lambda_j)/dt = u_j^H Mdot v_j."""
    j = _check_index(d.n, j)
    mdot = as_square_matrix(mdot)
    _check_dim(d, mdot, "Mdot")
    return complex(d.left[:, j].conj() @ mdot @ d.right[:, j])


def eigen_acceleration(d: SpectralDecomposition, mdot, mddot, j: int,
                       pairing: Optional[ConjugatePairing] = None) -> ForceBreakdown:
    """d2(lambda_j)/dt2 decomposed into inertial/conjugate/rest terms.

    When ``pairing`` is given (real-matrix runs) the conjugate-partner
    summand is isolated; otherwise it is folded into ``others``.

    Raises SingularGap when some |lambda_i - lambda_j| < 1e-12, carrying
    the offending pair (the first such i).
    """
    j = _check_index(d.n, j)
    mdot = as_square_matrix(mdot)
    mddot = as_square_matrix(mddot)
    _check_dim(d, mdot, "Mdot")
    _check_dim(d, mddot, "Mddot")
    f = force_columns(d.left, d.right, d.eigenvalues, mdot, mddot, [j],
                      None if pairing is None else pairing.partner)
    f.raise_singular()
    return f.breakdown(0)


def conjugate_force(d: SpectralDecomposition, pairing: ConjugatePairing, mdot,
                    j: int, unsquared_form: bool = False) -> complex:
    """Attraction of lambda_j toward its complex conjugate.

    Default: the i = conj-partner summand of :func:`eigen_acceleration`
    (factor 2 included), which for real M and Mdot equals
    -i |u_j^T Mdot v_j|^2 / Im(lambda_j) in the biorthonormal convention.

    ``unsquared_form``: the unsquared magnitude form
    -i |u_j^T Mdot v_j| / Im(lambda_j) evaluated with *unit-normalized*
    left and right vectors (the "standard" eigenvectors); this is the
    variant whose magnitude scales as 1/Im(lambda_j) as a pair approaches
    the real axis.

    The default form's two bilinear forms are one product against the
    rows :meth:`SpectralDecomposition.coupling_rows` keeps on ``d``, so
    calls for one pair (a Monte Carlo estimate's) build them once.

    Raises RealEigenvalue when Im(lambda_j) = 0, and
    DimensionMismatch when j is not in 0..n-1.
    """
    j = _check_index(d.n, j)
    mdot = as_square_matrix(mdot)
    _check_dim(d, mdot, "Mdot")
    im = d.eigenvalues[j].imag
    if im == 0.0:
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
    # (u_jbar^H Mdot v_j, u_j^H Mdot v_jbar), in some order: their product
    # is the same for j and jbar, so both ask for the rows in one order
    c = d.coupling_rows(min(j, jbar), max(j, jbar)) @ mdot.reshape(-1)
    w = d.eigenvalues
    return complex(2.0 * (c[0] * c[1]) / (w[j] - w[jbar]))


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


def circulant_acceleration(eigenvector_matrix, p, spectrum, j: int) -> complex:
    """Acceleration of eigenvalue j of a circulant under a diagonal
    perturbation, evaluated in the Fourier eigenbasis.

    Circulants are normal, so the DFT columns serve as both left and
    right eigenvectors (orthonormal, hence biorthonormal).  With
    Mddot = 0 the result equals the general pairwise sum

        2 sum_{i != j} |v_i^H diag(p) v_j|-type cross terms / (l_j - l_i),

    and must agree with :func:`eigen_acceleration` on the assembled
    circulant to near round-off.
    """
    w = np.asarray(spectrum, dtype=complex)
    n = len(w)
    j = _check_index(n, j)
    v = np.asarray(eigenvector_matrix, dtype=complex)
    p = np.asarray(p, dtype=float)
    if v.shape != (n, n) or len(p) != n:
        raise DimensionMismatch("eigenvector matrix / perturbation size mismatch")

    f = force_columns(v, v, w, np.diag(p), np.zeros((n, n)), [j])
    f.raise_singular()
    return complex(f.others[0])
