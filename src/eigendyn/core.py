"""Dense eigendecomposition with biorthonormal left/right eigenvectors.

For a general (non-Hermitian) square matrix M the right and left
eigenvectors differ:

    M v_j = lambda_j v_j,        u_j^H M = lambda_j u_j^H.

We normalize ``||v_j||_2 = 1`` and rescale each left vector so that
``u_j^H v_i = delta_ij``; the biorthogonal scaling lives entirely in the
left set.  All downstream force formulas assume this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import DimensionMismatch, NonConvergence, PairingFailure

__all__ = [
    "as_square_matrix",
    "is_real",
    "SpectralDecomposition",
    "ConjugatePairing",
    "PathMatch",
    "decompose",
    "pair_conjugates",
    "match_paths",
]


def as_square_matrix(entries) -> np.ndarray:
    """Validate and return a finite complex square matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def is_real(m, tol: float = 1e-12) -> bool:
    """True when every imaginary part is below ``tol`` (absolute)."""
    return bool(np.max(np.abs(np.asarray(m, dtype=complex).imag), initial=0.0) <= tol)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with biorthonormalized left/right eigenvector sets.

    ``right[:, j]`` is the unit-norm right vector of ``eigenvalues[j]``;
    ``left[:, j]`` the matching left vector scaled so left^H right = I.
    ``condition_flags[j]`` marks eigenvalues whose nearest neighbour in
    the spectrum is closer than the decomposition tolerance.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition_flags: np.ndarray
    min_gap: float
    degenerate: bool

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def residual(self, m) -> float:
        """max over j of ||M v_j - lambda_j v_j||_2 (right residual)."""
        m = np.asarray(m, dtype=complex)
        r = m @ self.right - self.right * self.eigenvalues[None, :]
        return float(np.max(np.linalg.norm(r, axis=0)))

    def biorthogonality_defect(self) -> float:
        """max-norm of left^H right - I."""
        g = self.left.conj().T @ self.right - np.eye(self.n)
        return float(np.max(np.abs(g)))


@dataclass(frozen=True)
class ConjugatePairing:
    """For each index j, the index of the eigenvalue closest to
    conj(lambda_j).  Real eigenvalues are self-paired."""

    partner: np.ndarray  # int array, involutive
    tol: float


@dataclass(frozen=True)
class PathMatch:
    """Assignment of eigenvalue indices across two snapshots.

    ``permutation[i]`` is the index in the next decomposition matched to
    index ``i`` of the previous one.  ``ambiguous`` is set when a pair
    swap changes the total cost by less than ``tol`` (collision vicinity).
    """

    permutation: np.ndarray
    cost: float
    ambiguous: bool


def _fix_phases(vr: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Removes the arbitrary LAPACK phase so identical inputs give identical
    outputs and conjugate relations are stable across calls.
    """
    idx = np.argmax(np.abs(vr), axis=0)
    pivots = vr[idx, np.arange(vr.shape[1])]
    phases = np.where(np.abs(pivots) > 0, pivots / np.abs(pivots), 1.0)
    return vr / phases[None, :]


def decompose(m, tol: float = 1e-9) -> SpectralDecomposition:
    """Full eigendecomposition with biorthonormal left/right vectors.

    Eigenvalues are sorted by (Re, Im) for determinism.  Near-degenerate
    pairs (gap below ``tol``) are flagged, never repaired: the force
    formulas carry 1/(lambda_i - lambda_j) singularities and this library
    reports them rather than regularizing.

    Raises NonConvergence if LAPACK fails.
    """
    m = as_square_matrix(m)
    try:
        w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NonConvergence(str(exc)) from exc

    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]

    vr = vr / np.linalg.norm(vr, axis=0)[None, :]
    vr = _fix_phases(vr)
    # scipy's vl satisfies vl^H M = w vl^H columnwise; rescale so that
    # left^H right = I exactly on the diagonal.
    overlaps = np.einsum("ij,ij->j", vl.conj(), vr)
    # near-defective pairs have vanishing overlap; keep the unscaled left
    # vector there (the pair is flagged below) instead of overflowing
    safe = np.abs(overlaps) > 0
    scaled = np.divide(vl, overlaps.conj()[None, :], where=safe[None, :], out=vl.astype(complex).copy())
    bad = ~np.all(np.isfinite(scaled), axis=0) | ~safe
    vl = np.where(bad[None, :], vl, scaled)

    n = len(w)
    if n > 1:
        gaps = np.abs(w[None, :] - w[:, None]) + np.diag(np.full(n, np.inf))
        nearest = gaps.min(axis=0)
        min_gap = float(nearest.min())
        flags = (nearest < tol) | bad
    else:
        min_gap = np.inf
        flags = bad.copy()

    return SpectralDecomposition(
        eigenvalues=w,
        right=vr,
        left=vl,
        condition_flags=flags,
        min_gap=min_gap,
        degenerate=bool(flags.any()),
    )


def pair_conjugates(d: SpectralDecomposition, tol: float = 1e-9) -> ConjugatePairing:
    """Pair each eigenvalue with its complex conjugate.

    Requires the spectrum of a real matrix (conjugate-closed).  Eigenvalues
    with |Im| <= tol are self-paired.  Raises PairingFailure when some
    complex eigenvalue has no partner within ``tol``.
    """
    w = d.eigenvalues
    n = len(w)
    partner = np.full(n, -1, dtype=int)
    for j in range(n):
        if partner[j] >= 0:
            continue
        if abs(w[j].imag) <= tol:
            partner[j] = j
            continue
        dist = np.abs(w - w[j].conjugate())
        dist[j] = np.inf
        # prefer still-unpaired candidates
        for i in np.argsort(dist):
            if dist[i] > tol:
                break
            if partner[i] < 0:
                partner[j] = i
                partner[i] = j
                break
        if partner[j] < 0:
            raise PairingFailure(
                f"eigenvalue {w[j]} has no conjugate partner within {tol}"
            )
    return ConjugatePairing(partner=partner, tol=tol)


def match_paths(
    prev: SpectralDecomposition,
    next: SpectralDecomposition,
    ambiguity_tol: float = 1e-12,
) -> PathMatch:
    """Match eigenvalue indices across time steps.

    Minimizes the total |lambda_next - lambda_prev| assignment cost.  A
    pair of indices whose swap changes the total cost by less than
    ``ambiguity_tol`` times the scale of the spectrum is a tie (the
    signature of a collision vicinity): it flags the match as ambiguous
    and is swapped when that raises the left/right eigenvector overlap.
    Tied pairs (a, b), a < b, are visited in lexicographic order, and
    each swap is seen by every pair after it.
    """
    if prev.n != next.n:
        raise DimensionMismatch("decompositions have different dimensions")
    n = prev.n
    cost = np.abs(next.eigenvalues[None, :] - prev.eigenvalues[:, None])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(n, dtype=int)
    perm[rows] = cols

    scale = max(float(cost.max()), 1.0)
    tol = ambiguity_tol * scale
    ambiguous = False
    # the pairs a < b still to visit, flat index a * n + b: lexicographic
    todo = np.less.outer(np.arange(n), np.arange(n)).ravel()
    while True:
        # delta[a, b] = cost[a, perm[b]] + cost[b, perm[a]]
        #               - cost[a, perm[a]] - cost[b, perm[b]],
        # summed in this order so that ties fall on the same bits as in a
        # pair-by-pair scan
        c = cost[:, perm]
        own = c.diagonal()
        delta = c + c.T - own[:, None] - own[None, :]
        for h in np.flatnonzero(todo & (np.abs(delta.ravel()) < tol)):
            ambiguous = True
            a, b = divmod(h, n)
            # rows a and b of |U^H V| as one (2, n) @ (n, n) product: ties
            # are decided in the last bits, and with OpenBLAS this shape
            # gives the bits of the full product where a (2, 2) one does not
            overlap = np.abs(prev.left[:, [a, b]].conj().T @ next.right)
            kept = overlap[0, perm[a]] + overlap[1, perm[b]]
            swapped = overlap[0, perm[b]] + overlap[1, perm[a]]
            if swapped > kept:
                perm[a], perm[b] = perm[b], perm[a]
                # the swap moves the deltas of the pairs after (a, b)
                todo[:h + 1] = False
                break
        else:
            break
    total = float(cost[np.arange(n), perm].sum())
    return PathMatch(permutation=perm, cost=total, ambiguous=ambiguous)
