"""Dense eigendecomposition with biorthonormal left/right eigenvectors.

For a general (non-Hermitian) square matrix M the right and left
eigenvectors differ:

    M v_j = lambda_j v_j,        u_j^H M = lambda_j u_j^H.

The right vectors are LAPACK zgeev's (unit 2-norm, largest entry real and
>= 0); each left vector is divided by its overlap so that ``u_j^H v_j = 1``:
the biorthogonal scaling lives entirely in the left set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs
from scipy.optimize import linear_sum_assignment

from .errors import (DimensionMismatch, NonConvergence, NonFiniteMatrix,
                     PairingFailure)

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


def as_square_matrix(entries, stacked: bool = False) -> np.ndarray:
    """Validate and return a finite, non-empty complex square matrix;
    with ``stacked``, a (S, n, n) stack of them is accepted too."""
    m = np.asarray(entries, dtype=complex)
    if (m.ndim not in ((2, 3) if stacked else (2,))
            or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0):
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != m.size:
        raise NonFiniteMatrix("matrix contains NaN/Inf entries")
    return m


def is_real(m):
    """True when every imaginary part is at most 1e-10 (absolute); one
    answer per matrix of a (S, n, n) stack."""
    m = np.asarray(m, dtype=complex)
    return np.max(np.abs(m.imag), axis=(-2, -1), initial=0.0) <= 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with biorthonormalized left/right eigenvector sets.

    ``right[:, j]`` is zgeev's unit-norm right vector of ``eigenvalues[j]``;
    ``left[:, j]`` the matching left vector scaled so left^H right = I.
    ``condition_flags[j]`` marks eigenvalues whose nearest neighbour in
    the spectrum is closer than 1e-9, and left vectors kept unscaled
    because their division was not finite.  A stacked decomposition
    carries a leading step axis on every field; ``d[s]`` is step s.

    The arrays are never changed after construction: :func:`decompose`
    returns them read-only, and a decomposition built by hand must leave
    its arrays as they are too, because the rows of
    :meth:`coupling_rows` are kept on it.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    condition_flags: np.ndarray
    min_gap: float
    degenerate: bool
    _rows: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]

    def coupling_rows(self, j: int, i: int) -> np.ndarray:
        """The read-only (2, n**2) rows [conj(u_i) (x) v_j, conj(u_j) (x) v_i]
        of a single decomposition: ``rows @ Mdot.reshape(-1)`` is
        (u_i^H Mdot v_j, u_j^H Mdot v_i).  Built on a call for (j, i) and
        kept until a call for another pair."""
        rows = self._rows.get((j, i))
        if rows is None:
            # both outer products as one (2, n, n) product
            rows = (self.left[:, [i, j]].conj().T[:, :, None]
                    * self.right[:, [j, i]].T[:, None, :]).reshape(2, -1)
            rows.setflags(write=False)
            # one pair's rows: every pair's would take 32 n**3 bytes
            self._rows.clear()
            self._rows[j, i] = rows
        return rows

    def __getitem__(self, s) -> "SpectralDecomposition":
        return SpectralDecomposition(
            self.eigenvalues[s], self.right[s], self.left[s],
            self.condition_flags[s], self.min_gap[s], self.degenerate[s])


@dataclass(frozen=True)
class ConjugatePairing:
    """For each index j, the index of the eigenvalue closest to
    conj(lambda_j).  Real eigenvalues are self-paired.  A pairing over a
    step axis carries it on ``partner`` and ``failed_steps``; a failed
    step is self-paired throughout."""

    partner: np.ndarray  # int array, involutive
    failed_steps: np.ndarray = np.False_


@dataclass(frozen=True)
class PathMatch:
    """Assignment of eigenvalue indices across two snapshots.

    ``permutation[i]`` is the index in the next decomposition matched to
    index ``i`` of the previous one.  ``ambiguous_steps`` is set where a
    pair swap changes the total cost by less than ``tol`` (collision
    vicinity).  A match over a step axis carries it on every field.
    """

    permutation: np.ndarray
    ambiguous_steps: np.ndarray

    @property
    def ambiguous(self) -> bool:
        """Whether any step's match is ambiguous."""
        return bool(np.any(self.ambiguous_steps))


_PAIR_TOL = 1e-7  # the conjugate-pairing distance of pair_conjugates
_ZGEEV, _ZGEEV_LWORK = get_lapack_funcs(("geev", "geev_lwork"),
                                        dtype=np.complex128)


@functools.cache
def _zgeev_lwork(n: int) -> int:
    # the workspace scipy.linalg.eig asks for: zgeev's blocking, and so
    # its bits, depend on it
    work, _ = _ZGEEV_LWORK(n, compute_vl=1, compute_vr=1)
    return int(work.real)


def decompose(m) -> SpectralDecomposition:
    """Full eigendecomposition with biorthonormal left/right vectors.

    Eigenvalues are sorted by (Re, Im) for determinism; with the right
    vectors they are scipy.linalg.eig's bit for bit.  Near-degenerate
    pairs (gap below 1e-9) are flagged, never repaired: the force
    formulas carry 1/(lambda_i - lambda_j) singularities and this library
    reports them rather than regularizing.

    ``m`` may be a (S, n, n) stack: LAPACK's zgeev runs once per matrix,
    the rest once over the stack, and every field gains the step axis.

    Raises NonConvergence if LAPACK fails.
    """
    m = as_square_matrix(m, stacked=True)
    steps, n = m.shape[:-2], m.shape[-1]
    lwork = _zgeev_lwork(n)
    w = np.empty(steps + (n,), dtype=complex)
    vl = np.empty(steps + (n, n), dtype=complex)
    vr = np.empty(steps + (n, n), dtype=complex)
    for s in np.ndindex(steps):
        w[s], vl[s], vr[s], info = _ZGEEV(m[s], compute_vl=1, compute_vr=1,
                                          lwork=lwork)
        if info:
            raise NonConvergence(f"zgeev did not converge (info={info})")

    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    vl = np.take_along_axis(vl, order[..., None, :], axis=-1)
    right = np.take_along_axis(vr, order[..., None, :], axis=-1)

    # the one step decompose adds: left^H right = I on the diagonal.  A
    # near-defective pair's overlap vanishes: a column not finite after
    # the division keeps its unscaled left vector (and is flagged below)
    overlaps = np.einsum("...ij,...ij->...j", vl.conj(), right)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        left = vl / overlaps.conj()[..., None, :]
    bad = ~np.all(np.isfinite(left), axis=-2)
    np.copyto(left, vl, where=bad[..., None, :])

    gaps = np.abs(w[..., None, :] - w[..., :, None]) + np.diag(np.full(n, np.inf))
    nearest = gaps.min(axis=-2, initial=np.inf)
    flags = (nearest < 1e-9) | bad
    min_gap = nearest.min(axis=-1, initial=np.inf)
    degenerate = flags.any(axis=-1)
    for a in (w, right, left, flags, min_gap, degenerate):
        if isinstance(a, np.ndarray):  # a single step's last two are scalars
            a.setflags(write=False)

    return SpectralDecomposition(
        eigenvalues=w,
        right=right,
        left=left,
        condition_flags=flags,
        min_gap=min_gap,
        degenerate=degenerate,
    )


def pair_conjugates(d: SpectralDecomposition) -> ConjugatePairing:
    """Pair each eigenvalue with its complex conjugate.

    Requires the spectrum of a real matrix (conjugate-closed).  Eigenvalues
    with |Im| <= ``_PAIR_TOL`` = 1e-7 are self-paired.  Raises PairingFailure
    when some complex eigenvalue has no partner within ``_PAIR_TOL``.

    ``d`` may be stacked: a step whose every complex eigenvalue has one
    candidate within ``_PAIR_TOL``, itself complex, is paired from the
    (S, n, n) distances; the greedy loop runs only on the other steps.
    A stacked call raises nothing: ``failed_steps`` marks the steps with
    no pairing.
    """
    w = d.eigenvalues
    n = w.shape[-1]
    index = np.arange(n)
    # near[..., j, i]: lambda_i, i != j, lies within the tolerance of
    # conj(lambda_j).  |a - conj(b)| and |b - conj(a)| are the same float,
    # so near is symmetric and a sole candidate chooses j back
    near = np.abs(w[..., None, :] - w.conj()[..., :, None]) <= _PAIR_TOL
    near[..., index, index] = False
    complex_ = np.abs(w.imag) > _PAIR_TOL
    cand = near.argmax(axis=-1)
    direct = np.all(~complex_ | ((near.sum(axis=-1) == 1)
                                 & np.take_along_axis(complex_, cand, axis=-1)),
                    axis=-1)
    partner = np.where(complex_, cand, index)
    failed = np.zeros(w.shape[:-1], dtype=bool)
    for s in map(tuple, np.argwhere(~direct)):
        try:
            partner[s] = _pair_greedy(w[s])
        except PairingFailure:
            if not s:
                raise
            failed[s] = True
            partner[s] = index
    return ConjugatePairing(partner=partner, failed_steps=failed)


def _pair_greedy(w: np.ndarray) -> np.ndarray:
    """One spectrum's partners, eigenvalue by eigenvalue, each complex
    one taking its nearest still unpaired candidate."""
    n = len(w)
    partner = np.full(n, -1, dtype=int)
    for j in range(n):
        if partner[j] >= 0:
            continue
        if abs(w[j].imag) <= _PAIR_TOL:
            partner[j] = j
            continue
        dist = np.abs(w - w[j].conjugate())
        dist[j] = np.inf
        # prefer still-unpaired candidates
        for i in np.argsort(dist):
            if dist[i] > _PAIR_TOL:
                break
            if partner[i] < 0:
                partner[j] = i
                partner[i] = j
                break
        if partner[j] < 0:
            raise PairingFailure(f"eigenvalue {w[j]} has no conjugate partner "
                                 f"within {_PAIR_TOL}")
    return partner


_AMBIGUITY_TOL = 1e-12  # the ties of match_paths


def match_paths(prev: SpectralDecomposition,
                next: SpectralDecomposition) -> PathMatch:
    """Match eigenvalue indices across time steps.

    Minimizes the total |lambda_next - lambda_prev| assignment cost.  A
    pair of indices whose swap changes the total cost by less than
    ``_AMBIGUITY_TOL`` times the scale of the spectrum is a tie (the
    signature of a collision vicinity): it flags the match as ambiguous
    and is swapped when that raises the left/right eigenvector overlap.
    Tied pairs (a, b), a < b, are visited in lexicographic order, and
    each swap is seen by every pair after it.

    ``next`` may be a stacked decomposition: its step s is then matched
    to its step s - 1, and its first step to ``prev``.  The assignment
    and the tie scan run per step, the costs and swap deltas once.
    """
    if prev.n != next.n:
        raise DimensionMismatch("decompositions have different dimensions")
    n = next.n
    w = next.eigenvalues
    before = (prev.eigenvalues if w.ndim == 1
              else np.concatenate([prev.eigenvalues[None], w[:-1]]))
    cost = np.abs(w[..., None, :] - before[..., :, None])
    perm = np.empty(w.shape, dtype=int)
    for s in np.ndindex(w.shape[:-1]):
        perm[s] = linear_sum_assignment(cost[s])[1]

    tol = _AMBIGUITY_TOL * np.maximum(cost.max(axis=(-2, -1)), 1.0)
    tied = np.less.outer(np.arange(n), np.arange(n)) & (
        np.abs(_swap_deltas(cost, perm)) < tol[..., None, None])
    ambiguous = tied.any(axis=(-2, -1))
    for s in map(tuple, np.argwhere(ambiguous)):
        left = prev.left if not s or s[0] == 0 else next.left[s[0] - 1]
        _break_ties(cost[s], perm[s], tol[s], left, next.right[s])
    return PathMatch(permutation=perm, ambiguous_steps=ambiguous)


def _swap_deltas(cost: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """delta[a, b] = cost[a, perm[b]] + cost[b, perm[a]]
    - cost[a, perm[a]] - cost[b, perm[b]], summed in this order so that
    ties fall on the same bits as in a pair-by-pair scan."""
    c = np.take_along_axis(cost, perm[..., None, :], axis=-1)
    own = np.diagonal(c, axis1=-2, axis2=-1)
    return c + c.swapaxes(-1, -2) - own[..., :, None] - own[..., None, :]


def _break_ties(cost, perm, tol, left, right) -> None:
    """Swap the tied pairs of one step's ``perm`` in place, in
    lexicographic order, where a swap raises the overlap |U^H V|."""
    n = len(perm)
    # the pairs a < b still to visit, flat index a * n + b: lexicographic
    todo = np.less.outer(np.arange(n), np.arange(n)).ravel()
    while True:
        delta = _swap_deltas(cost, perm)
        for h in np.flatnonzero(todo & (np.abs(delta.ravel()) < tol)):
            a, b = divmod(h, n)
            # rows a and b of |U^H V| as one (2, n) @ (n, n) product: ties
            # are decided in the last bits, and with OpenBLAS this shape
            # gives the bits of the full product where a (2, 2) one does not
            overlap = np.abs(left[:, [a, b]].conj().T @ right)
            kept = overlap[0, perm[a]] + overlap[1, perm[b]]
            swapped = overlap[0, perm[b]] + overlap[1, perm[a]]
            if swapped > kept:
                perm[a], perm[b] = perm[b], perm[a]
                # the swap moves the deltas of the pairs after (a, b)
                todo[:h + 1] = False
                break
        else:
            return
