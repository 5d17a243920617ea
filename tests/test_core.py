import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from eigendyn import core, models
from eigendyn.errors import DimensionMismatch, NonConvergence, PairingFailure


def random_real(n, seed):
    return np.random.default_rng(seed).standard_normal((n, n))


def biorthogonality_defect(d):
    """max-norm of left^H right - I."""
    return np.max(np.abs(d.left.conj().T @ d.right - np.eye(d.n)))


class TestDecompose:
    def test_diagonal(self):
        d = core.decompose(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(d.eigenvalues, [1.0, 2.0])
        np.testing.assert_allclose(d.right, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(d.left, np.eye(2), atol=1e-14)

    def test_antisymmetric_conjugate_pair(self):
        d = core.decompose([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(sorted(d.eigenvalues, key=lambda z: z.imag),
                                   [-1j, 1j], atol=1e-14)

    def test_residuals_seeded_5x5(self):
        m = random_real(5, 7)
        d = core.decompose(m)
        # the right residual max_j ||M v_j - lambda_j v_j||_2
        residual = np.linalg.norm(m @ d.right - d.right * d.eigenvalues, axis=0)
        assert residual.max() <= 1e-10
        assert biorthogonality_defect(d) <= 1e-8

    def test_sorted_by_re_then_im(self):
        d = core.decompose(random_real(8, 3))
        keys = [(z.real, z.imag) for z in d.eigenvalues]
        assert keys == sorted(keys)

    def test_right_vectors_unit_norm(self):
        d = core.decompose(random_real(6, 11))
        np.testing.assert_allclose(np.linalg.norm(d.right, axis=0), 1.0,
                                   atol=1e-12)
        # LAPACK's phase: the entry of largest |re|^2 + |im|^2 is real, >= 0
        v = d.right
        pivots = v[np.argmax(v.real**2 + v.imag**2, axis=0), np.arange(d.n)]
        assert np.all(pivots.imag == 0.0) and np.all(pivots.real >= 0.0)

    def test_deterministic(self):
        m = random_real(9, 5)
        d1, d2 = core.decompose(m), core.decompose(m)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.right, d2.right)
        assert np.array_equal(d1.left, d2.left)

    @pytest.mark.parametrize("field", ["eigenvalues", "right", "left",
                                       "condition_flags"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_arrays_are_read_only(self, field, stacked):
        m = random_real(4, 8)
        d = core.decompose(np.stack([m, m.T]) if stacked else m)
        array = getattr(d, field)
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = array[..., 1]
        if stacked:
            step = getattr(d[1], field)
            with pytest.raises(ValueError, match="read-only"):
                step[..., 0] = step[..., 1]
            for scalar in ("min_gap", "degenerate"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(d, scalar)[0] = getattr(d, scalar)[1]

    def test_coupling_rows_are_kept_and_read_only(self):
        d = core.decompose(random_real(5, 4))
        u, v = d.left, d.right
        rows = d.coupling_rows(1, 3)
        assert d.coupling_rows(1, 3) is rows
        np.testing.assert_array_equal(rows, [np.kron(u[:, 3].conj(), v[:, 1]),
                                             np.kron(u[:, 1].conj(), v[:, 3])])
        mdot = random_real(5, 9)
        np.testing.assert_allclose(
            rows @ mdot.reshape(-1),
            [u[:, 3].conj() @ mdot @ v[:, 1], u[:, 1].conj() @ mdot @ v[:, 3]],
            rtol=1e-13)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0
        # one pair's rows are kept: another pair's replace them
        np.testing.assert_array_equal(d.coupling_rows(1, 4)[0],
                                      np.kron(u[:, 4].conj(), v[:, 1]))
        np.testing.assert_array_equal(d.coupling_rows(3, 1), rows[::-1])
        assert len(d._rows) == 1
        again = d.coupling_rows(1, 3)
        assert again is not rows
        np.testing.assert_array_equal(again, rows)
        # a decomposition's copy with other vectors keeps no rows of d's
        other = dataclasses.replace(d, left=2.0 * d.left)
        np.testing.assert_array_equal(other.coupling_rows(1, 3), 2.0 * rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_vanishing_overlap_keeps_the_unscaled_left_vector(self):
        # a defective matrix whose overlaps divide to infinity: no numpy
        # warning, and both eigenvalues flagged
        d = core.decompose([[1.0, 5e307], [0.0, 1.0]])
        assert d.condition_flags.all()
        assert np.isfinite(d.left).all()

    def test_degenerate_flagged_not_raised(self):
        d = core.decompose(np.eye(3))
        assert d.degenerate
        assert d.condition_flags.all()

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatch):
            core.decompose(np.ones(shape))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            core.decompose([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_real_spectrum_conjugate_closed(self, seed):
        w = core.decompose(random_real(7, seed)).eigenvalues
        scale = np.max(np.abs(w))
        for z in w:
            assert np.min(np.abs(w - z.conjugate())) <= 1e-9 * scale

    def test_biorthogonality_n50(self):
        d = core.decompose(random_real(50, 2))
        assert biorthogonality_defect(d) <= 1e-8


def _scipy_decompose(m, tol=1e-9):
    """``core.decompose`` on ``scipy.linalg.eig``, one matrix at a time:
    the reference its direct zgeev call and stacked steps reproduce."""
    w, vl, vr = scipy.linalg.eig(np.asarray(m, dtype=complex), left=True,
                                 right=True)
    order = np.lexsort((w.imag, w.real))
    w, vl, vr = w[order], vl[:, order], vr[:, order]
    overlaps = np.einsum("ij,ij->j", vl.conj(), vr)
    safe = np.abs(overlaps) > 0
    scaled = np.divide(vl, overlaps.conj()[None, :], where=safe[None, :],
                       out=vl.astype(complex).copy())
    bad = ~np.all(np.isfinite(scaled), axis=0) | ~safe
    vl = np.where(bad[None, :], vl, scaled)
    gaps = np.abs(w[None, :] - w[:, None]) + np.diag(np.full(len(w), np.inf))
    nearest = gaps.min(axis=0)
    flags = (nearest < tol) | bad
    return core.SpectralDecomposition(w, vr, vl, flags, float(nearest.min()),
                                      bool(flags.any()))


def _ring_stack(n, steps, seed):
    rng = np.random.default_rng(seed)
    base = models.build_omega_le(models.BiophysicalRing(n=n, diffusion=0.8,
                                                        growth=0.2, tilt=0.3))
    rate = rng.normal(0.0, 0.2, n)
    return np.array([base + np.diag(t * rate)
                     for t in np.linspace(0.0, 1.0, steps)])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedDecompose:
    """A (S, n, n) stack decomposes to the bits of S single calls, and a
    single call to the bits of ``scipy.linalg.eig`` with the same steps.
    n >= 9 is where numpy's pairwise summation makes a reduction's order
    depend on the memory layout."""

    @pytest.mark.parametrize("kind,n", [
        *((kind, n) for kind in ("random", "complex")
          for n in (1, 2, 6, 8, 9, 12, 33)),
        *(("ring", n) for n in (3, 6, 8, 9, 12, 33))])
    def test_stack_matches_single_calls(self, kind, n):
        rng = np.random.default_rng(n)
        if kind == "ring":
            ms = _ring_stack(n, 25, n)
        else:
            ms = rng.standard_normal((25, n, n))
            if kind == "complex":
                ms = ms + 1j * rng.standard_normal((25, n, n))
        stacked = core.decompose(ms)
        for s, m in enumerate(ms):
            one, ref = core.decompose(m), _scipy_decompose(m)
            for name in ("eigenvalues", "right", "left", "condition_flags"):
                assert _same_bits(getattr(stacked, name)[s], getattr(one, name)), name
                assert _same_bits(getattr(one, name), getattr(ref, name)), name
            assert stacked.min_gap[s] == one.min_gap == ref.min_gap
            assert stacked.degenerate[s] == one.degenerate == ref.degenerate
            assert _same_bits(stacked[s].right, one.right)

    def test_degenerate_steps_flagged_per_step(self):
        ms = np.array([np.diag([1.0, 2.0]), np.eye(2), np.diag([1.0, 1.0 + 1e-12])])
        d = core.decompose(ms)
        np.testing.assert_array_equal(d.degenerate, [False, True, True])
        assert d.min_gap[0] == 1.0 and d.min_gap[1] == 0.0

    def test_rejects_bad_stacks(self):
        with pytest.raises(DimensionMismatch):
            core.decompose(np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            core.decompose(np.ones((2, 2, 2, 2)))
        with pytest.raises(ValueError):
            core.decompose(np.array([np.eye(2), np.full((2, 2), np.nan)]))

    def test_nonconvergence_raised(self, monkeypatch):
        def failing(a, **kwargs):
            return np.zeros(2, complex), a, a, 1
        monkeypatch.setattr(core, "_ZGEEV", failing)
        with pytest.raises(NonConvergence):
            core.decompose(np.eye(2))


class TestPairConjugates:
    def test_pure_imaginary_pair(self):
        d = core.decompose([[0.0, 1.0], [-1.0, 0.0]])
        p = core.pair_conjugates(d)
        assert p.partner[p.partner[0]] == 0
        assert p.partner[0] != 0

    def test_scalar_self_paired(self):
        d = core.decompose([[3.0]])
        p = core.pair_conjugates(d)
        assert p.partner[0] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_6x6_involution(self, seed):
        d = core.decompose(random_real(6, seed))
        p = core.pair_conjugates(d)
        w = d.eigenvalues
        for j in range(6):
            jb = p.partner[j]
            assert p.partner[jb] == j
            assert abs(w[jb] - w[j].conjugate()) <= 1e-9

    def test_failure_on_complex_spectrum(self):
        d = core.decompose(np.diag([1j, 2j]))
        with pytest.raises(PairingFailure):
            core.pair_conjugates(d)


def _reference_pairing(w, tol):
    """The greedy per-eigenvalue pairing loop: the partners of one
    spectrum, or None where some complex eigenvalue has no partner."""
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
        for i in np.argsort(dist):
            if dist[i] > tol:
                break
            if partner[i] < 0:
                partner[j] = i
                partner[i] = j
                break
        if partner[j] < 0:
            return None
    return partner


_PAIR_TOL = 1e-7
# |Im| at, just above and well above the tolerance
_PAIR_IMS = (1e-7, np.nextafter(1e-7, 1.0), 1.0000001e-7, 1.5e-7, 0.3, 1.0)
# the conjugate's offset from the exact conjugate: within, near and
# beyond the tolerance
_PAIR_OFFSETS = (0.0, 0.0, 0.0, 4e-8, -9e-8, 3e-8j, 7e-8 - 7e-8j, 2e-7)


@st.composite
def conjugate_spectra(draw):
    """(S, n) spectra of real values (|Im| up to tol), conjugate pairs
    whose |Im| sits at or just above tol, pairs whose conjugate is off by
    up to 2 tol, repeated eigenvalues and complex values without a
    partner, in (Re, Im) order as decompose gives them."""
    n, steps = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rows = []
    for _ in range(steps):
        w = []
        while len(w) < n:
            kind = draw(st.sampled_from(["real", "real", "pair", "pair",
                                         "pair", "repeat", "lone"]))
            x = draw(st.sampled_from([-1.0, 0.0, 3e-8, 0.5]))
            if kind == "real":
                w.append(complex(x, draw(st.sampled_from(
                    [0.0, 5e-8, -1e-7, np.nextafter(-1e-7, 0.0)]))))
            elif kind == "pair":
                y = draw(st.sampled_from(_PAIR_IMS))
                w += [complex(x, y),
                      complex(x, -y) + draw(st.sampled_from(_PAIR_OFFSETS))]
            elif kind == "repeat" and w:
                w += w[-draw(st.integers(1, 2)):]
            elif kind == "lone":
                w.append(complex(x, draw(st.sampled_from(_PAIR_IMS))))
        w = np.array(w[:n])
        rows.append(w[np.lexsort((w.imag, w.real))])
    return np.array(rows)


def _spectrum(w):
    # the pairing reads only the eigenvalues
    return core.SpectralDecomposition(w, None, None, None, None, None)


class TestPairingReference:
    """``pair_conjugates`` against the greedy per-eigenvalue loop."""

    @settings(max_examples=300, deadline=None)
    @given(w=conjugate_spectra())
    def test_matches_greedy_loop(self, w):
        stacked = core.pair_conjugates(_spectrum(w))
        for s, row in enumerate(w):
            want = _reference_pairing(row, _PAIR_TOL)
            assert stacked.failed_steps[s] == (want is None)
            if want is None:
                with pytest.raises(PairingFailure):
                    core.pair_conjugates(_spectrum(row))
                # a failed step is self-paired throughout
                np.testing.assert_array_equal(stacked.partner[s],
                                              np.arange(len(row)))
            else:
                got = core.pair_conjugates(_spectrum(row))
                np.testing.assert_array_equal(got.partner, want)
                np.testing.assert_array_equal(stacked.partner[s], want)
                assert not got.failed_steps

    def test_stacked_call_raises_nothing(self):
        w = np.array([[1j, 2j], [-1j, 1j]])
        p = core.pair_conjugates(_spectrum(w))
        np.testing.assert_array_equal(p.failed_steps, [True, False])
        np.testing.assert_array_equal(p.partner, [[0, 1], [1, 0]])
        with pytest.raises(PairingFailure):
            core.pair_conjugates(_spectrum(w[0]))


def brute_force_cost(prev, nxt):
    n = len(prev)
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        c = sum(abs(nxt[perm[i]] - prev[i]) for i in range(n))
        if c < best:
            best, best_perm = c, perm
    return best, np.array(best_perm)


def _assignment_cost(prev, nxt, perm):
    """The total |lambda_next[perm[i]] - lambda_prev[i]| of a match."""
    cost = np.abs(nxt[None, :] - prev[:, None])
    return float(cost[np.arange(len(perm)), perm].sum())


def _reference_match(prev, next, ambiguity_tol=1e-12):
    """The pair-swap scan of ``core.match_paths`` as a Python double loop
    over the full overlap matrix: the reference its array form must
    reproduce bit for bit."""
    n = prev.n
    cost = np.abs(next.eigenvalues[None, :] - prev.eigenvalues[:, None])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(n, dtype=int)
    perm[rows] = cols
    overlap = np.abs(prev.left.conj().T @ next.right)
    scale = max(float(cost.max()), 1.0)
    tol = ambiguity_tol * scale
    ambiguous = False
    for a in range(n):
        for b in range(a + 1, n):
            delta = (
                cost[a, perm[b]] + cost[b, perm[a]]
                - cost[a, perm[a]] - cost[b, perm[b]]
            )
            if abs(delta) < tol:
                ambiguous = True
                kept = overlap[a, perm[a]] + overlap[b, perm[b]]
                swapped = overlap[a, perm[b]] + overlap[b, perm[a]]
                if swapped > kept:
                    perm[a], perm[b] = perm[b], perm[a]
    return core.PathMatch(permutation=perm, ambiguous_steps=ambiguous)


# eigenvalues on a coarse lattice repeat, and lattice moves make the
# assignment cost tie, so the eigenvector overlaps decide swaps.  With
# the non-dyadic levels a tie may hold only to round-off; at the tight
# tolerance the order of the sum in the swap delta then decides it
_LEVELS = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 1.0 + 0.5j, 1.0 - 0.5j)
_SHIFTS = (0.0, 0.1, 0.2, 0.5, 1.0, 1.5, 0.25j)
_TOLS = (1e-12, 1e-17)


@st.composite
def tied_decompositions(draw):
    n = draw(st.integers(2, 8))
    base = core.decompose(random_real(n, draw(st.integers(0, 2**32 - 1))))
    w = np.array(draw(st.lists(st.sampled_from(_LEVELS), min_size=n,
                               max_size=n)), dtype=complex)
    if n >= 3 and draw(st.booleans()):
        w[:3] = w[0]  # a threefold-degenerate block
    order = np.array(draw(st.permutations(range(n))))
    right = base.right[:, order]
    # rotating two columns mixes their overlaps; at pi/4 the kept and
    # swapped overlap sums agree to the last bits
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True))
    theta = draw(st.sampled_from([0.0, np.pi / 4, np.pi / 3, np.pi / 2]))
    c, s = np.cos(theta), np.sin(theta)
    right[:, [i, j]] = right[:, [i, j]] @ np.array([[c, -s], [s, c]])
    if draw(st.booleans()):
        right[:, j] = right[:, i]  # equal columns: the overlaps tie exactly
    prev = dataclasses.replace(base, eigenvalues=w)
    nxt = dataclasses.replace(base, eigenvalues=w[order] + draw(
        st.sampled_from(_SHIFTS)), right=right)
    return prev, nxt, draw(st.sampled_from(_TOLS))


class TestMatchPaths:
    def test_identity_on_identical(self):
        d = core.decompose(random_real(5, 1))
        m = core.match_paths(d, d)
        assert np.array_equal(m.permutation, np.arange(5))
        assert not m.ambiguous

    def test_small_shift_identity(self):
        import dataclasses

        d1 = core.decompose(random_real(5, 4))
        d2 = dataclasses.replace(d1, eigenvalues=d1.eigenvalues + 1e-6)
        m = core.match_paths(d1, d2)
        assert np.array_equal(m.permutation, np.arange(5))
        assert not m.ambiguous

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_assignment(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        d1 = core.decompose(a)
        d2 = core.decompose(a + 0.05 * rng.standard_normal((5, 5)))
        m = core.match_paths(d1, d2)
        best, _ = brute_force_cost(d1.eigenvalues, d2.eigenvalues)
        assert _assignment_cost(d1.eigenvalues, d2.eigenvalues,
                                m.permutation) <= best + 1e-12

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_swap_recovered(self, n):
        # exchange two eigenvalue slots by hand: the optimal assignment
        # is the transposition, found by exhaustive search for n <= 6
        import dataclasses

        d1 = core.decompose(np.random.default_rng(n).standard_normal((n, n)))
        order = np.arange(n)
        order[0], order[-1] = order[-1], order[0]
        d2 = dataclasses.replace(
            d1,
            eigenvalues=d1.eigenvalues[order],
            right=d1.right[:, order],
            left=d1.left[:, order],
            condition_flags=d1.condition_flags[order],
        )
        m = core.match_paths(d1, d2)
        _, best_perm = brute_force_cost(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(m.permutation, order)
        assert np.array_equal(m.permutation, best_perm)

    def test_cost_never_above_identity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((6, 6))
            d1 = core.decompose(a)
            d2 = core.decompose(a + 0.3 * rng.standard_normal((6, 6)))
            m = core.match_paths(d1, d2)
            identity = float(np.abs(d2.eigenvalues - d1.eigenvalues).sum())
            assert _assignment_cost(d1.eigenvalues, d2.eigenvalues,
                                    m.permutation) <= identity + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            core.match_paths(core.decompose(np.eye(2)), core.decompose(np.eye(3)))

    def test_ambiguous_near_degenerate(self):
        d1 = core.decompose(np.diag([1.0, 1.0 + 1e-14]))
        d2 = core.decompose(np.diag([2.0, 2.0 + 1e-14]))
        assert core.match_paths(d1, d2).ambiguous

    @settings(max_examples=300, deadline=None)
    @given(tied_decompositions())
    def test_matches_reference_on_ties(self, case):
        prev, nxt, tol = case
        with mock.patch.object(core, "_AMBIGUITY_TOL", tol):
            got = core.match_paths(prev, nxt)
        want = _reference_match(prev, nxt, tol)
        np.testing.assert_array_equal(got.permutation, want.permutation)
        assert got.ambiguous == want.ambiguous
        w, w_next = prev.eigenvalues, nxt.eigenvalues
        assert (_assignment_cost(w, w_next, got.permutation)
                == _assignment_cost(w, w_next, want.permutation))

    def test_swap_seen_by_later_pairs(self):
        # every cost is 1, so every pair ties and |right| (left = I)
        # decides.  (0, 1) swaps; with perm [1, 0, 2] the pair (0, 2) then
        # keeps 0.5 + 0.6 > 0.9 + 0.1, where on the identity it would
        # have swapped (0.9 + 0.1 > 0.1 + 0.6)
        right = np.array([[0.1, 0.5, 0.9],
                          [0.8, 0.1, 0.1],
                          [0.1, 0.1, 0.6]], dtype=complex)
        base = core.decompose(np.eye(3))
        prev = dataclasses.replace(base, eigenvalues=np.zeros(3, dtype=complex))
        nxt = dataclasses.replace(base, eigenvalues=np.ones(3, dtype=complex),
                                  right=right)
        m = core.match_paths(prev, nxt)
        np.testing.assert_array_equal(m.permutation, [1, 0, 2])
        assert m.ambiguous
        assert _assignment_cost(prev.eigenvalues, nxt.eigenvalues,
                                m.permutation) == 3.0


class TestStackedMatchPaths:
    """A stacked ``next`` matches each step to the one before it, to the
    bits of one call per pair of steps."""

    def _chain(self, prev, stacked):
        return [core.match_paths(prev if s == 0 else stacked[s - 1], stacked[s])
                for s in range(len(stacked.eigenvalues))]

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_ring_chain(self, n):
        ms = _ring_stack(n, 30, n)
        d = core.decompose(ms[1:])
        prev = core.decompose(ms[0])
        got = core.match_paths(prev, d)
        want = self._chain(prev, d)
        w = np.concatenate([prev.eigenvalues[None], d.eigenvalues])
        for s, one in enumerate(want):
            assert _same_bits(got.permutation[s], one.permutation)
            assert (_assignment_cost(w[s], w[s + 1], got.permutation[s])
                    == _assignment_cost(w[s], w[s + 1], one.permutation))
            assert got.ambiguous_steps[s] == one.ambiguous
        assert got.ambiguous == any(one.ambiguous for one in want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tied_decompositions(), min_size=1, max_size=4))
    def test_tied_chain(self, cases):
        # steps of tied decompositions of one size, each matched to the
        # step before: swaps happen on some steps and not on others
        n = cases[0][0].n
        steps = [nxt for prev, nxt, tol in cases if nxt.n == n]
        stacked = core.SpectralDecomposition(
            np.array([d.eigenvalues for d in steps]),
            np.array([d.right for d in steps]),
            np.array([d.left for d in steps]),
            np.array([d.condition_flags for d in steps]),
            np.array([d.min_gap for d in steps]),
            np.array([d.degenerate for d in steps]))
        prev, tol = cases[0][0], cases[0][2]
        with mock.patch.object(core, "_AMBIGUITY_TOL", tol):
            got = core.match_paths(prev, stacked)
            chain = self._chain(prev, stacked)
        w = np.concatenate([prev.eigenvalues[None], stacked.eigenvalues])
        for s, one in enumerate(chain):
            assert _same_bits(got.permutation[s], one.permutation)
            assert (_assignment_cost(w[s], w[s + 1], got.permutation[s])
                    == _assignment_cost(w[s], w[s + 1], one.permutation))
            assert got.ambiguous_steps[s] == one.ambiguous
