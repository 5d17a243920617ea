import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from eigendyn import core, dynamics, engine, models
from eigendyn.dynamics import MatrixTrajectory
from eigendyn.errors import (DimensionMismatch, NonFiniteMatrix, PairingFailure,
                             RealEigenvalue, SingularGap)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def fd_velocity(traj, d0, t, delta=1e-4):
    """Central difference of path-matched eigenvalues."""
    wm = _matched(traj, d0, t - delta)
    wp = _matched(traj, d0, t + delta)
    return (wp - wm) / (2 * delta)


def fd_acceleration(traj, d0, t, delta=1e-3):
    wm = _matched(traj, d0, t - delta)
    wp = _matched(traj, d0, t + delta)
    return (wp - 2 * d0.eigenvalues + wm) / delta**2


def _matched(traj, ref, tq):
    dq = core.decompose(traj.value(tq))
    return dq.eigenvalues[core.match_paths(ref, dq).permutation]


class TestVelocity:
    def test_diagonal_family(self):
        traj = MatrixTrajectory.polynomial(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        d = core.decompose(traj.value(0.0))
        assert dynamics.eigen_velocity(d, traj.first_derivative(0.0), 0) == pytest.approx(3.0)
        assert dynamics.eigen_velocity(d, traj.first_derivative(0.0), 1) == pytest.approx(4.0)

    def test_zero_mdot(self):
        d = core.decompose(np.random.default_rng(0).standard_normal((4, 4)))
        for j in range(4):
            assert dynamics.eigen_velocity(d, np.zeros((4, 4)), j) == 0

    def test_mdot_of_another_size(self):
        d = core.decompose(np.eye(2))
        with pytest.raises(DimensionMismatch, match=r"Mdot has shape \(3, 3\)"):
            dynamics.eigen_velocity(d, np.eye(3), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_fd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        traj = MatrixTrajectory.polynomial(*rng.standard_normal((2, 6, 6)))
        t = 0.2
        d = core.decompose(traj.value(t))
        fd = fd_velocity(traj, d, t)
        for j in range(6):
            vel = dynamics.eigen_velocity(d, traj.first_derivative(t), j)
            assert abs(vel - fd[j]) / abs(fd[j]) <= 1e-6

    def test_conjugate_partners_conjugate_velocities(self):
        rng = np.random.default_rng(9)
        traj = MatrixTrajectory.polynomial(*rng.standard_normal((2, 6, 6)))
        d = core.decompose(traj.value(0.1))
        pair = core.pair_conjugates(d)
        mdot = traj.first_derivative(0.1)
        for j in range(6):
            vj = dynamics.eigen_velocity(d, mdot, j)
            vjb = dynamics.eigen_velocity(d, mdot, int(pair.partner[j]))
            assert abs(vjb - np.conjugate(vj)) <= 1e-10


class TestAcceleration:
    def test_commuting_diagonal_family(self):
        a, b, c = np.diag([1.0, 2.0]), np.diag([0.5, -0.5]), np.diag([3.0, 7.0])
        traj = MatrixTrajectory.polynomial(a, b, c)
        d = core.decompose(traj.value(0.0))
        bd = dynamics.eigen_acceleration(d, traj.first_derivative(0.0),
                                         traj.second_derivative(0.0), 0)
        assert bd.total == pytest.approx(6.0)
        assert bd.inertial == pytest.approx(6.0)
        assert bd.others == 0
        assert bd.conjugate_term == 0

    def test_pure_conjugate_pair(self):
        # 2x2 conjugate pair with Mddot = 0: the whole acceleration is
        # the conjugate-partner term
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        mdot = np.diag([1.0, 0.0])
        d = core.decompose(m)
        pair = core.pair_conjugates(d)
        bd = dynamics.eigen_acceleration(d, mdot, np.zeros((2, 2)), 0, pairing=pair)
        assert bd.inertial == 0
        assert bd.others == 0
        assert bd.total == bd.conjugate_term != 0

    @pytest.mark.parametrize("seed", range(3))
    def test_fd_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        traj = MatrixTrajectory.polynomial(*rng.standard_normal((3, 6, 6)))
        t = 0.15
        d = core.decompose(traj.value(t))
        fd = fd_acceleration(traj, d, t)
        for j in range(6):
            bd = dynamics.eigen_acceleration(d, traj.first_derivative(t),
                                             traj.second_derivative(t), j)
            assert abs(bd.total - fd[j]) / abs(fd[j]) <= 1e-4

    def test_additivity_exact(self):
        rng = np.random.default_rng(21)
        traj = MatrixTrajectory.polynomial(*rng.standard_normal((3, 6, 6)))
        d = core.decompose(traj.value(0.3))
        pair = core.pair_conjugates(d)
        for j in range(6):
            bd = dynamics.eigen_acceleration(d, traj.first_derivative(0.3),
                                             traj.second_derivative(0.3), j,
                                             pairing=pair)
            total = bd.inertial + bd.conjugate_term + bd.others
            assert abs(bd.total - total) <= 1e-12 * max(abs(total), 1.0)

    def test_conjugate_partners_conjugate_accelerations(self):
        rng = np.random.default_rng(31)
        traj = MatrixTrajectory.polynomial(*rng.standard_normal((3, 6, 6)))
        d = core.decompose(traj.value(0.1))
        pair = core.pair_conjugates(d)
        for j in range(6):
            bj = dynamics.eigen_acceleration(d, traj.first_derivative(0.1),
                                             traj.second_derivative(0.1), j,
                                             pairing=pair).total
            bjb = dynamics.eigen_acceleration(d, traj.first_derivative(0.1),
                                              traj.second_derivative(0.1),
                                              int(pair.partner[j]),
                                              pairing=pair).total
            assert abs(bjb - np.conjugate(bj)) <= 1e-10 * max(abs(bj), 1.0)

    def test_singular_gap_raises_with_pair(self):
        d = core.decompose(np.diag([1.0, 1.0 + 1e-15, 3.0]))
        with pytest.raises(SingularGap) as err:
            dynamics.eigen_acceleration(d, np.ones((3, 3)), np.zeros((3, 3)), 0)
        assert err.value.pair == (1, 0)

    def test_singular_gap_is_the_runs(self):
        # a gap of 3e-13 is not singular: eigen_acceleration gives the
        # "others" a run records on the same decomposition
        cfg = engine.ScenarioConfig.from_dict({
            "model": {"type": "explicit",
                      "matrix": [[1, 0, 0], [0, 1.0000000000003, 0], [0, 0, 3]],
                      "velocity": [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6],
                                   [0.7, 0.8, 0.9]]},
            "time": {"t0": 0, "t1": 1e-6, "steps": 2}})
        record = engine.run_scenario(cfg)
        m, mdot, mddot = engine.build_trajectory(cfg).at(cfg.t0)
        d = core.decompose(m)
        for j in (0, 1):
            others = dynamics.eigen_acceleration(d, mdot, mddot, j).others
            assert abs(others) > 1e11
            assert others == pytest.approx(record.others[0, j], rel=1e-12)

    @pytest.mark.parametrize("j, pair", [(0, (1, 0)), (1, (0, 1)), (2, (0, 2))])
    def test_singular_gap_reports_first_index(self, j, pair):
        # a threefold near-tie: the pair names the lowest other index
        d = core.decompose(np.diag([1.0, 3.0, 1.0 + 1e-15, 1.0 - 1e-15]))
        with pytest.raises(SingularGap) as err:
            dynamics.eigen_acceleration(d, np.ones((4, 4)), np.zeros((4, 4)), j)
        assert err.value.pair == pair


def kernel_case(n, seed, t):
    """Decomposition, Mdot, Mddot and pairing of a random real
    M(t) = A + t B + t^2 C."""
    traj = MatrixTrajectory.polynomial(
        *np.random.default_rng(seed).standard_normal((3, n, n)))
    d = core.decompose(traj.value(t))
    try:
        partner = core.pair_conjugates(d).partner
    except PairingFailure:
        partner = None
    return d, traj.first_derivative(t), traj.second_derivative(t), partner


def kernel(d, mdot, mddot, cols, partner):
    return dynamics.force_columns(d.left, d.right, d.eigenvalues, mdot, mddot,
                                  cols, partner)


def reference_terms(d, mdot, mddot, j, partner):
    """The acceleration sum for one j as a plain loop over i."""
    u, v, w = d.left, d.right, d.eigenvalues
    inertial = u[:, j].conj() @ mddot @ v[:, j]
    conj, others, scale = 0j, 0j, abs(inertial)
    for i in range(d.n):
        if i == j:
            continue
        term = 2.0 * (u[:, i].conj() @ mdot @ v[:, j]) * (
            u[:, j].conj() @ mdot @ v[:, i]) / (w[j] - w[i])
        scale += abs(term)
        if partner is not None and i == partner[j]:
            conj = term
        else:
            others += term
    return u[:, j].conj() @ mdot @ v[:, j], inertial, conj, others, scale


cases = given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
              t=st.floats(-1.0, 1.0))


class TestForceColumns:
    """Invariants of the whole-spectrum kernel.  Round-off grows with the
    eigenvector condition numbers ||u_j||, so tolerances scale with them."""

    @settings(max_examples=60, deadline=None)
    @cases
    def test_matches_loop_reference(self, n, seed, t):
        # the kernel sums in another order: equal to round-off of the terms
        d, mdot, mddot, partner = kernel_case(n, seed, t)
        f = kernel(d, mdot, mddot, np.arange(n), partner)
        for j in range(n):
            vel, inertial, conj, others, scale = reference_terms(
                d, mdot, mddot, j, partner)
            tol = 1e-12 * (scale + abs(vel))
            assert abs(f.velocity[j] - vel) <= tol
            assert abs(f.inertial[j] - inertial) <= tol
            assert abs(f.conjugate_term[j] - conj) <= tol
            assert abs(f.others[j] - others) <= tol

    @settings(max_examples=60, deadline=None)
    @cases
    def test_velocities_sum_to_trace(self, n, seed, t):
        d, mdot, mddot, partner = kernel_case(n, seed, t)
        f = kernel(d, mdot, mddot, np.arange(n), partner)
        scale = np.linalg.norm(mdot) * (np.linalg.norm(d.left) ** 2 + 1.0)
        assert abs(f.velocity.sum() - np.trace(mdot)) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @cases
    def test_accelerations_sum_to_trace(self, n, seed, t):
        # T is antisymmetric, so the pairwise terms cancel in the sum
        d, mdot, mddot, partner = kernel_case(n, seed, t)
        f = kernel(d, mdot, mddot, np.arange(n), partner)
        assert (f.singular < 0).all()
        scale = (np.linalg.norm(mddot) * (np.linalg.norm(d.left) ** 2 + 1.0)
                 + np.abs(f.pairwise).sum())
        assert abs(f.total.sum() - np.trace(mddot)) <= 1e-10 * scale
        np.testing.assert_allclose(f.pairwise, -f.pairwise.T, rtol=1e-10,
                                   atol=1e-12 * np.abs(f.pairwise).max())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           t=st.floats(-1.0, 1.0), data=st.data())
    def test_subset_matches_full(self, n, seed, t, data):
        d, mdot, mddot, partner = kernel_case(n, seed, t)
        cols = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)),
                        dtype=int)
        full = kernel(d, mdot, mddot, np.arange(n), partner)
        part = kernel(d, mdot, mddot, cols, partner)
        np.testing.assert_array_equal(part.cols, cols)
        np.testing.assert_array_equal(part.singular, full.singular[cols])
        # C is formed whole for any cols: the same bits
        for name in ("velocity", "conjugate_term", "others"):
            got, want = getattr(part, name), getattr(full, name)[cols]
            assert got.tobytes() == want.tobytes(), name
        assert part.pairwise.tobytes() == full.pairwise[:, cols].tobytes()
        scale = 1e-12 * max(np.abs(full.inertial).max(), 1.0)
        np.testing.assert_allclose(part.inertial, full.inertial[cols],
                                   rtol=1e-12, atol=scale)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           t=st.floats(-1.0, 1.0), data=st.data())
    def test_whole_spectrum_columns(self, n, seed, t, data):
        # n columns that are not arange(n): a permutation, or indices with
        # repeats, under a non-diagonal complex Mdot and a nonzero Mddot
        d, mdot, mddot, partner = kernel_case(n, seed, t)
        mdot = mdot + 1j * np.random.default_rng(seed).standard_normal((n, n))
        assert np.abs(mddot).max() > 0
        cols = np.array(data.draw(st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n))), dtype=int)
        f = kernel(d, mdot, mddot, cols, partner)
        np.testing.assert_array_equal(f.cols, cols)
        for c, j in enumerate(cols):
            vel, inertial, conj, others, scale = reference_terms(
                d, mdot, mddot, j, partner)
            tol = 1e-12 * (scale + abs(vel))
            assert abs(f.velocity[c] - vel) <= tol
            assert abs(f.inertial[c] - inertial) <= tol
            assert abs(f.conjugate_term[c] - conj) <= tol
            assert abs(f.others[c] - others) <= tol

            one = kernel(d, mdot, mddot, [j], partner)
            assert f.singular[c] == one.singular[0]
            assert abs(f.inertial[c] - one.inertial[0]) <= tol
            for name in ("velocity", "conjugate_term", "others"):
                got, want = getattr(f, name)[c], getattr(one, name)[0]
                assert got.tobytes() == want.tobytes(), name
            assert f.pairwise[:, c].tobytes() == one.pairwise[:, 0].tobytes()

    def test_conjugate_term_is_conjugate_force(self):
        d, mdot, mddot, partner = kernel_case(8, 3, 0.2)
        pairing = core.ConjugatePairing(partner=partner)
        cols = np.flatnonzero(partner != np.arange(8))
        assert len(cols)
        f = kernel(d, mdot, mddot, cols, partner)
        for c, j in enumerate(cols):
            want = dynamics.conjugate_force(d, pairing, mdot, j)
            assert abs(f.conjugate_term[c] - want) <= 1e-12 * abs(want)
            assert f.total[c] == pytest.approx(
                dynamics.eigen_acceleration(d, mdot, mddot, j, pairing).total,
                rel=1e-12)

    def test_singular_pairs_zeroed(self):
        # sorted spectrum 1, 1, 1, 3: the first three are mutually singular
        d = core.decompose(np.diag([1.0, 3.0, 1.0 + 1e-15, 1.0 - 1e-15]))
        f = kernel(d, np.ones((4, 4)), np.zeros((4, 4)), np.arange(4), None)
        np.testing.assert_array_equal(f.singular, [1, 0, 0, -1])
        np.testing.assert_array_equal(f.pairwise[:3, :3], np.zeros((3, 3)))
        assert np.all(np.isfinite(f.pairwise))


def bordered_terms(m, mdot, lam, partner_value):
    """Velocity, conjugate term and others of the simple eigenvalue
    ``lam`` of a real M, with no other eigenvector formed (Nelson, AIAA
    J. 14, 1201 (1976)).

    v and u come from two steps of inverse iteration on one LU of
    lam I - M, scaled so that u^H v = 1; conj(v) and conj(u) belong to
    the partner.  ``others`` is 2 u^H Mdot x, with x the solution of the
    doubly bordered system [[lam I - M, v, conj(v)], [u^H, 0, 0],
    [u^T, 0, 0]] [x; mu] = [P Mdot v; 0; 0], P = I - v u^H - conj(v) u^T:
    the reduced resolvent with lam and its conjugate both projected out,
    so nothing cancels near the axis.
    """
    n = len(m)
    a = lam * np.eye(n) - m
    lu = scipy.linalg.lu_factor(a)
    v = u = np.ones(n, dtype=complex)
    for _ in range(2):
        v = scipy.linalg.lu_solve(lu, v)
        v = v / np.linalg.norm(v)
        u = scipy.linalg.lu_solve(lu, u, trans=2)
        u = u / np.linalg.norm(u)
    u = u / np.conj(u.conj() @ v)
    vb, ub = v.conj(), u.conj()
    b = mdot @ v
    bordered = np.zeros((n + 2, n + 2), dtype=complex)
    bordered[:n, :n], bordered[:n, n], bordered[:n, n + 1] = a, v, vb
    bordered[n, :n], bordered[n + 1, :n] = u.conj(), ub.conj()
    rhs = np.concatenate([b - v * (u.conj() @ b) - vb * (ub.conj() @ b), [0, 0]])
    # the bordered matrix is well conditioned; P applied to a solve on the
    # LU of lam I - M would cancel a component of size 1/|lam - conj(lam)|
    x = scipy.linalg.solve(bordered, rhs)[:n]
    # the partner's eigenvalue as the decomposition has it: the gap is
    # the kernel's input, and only the vectors are derived independently
    conj = (2.0 * (u.conj() @ mdot @ vb) * (ub.conj() @ mdot @ v)
            / (lam - partner_value))
    return u.conj() @ b, conj, 2.0 * (u.conj() @ mdot @ x)


def _disordered_ring(n, seed):
    """M and Mdot of a tilted ring with site and rate disorder
    (sigma = 0.1) at t = 0."""
    rng = np.random.default_rng(seed)
    m = (models.build_omega_le(models.BiophysicalRing(n, 1.0, 0.1, 0.03))
         + np.diag(rng.normal(0.0, 0.1, n)))
    return m, np.diag(rng.normal(0.0, 0.1, n))


_NEAR_REAL = 2e-7j  # above core._PAIR_TOL, so the pair is paired


def _near_real_pair():
    """The pair +-2e-7 i as a rotation block beside a random 6 x 6 block:
    zgeev and the LU find its vectors to round-off of the pair's own
    scale, so only the kernel's sums can lose digits."""
    rng = np.random.default_rng(2)
    eta = _NEAR_REAL.imag
    m = scipy.linalg.block_diag([[0.0, eta], [-eta, 0.0]],
                                rng.standard_normal((6, 6)))
    return m, rng.standard_normal((8, 8))


BORDERED_CASES = {"ring64": lambda: _disordered_ring(64, 1),
                  "ring128": lambda: _disordered_ring(128, 2),
                  "near-real": _near_real_pair}


def check_bordered(case):
    """``force_columns`` against the bordered solves, each term within
    1e-12 of its own modulus: on a ring the three paths of largest
    Im lambda, on the near-real case the path at +2e-7 i."""
    m, mdot = BORDERED_CASES[case]()
    d = core.decompose(m)
    w = d.eigenvalues
    partner = core.pair_conjugates(d).partner
    if case == "near-real":
        cols = [int(np.argmin(np.abs(w - _NEAR_REAL)))]
        assert 0 < w[cols[0]].imag <= 1e-5
    else:
        cols = np.argsort(-w.imag)[:3]
    f = dynamics.force_columns(d.left, d.right, w, mdot, np.zeros_like(mdot),
                               cols, partner)
    for c, j in enumerate(cols):
        assert partner[j] != j
        want = bordered_terms(m, mdot, w[j], w[partner[j]])
        got = (f.velocity[c], f.conjugate_term[c], f.others[c])
        for name, a, b in zip(("velocity", "conjugate_term", "others"), got, want):
            assert abs(a - b) <= 1e-12 * abs(b), (name, j, a, b)


class TestBorderedSolves:
    """The kernel's velocity, conjugate term and others against a
    derivation that forms no other eigenvector than lambda's own."""

    @pytest.mark.parametrize("case", sorted(BORDERED_CASES))
    def test_matches_force_columns(self, case):
        check_bordered(case)

    def test_fails_on_others_by_subtraction(self, monkeypatch):
        kernel = dynamics.force_columns

        def subtracting(*args):
            f = kernel(*args)
            return dataclasses.replace(
                f, others=f.pairwise.sum(axis=-2) - f.conjugate_term)

        monkeypatch.setattr(dynamics, "force_columns", subtracting)
        with pytest.raises(AssertionError, match="others"):
            check_bordered("near-real")

    def test_fails_without_the_factor_2(self, monkeypatch):
        kernel = dynamics.force_columns

        def halved(*args):
            # the kernel with T[i, j] = C[i, j] C[j, i] / (lambda_j - lambda_i)
            f = kernel(*args)
            return dataclasses.replace(f, pairwise=f.pairwise / 2,
                                       conjugate_term=f.conjugate_term / 2,
                                       others=f.others / 2)

        monkeypatch.setattr(dynamics, "force_columns", halved)
        with pytest.raises(AssertionError, match="conjugate_term"):
            check_bordered("ring64")


INVARIANCE_CASES = 200


def invariance_case(seed):
    """A seeded real (M, Mdot, Mddot) with n = 2..8, and a similarity S,
    Gaussian + 3I."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 7
    m, mdot, mddot, s = rng.standard_normal((4, n, n))
    return m, mdot, mddot, s + 3.0 * np.eye(n)


def whole_spectrum_terms(m, mdot, mddot):
    """Eigenvalues; velocity, inertial, conjugate term and others of every
    eigenvalue as a (4, n) array; the largest term; kappa = max ||u_j||."""
    d = core.decompose(m)
    partner = core.pair_conjugates(d).partner
    f = kernel(d, mdot, mddot, np.arange(d.n), partner)
    terms = np.array([f.velocity, f.inertial, f.conjugate_term, f.others])
    largest = max(np.abs(terms).max(), np.abs(f.pairwise).max())
    return d.eigenvalues, terms, largest, np.linalg.norm(d.left, axis=0).max()


def check_invariance(relation):
    """Every term of M, Mdot, Mddot against those of S M S^-1, ... or of
    the transposes, within 4.1e-13 cond(S) kappa^2 or 1.4e-13 kappa^2 of
    the largest term, over INVARIANCE_CASES cases."""
    for seed in range(INVARIANCE_CASES):
        m, mdot, mddot, s = invariance_case(seed)
        if relation == "similarity":
            inv = np.linalg.inv(s)
            other = [s @ a @ inv for a in (m, mdot, mddot)]
            bound = 4.1e-13 * np.linalg.cond(s)
        else:
            other = [a.T for a in (m, mdot, mddot)]
            bound = 1.4e-13
        w, terms, largest, kappa = whole_spectrum_terms(m, mdot, mddot)
        w2, terms2, _, kappa2 = whole_spectrum_terms(*other)
        # eigenvalues matched as sets, not by index: lambda and its
        # conjugate share Re up to round-off, so the sort can swap them
        _, match = linear_sum_assignment(np.abs(w[:, None] - w2[None, :]))
        tol = bound * max(kappa, kappa2) ** 2 * largest
        err = np.abs(terms2[:, match] - terms).max()
        assert err <= tol, (relation, seed, err, tol)


class TestInvariances:
    """The velocity and the acceleration split do not depend on the basis
    M is written in, nor on whether left or right vectors are solved for;
    scaling time scales them exactly."""

    @pytest.mark.parametrize("relation", ["similarity", "transpose"])
    def test_invariant(self, relation):
        check_invariance(relation)

    def test_time_scaling_is_bitwise(self):
        # Mdot -> 2 Mdot, Mddot -> 4 Mddot: powers of two, so no rounding
        for seed in range(INVARIANCE_CASES):
            m, mdot, mddot, _ = invariance_case(seed)
            _, terms, _, _ = whole_spectrum_terms(m, mdot, mddot)
            _, scaled, _, _ = whole_spectrum_terms(m, 2 * mdot, 4 * mddot)
            want = np.array([2.0, 4.0, 4.0, 4.0])[:, None] * terms
            assert scaled.tobytes() == want.tobytes(), seed

    @pytest.mark.parametrize("relation", ["similarity", "transpose"])
    def test_fails_on_unscaled_left_vectors(self, monkeypatch, relation):
        # unit-norm left vectors, as zgeev returns them: u_j^H v_j != 1
        decompose = core.decompose

        def unscaled(m):
            d = decompose(m)
            return dataclasses.replace(
                d, left=d.left / np.linalg.norm(d.left, axis=-2, keepdims=True))

        monkeypatch.setattr(core, "decompose", unscaled)
        with pytest.raises(AssertionError, match=relation):
            check_invariance(relation)


class TestReadmeExample:
    def test_prints_the_analytic_values(self, capsys):
        # M = [[0, 1], [-1, 0]], Mdot = [[0, 0], [1, 0]] at lambda = i:
        # velocity -i/2 and conjugate force -i/4
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        exec(compile(block, "README.md", "exec"), {})
        printed = [complex(line) for line in capsys.readouterr().out.split()]
        assert len(printed) == 2
        for got, want in zip(printed, (-0.5j, -0.25j)):
            assert abs(got - want) <= 1e-12, (got, want)


class TestStackedForceColumns:
    """Every argument with a step axis: the bits of one call per step."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (6, 6), (6, 2), (9, 9),
                                     (12, 3), (12, 12)])
    def test_matches_single_calls(self, n, k):
        rng = np.random.default_rng(n * 100 + k)
        steps = [kernel_case(n, seed, t) for seed, t in
                 zip(rng.integers(0, 2**32, 6), rng.uniform(-1, 1, 6))]
        # per-step columns; one step complex, with no pairing
        cols = np.array([rng.choice(n, k, replace=k > n // 2) for _ in steps])
        steps[2] = (steps[2][0], steps[2][1] + 1j * np.eye(n), steps[2][2], None)
        partner = np.array([np.arange(n) if p is None else p
                            for _, _, _, p in steps])
        stacked = dynamics.force_columns(
            np.array([s[0].left for s in steps]),
            np.array([s[0].right for s in steps]),
            np.array([s[0].eigenvalues for s in steps]),
            np.array([s[1] for s in steps], dtype=complex),
            np.array([s[2] for s in steps], dtype=complex), cols, partner)
        for s, (d, mdot, mddot, _) in enumerate(steps):
            one = dynamics.force_columns(d.left, d.right, d.eigenvalues,
                                         np.asarray(mdot, dtype=complex),
                                         np.asarray(mddot, dtype=complex),
                                         cols[s], partner[s])
            for name in ("velocity", "inertial", "pairwise", "conjugate_term",
                         "others", "singular"):
                got, want = getattr(stacked, name)[s], getattr(one, name)
                assert got.tobytes() == want.tobytes(), name


class TestZeroMddot:
    """An all-zero Mddot skips the U^H Mddot products; the inertial
    terms stay exact zeros."""

    @pytest.mark.parametrize("cols", [np.arange(5), np.array([3, 0])])
    def test_products_skipped(self, monkeypatch, cols):
        d, mdot, mddot, partner = kernel_case(5, 4, 0.3)
        calls = []
        zgemm = dynamics.zgemm
        monkeypatch.setattr(dynamics, "zgemm",
                            lambda *a, **kw: calls.append(1) or zgemm(*a, **kw))
        zero = kernel(d, mdot, np.zeros((5, 5)), cols, partner)
        skipped = len(calls)
        full = kernel(d, mdot, mddot, cols, partner)
        # for any cols: two zgemm calls for C, a third for Mddot
        assert (skipped, len(calls) - skipped) == (2, 3)
        assert zero.inertial.tobytes() == bytes(16 * len(cols))  # +0.0 + 0.0j
        for name in ("velocity", "pairwise", "conjugate_term", "others"):
            assert getattr(zero, name).tobytes() == getattr(full, name).tobytes()
        assert np.abs(full.inertial).max() > 0

    def test_ring_inertial_bytes(self):
        # the ring model's Mddot is zero: all 816 doubles of the shipped
        # ring record's inertial column are +0.0
        record = engine.run_scenario(
            engine.ScenarioConfig.from_file(SCENARIOS / "ring.json"))
        doubles = record.inertial.view(float)
        assert doubles.size == 816
        assert doubles.tobytes() == bytes(8 * 816)


class TestConjugateForce:
    def setup_method(self):
        self.m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        self.d = core.decompose(self.m)
        self.pair = core.pair_conjugates(self.d)
        self.j = int(np.argmax(self.d.eigenvalues.imag))

    def test_zero_mdot(self):
        assert dynamics.conjugate_force(self.d, self.pair, np.zeros((2, 2)),
                                        self.j) == 0

    def test_closed_form_agreement(self):
        # direct i = conj-partner summand vs -i |u_j^T Mdot v_j|^2 / Im(lambda_j)
        mdot = np.diag([1.0, 0.0])
        f = dynamics.conjugate_force(self.d, self.pair, mdot, self.j)
        u, v = self.d.left[:, self.j], self.d.right[:, self.j]
        im = self.d.eigenvalues[self.j].imag
        closed = -1j * abs(u @ mdot @ v) ** 2 / im
        assert abs(f - closed) <= 1e-12

    def test_inverse_im_scaling(self):
        # halving Im(lambda_j) with the numerator held fixed doubles the force
        mdot = np.diag([1.0, 0.0])
        u, v = self.d.left[:, self.j], self.d.right[:, self.j]
        num = abs(u @ mdot @ v) ** 2
        im = self.d.eigenvalues[self.j].imag
        assert abs((-1j * num / (im / 2)) / (-1j * num / im)) == pytest.approx(2.0)

    def test_real_eigenvalue_raises(self):
        d = core.decompose(np.diag([1.0, 2.0]))
        pair = core.pair_conjugates(d)
        with pytest.raises(RealEigenvalue):
            dynamics.conjugate_force(d, pair, np.eye(2), 0)

    def test_self_paired_complex_eigenvalue_raises(self):
        # |Im lambda| = 1e-10 is within the pairing tolerance 1e-9
        d = core.decompose(np.array([[0.0, 1.0], [-1e-20, 0.0]]))
        pair = core.pair_conjugates(d)
        j = int(np.argmax(d.eigenvalues.imag))
        assert d.eigenvalues[j].imag > 0 and pair.partner[j] == j
        with pytest.raises(RealEigenvalue, match="self-paired"):
            dynamics.conjugate_force(d, pair, np.eye(2), j)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           complex_m=st.booleans(), complex_mdot=st.booleans())
    def test_matches_the_two_bilinear_forms(self, n, seed, complex_m,
                                            complex_mdot):
        rng = np.random.default_rng(seed)
        m, mdot = (rng.standard_normal((n, n))
                   + (1j * rng.standard_normal((n, n)) if c else 0)
                   for c in (complex_m, complex_mdot))
        d = core.decompose(m)
        # a complex M has no conjugate-closed spectrum: pair neighbours
        pairing = (core.ConjugatePairing(np.arange(n) ^ 1 if n % 2 == 0
                                         else np.append(np.arange(n - 1) ^ 1, n - 1))
                   if complex_m else core.pair_conjugates(d))
        u, v, w = d.left, d.right, d.eigenvalues
        for j in np.flatnonzero(pairing.partner != np.arange(n)).tolist():
            if w[j].imag == 0.0:
                continue
            jbar = int(pairing.partner[j])
            a = u[:, jbar].conj() @ mdot @ v[:, j]
            b = u[:, j].conj() @ mdot @ v[:, jbar]
            want = 2 * a * b / (w[j] - w[jbar])
            # relative to the scale of the forms: a form may cancel
            scale = 2 * np.prod([np.linalg.norm(x) for x in (
                u[:, jbar], v[:, j], u[:, j], v[:, jbar])]) * np.linalg.norm(
                    mdot) ** 2 / abs(w[j] - w[jbar])
            got = dynamics.conjugate_force(d, pairing, mdot, j)
            assert abs(got - want) <= 1e-12 * max(abs(want), scale)

    def test_each_decomposition_keeps_its_own_rows(self):
        rng = np.random.default_rng(4)
        ms = rng.standard_normal((2, 6, 6))
        mdot = rng.standard_normal((6, 6))

        def want(d, pairing, j):
            jbar = pairing.partner[j]
            u, v, w = d.left, d.right, d.eigenvalues
            return (2 * (u[:, jbar].conj() @ mdot @ v[:, j])
                    * (u[:, j].conj() @ mdot @ v[:, jbar]) / (w[j] - w[jbar]))

        stack = core.decompose(ms)
        singles = [core.decompose(m) for m in ms]
        steps = [stack[0], stack[1]]
        j = int(np.argmax(singles[0].eigenvalues.imag))
        for _ in range(2):  # the second pass reads the kept rows
            got = []
            for d in singles + steps:
                pairing = core.pair_conjugates(d)
                if pairing.partner[j] == j:
                    continue
                f = dynamics.conjugate_force(d, pairing, mdot, j)
                assert f == pytest.approx(want(d, pairing, j), rel=1e-12)
                got.append(f)
            assert len(got) == 4 and got[0] != got[1]
        # one complex eigenvalue paired in turn with two others: each pair
        # its own rows
        d = singles[0]
        j = int(np.flatnonzero(d.eigenvalues.imag != 0)[0])
        assert j + 2 < 6
        for k in (j + 1, j + 2, j + 1):
            partner = np.arange(6)
            partner[[j, k]] = k, j
            other = core.ConjugatePairing(partner)
            assert dynamics.conjugate_force(d, other, mdot, j) == pytest.approx(
                want(d, other, j), rel=1e-12)

    def test_repeated_calls_bit_identical(self):
        m = np.random.default_rng(6).standard_normal((8, 8))
        mdot = np.random.default_rng(7).standard_normal((8, 8))
        d = core.decompose(m)
        pairing = core.pair_conjugates(d)
        j = int(np.argmax(d.eigenvalues.imag))
        first = dynamics.conjugate_force(d, pairing, mdot, j)
        again = [dynamics.conjugate_force(d, pairing, mdot, j) for _ in range(3)]
        fresh = core.decompose(m)
        again.append(dynamics.conjugate_force(fresh, core.pair_conjugates(fresh),
                                              mdot, j))
        assert all(np.array(f).tobytes() == np.array(first).tobytes()
                   for f in again)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_mdot_raises(self, bad, part):
        mdot = np.zeros((2, 2), dtype=complex)
        mdot[1, 0] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        # with the kept rows too
        dynamics.conjugate_force(self.d, self.pair, np.eye(2), self.j)
        with pytest.raises(NonFiniteMatrix):
            dynamics.conjugate_force(self.d, self.pair, mdot, self.j)

    def test_unsquared_form_unit_vectors(self):
        mdot = np.diag([1.0, 0.0])
        f = dynamics.conjugate_force(self.d, self.pair, mdot, self.j,
                                     unsquared_form=True)
        u = self.d.left[:, self.j] / np.linalg.norm(self.d.left[:, self.j])
        v = self.d.right[:, self.j]
        im = self.d.eigenvalues[self.j].imag
        assert f == pytest.approx(-1j * abs(u @ mdot @ v) / im)


class TestDivergenceNearCollision:
    """Conjugate pair pulled onto the real axis: [[0, 1], [-s, 0]],
    eigenvalues +-i sqrt(s)."""

    def _force_series(self, literal):
        mdot = np.array([[0.0, 0.0], [1.0, 0.0]])
        ims = np.geomspace(1e-3, 1e-1, 25)
        forces = []
        for im in ims:
            m = np.array([[0.0, 1.0], [-im**2, 0.0]])
            d = core.decompose(m)
            pair = core.pair_conjugates(d)
            j = int(np.argmax(d.eigenvalues.imag))
            forces.append(abs(dynamics.conjugate_force(
                d, pair, mdot, j, unsquared_form=literal)))
        return np.log(ims), np.log(forces)

    def test_unit_vector_force_slope_minus_one(self):
        x, y = self._force_series(literal=True)
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_biorthonormal_summand_slope_minus_three(self):
        # the biorthonormal scaling diverges at the defective collision,
        # steepening the squared summand to Im^-3 on this family
        x, y = self._force_series(literal=False)
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.05)


class TestCirculant:
    def test_matrix_and_eigenvalues(self):
        row = np.array([2.0, -1.0, 0.5, 0.25])
        c = dynamics.circulant_matrix(row)
        w = np.sort_complex(np.linalg.eigvals(c))
        np.testing.assert_allclose(
            w, np.sort_complex(dynamics.circulant_eigenvalues(row)), atol=1e-12)

    def test_dft_basis_diagonalizes(self):
        row = np.random.default_rng(3).standard_normal(8)
        c = dynamics.circulant_matrix(row)
        f = dynamics.dft_basis(8)
        w = dynamics.circulant_eigenvalues(row)
        np.testing.assert_allclose(c @ f, f * w[None, :], atol=1e-12)

    def test_zero_perturbation(self):
        f = dynamics.dft_basis(4)
        w = dynamics.circulant_eigenvalues([1.0, 2.0, 0.0, -1.0])
        assert dynamics.circulant_acceleration(f, np.zeros(4), w, 1) == 0

    @pytest.mark.parametrize("basis,sites", [(3, 4), (4, 3)])
    def test_size_mismatch(self, basis, sites):
        # a spectrum of 4 eigenvalues
        w = dynamics.circulant_eigenvalues([1.0, 2.0, 0.0, -1.0])
        with pytest.raises(DimensionMismatch, match="size mismatch"):
            dynamics.circulant_acceleration(dynamics.dft_basis(basis),
                                            np.zeros(sites), w, 1)

    def test_uniform_perturbation_orthogonality(self):
        # p = c*I commutes with everything: all cross terms vanish
        f = dynamics.dft_basis(6)
        w = dynamics.circulant_eigenvalues([1.0, 2.0, 0.0, 0.0, 0.0, -1.0])
        acc = dynamics.circulant_acceleration(f, 0.7 * np.ones(6), w, 2)
        assert abs(acc) <= 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_general_formula(self, n):
        rng = np.random.default_rng(n)
        row = rng.standard_normal(n)
        p = rng.standard_normal(n)
        c = dynamics.circulant_matrix(row).real
        f = dynamics.dft_basis(n)
        w = dynamics.circulant_eigenvalues(row)
        d = core.decompose(c)
        for m in range(n):
            fast = dynamics.circulant_acceleration(f, p, w, m)
            j = int(np.argmin(np.abs(d.eigenvalues - w[m])))
            bd = dynamics.eigen_acceleration(d, np.diag(p), np.zeros((n, n)), j)
            assert abs(fast - bd.total) <= 1e-10 * max(abs(bd.total), 1.0)


# the seed-0 transfer input of the benchmark's cli_corpus workload
CORPUS_TRANSFER = {
    "model": {"type": "transfer", "entries": {
        "M11": ["1.312472403849563", "0.20647915598291816"],
        "M12": ["0.7616121342493164"],
        "M21": ["0.42569029623771215", "0.27353275370807756"],
        "M22": ["1.0089438003898863"]}},
    "time": {"t0": 0.5, "t1": 2.0, "steps": 1000},
}


def generic_central_differences(value):
    """M, Mdot and Mddot callables of ``value`` as the removed generic
    wrapper ``MatrixTrajectory.from_callable`` took them: steps 1e-4 s
    and 1e-3 s with s = max(1, ||M(0)||_F)."""
    m0 = core.as_square_matrix(value(0.0))
    scale = max(1.0, float(np.linalg.norm(m0)))
    h1 = 1e-4 * scale
    h2 = 1e-3 * scale

    def fd1(t):
        return (value(t + h1) - value(t - h1)) / (2 * h1)

    def fd2(t):
        return (value(t + h2) - 2 * value(t) + value(t - h2)) / h2**2

    return value, fd1, fd2


class TestTrajectory:
    def test_transfer_keeps_the_generic_central_differences(self):
        cfg = engine.ScenarioConfig.from_dict(CORPUS_TRANSFER)
        traj = engine.build_trajectory(cfg)
        model = models.TransferMatrixModel(
            *([complex(c) for c in coeffs]
              for coeffs in CORPUS_TRANSFER["model"]["entries"].values()))
        want = generic_central_differences(
            lambda k: models.scattering_data(model, k).s_matrix)
        # the times of the run's one block
        ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)
        assert len(ts) <= engine._BLOCK_ENTRIES // traj.n**2
        got = (traj.value, traj.first_derivative, traj.second_derivative)
        for name, f, g in zip(("M", "Mdot", "Mddot"), got, want):
            assert f(ts).tobytes() == g(ts).tobytes(), name

    def test_constant(self):
        m = np.eye(3)
        traj = MatrixTrajectory.polynomial(m)
        assert np.array_equal(traj.value(2.0), m)
        assert not traj.first_derivative(2.0).any()
