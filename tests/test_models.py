import warnings

import numpy as np
import pytest

from eigendyn import core, models
from eigendyn.dynamics import MatrixTrajectory
from eigendyn.errors import (
    DimensionMismatch,
    NotUnimodular,
    SpectralSingularity,
)
from eigendyn.models import (
    BiophysicalRing,
    EffectiveHamiltonianSpec,
    TransferMatrixModel,
)


def assert_spectra_close(got, want, atol):
    """Compare spectra as multisets (sort order is unstable under ties)."""
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= atol


class TestRing:
    def test_three_site_rows(self):
        ring = BiophysicalRing(n=3, diffusion=1.0)
        m = models.build_omega(ring)
        np.testing.assert_array_equal(m, [[-2, 1, 1], [1, -2, 1], [1, 1, -2]])

    def test_three_site_spectrum(self):
        ring = BiophysicalRing(n=3, diffusion=1.0)
        w = np.linalg.eigvals(models.build_omega(ring))
        np.testing.assert_allclose(sorted(w.real), [-3, -3, 0], atol=1e-12)
        np.testing.assert_allclose(w.imag, 0.0, atol=1e-12)

    def test_uniform_mode_eigenvalue_is_growth(self):
        ring = BiophysicalRing(n=7, diffusion=0.4, growth=1.3)
        m = models.build_omega(ring)
        ones = np.ones(7)
        np.testing.assert_allclose(m @ ones, 1.3 * ones, atol=1e-12)

    @pytest.mark.parametrize("n,h", [(5, 0.0), (8, 0.7), (12, -0.3)])
    def test_tilted_spectrum_matches_dft_formula(self, n, h):
        ring = BiophysicalRing(n=n, diffusion=0.8, growth=0.2, tilt=h)
        numeric = np.linalg.eigvals(models.build_omega_le(ring))
        analytic = models.omega_le_spectrum(ring)
        assert_spectra_close(numeric, analytic, atol=1e-10)

    def test_untilted_clean_reduces_to_omega(self):
        ring = BiophysicalRing(n=6, diffusion=0.5, growth=0.1)
        np.testing.assert_allclose(models.build_omega_le(ring),
                                   models.build_omega(ring), atol=1e-14)

    def test_trace_counts_disorder(self):
        u = np.array([0.1, -0.2, 0.3, 0.0, 0.5])
        ring = BiophysicalRing(n=5, diffusion=1.0, growth=0.3, tilt=0.4,
                               fluctuations=u)
        m = models.build_omega_le(ring)
        assert np.trace(m) == pytest.approx(5 * (0.3 - 2.0) + u.sum())

    def test_tilt_preserves_spectrum_of_symmetric_part(self):
        # e^{h} and e^{-h} hops are a similarity transform of the h=0 ring
        # only entrywise, not spectrally: eigenvalues genuinely move
        clean = BiophysicalRing(n=6, diffusion=1.0)
        tilted = BiophysicalRing(n=6, diffusion=1.0, tilt=1.0)
        w0 = models.omega_le_spectrum(clean)
        w1 = models.omega_le_spectrum(tilted)
        assert np.max(np.abs(w1.imag)) > 0.1
        np.testing.assert_allclose(w0.imag, 0.0, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BiophysicalRing(n=2, diffusion=1.0)
        with pytest.raises(ValueError):
            BiophysicalRing(n=4, diffusion=0.0)
        with pytest.raises(DimensionMismatch):
            BiophysicalRing(n=4, diffusion=1.0, fluctuations=[1.0, 2.0])


class TestEffectiveHamiltonian:
    def test_no_displacement_returns_h(self):
        h = np.array([[1.0, 2.0], [2.0, -1.0]])
        spec = EffectiveHamiltonianSpec(h)
        np.testing.assert_array_equal(models.effective_hamiltonian(spec), h)

    def test_real_displacement_of_hermitian_op_cancels(self):
        h = np.diag([1.0, 2.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = EffectiveHamiltonianSpec(h, [sx], [0.7])
        np.testing.assert_allclose(models.effective_hamiltonian(spec), h,
                                   atol=1e-15)

    def test_lowering_operator_displacement(self):
        # H = diag(0, 1), L = sigma_minus, l real: the contribution is
        # (i/2) l (sigma_minus - sigma_plus), explicitly anti-Hermitian
        h = np.diag([0.0, 1.0])
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        l = 0.6
        got = models.effective_hamiltonian(
            EffectiveHamiltonianSpec(h, [sm], [l]))
        want = h + 0.5j * l * (sm - sm.T)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_multiple_operators_sum(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 3))
        h = h + h.T
        ops = [rng.standard_normal((3, 3)) for _ in range(2)]
        ls = [1.0 + 2.0j, -0.5j]
        spec = EffectiveHamiltonianSpec(h, ops, ls)
        want = h.astype(complex)
        for op, l in zip(ops, ls):
            want = want + 0.5j * (np.conj(l) * op - l * op.conj().T)
        np.testing.assert_allclose(models.effective_hamiltonian(spec), want)

    def test_displacement_term_is_hermitian(self):
        # (i/2)(conj(l) L - l L^dagger) is Hermitian for any L and l,
        # so Hermitian H stays Hermitian under displacement
        rng = np.random.default_rng(3)
        h = rng.standard_normal((3, 3))
        h = h + h.T
        op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ht = models.effective_hamiltonian(
            EffectiveHamiltonianSpec(h, [op], [0.4 - 1.1j]))
        np.testing.assert_allclose(ht, ht.conj().T, atol=1e-14)

    def test_warns_on_non_hermitian_h(self):
        spec = EffectiveHamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.warns(UserWarning):
            models.effective_hamiltonian(spec)

    def test_rejects_mismatched_lists(self):
        with pytest.raises(DimensionMismatch):
            EffectiveHamiltonianSpec(np.eye(2), [np.eye(2)], [])
        with pytest.raises(DimensionMismatch):
            EffectiveHamiltonianSpec(np.eye(2), [np.eye(3)], [1.0])


class TestScattering:
    def test_identity_barrier(self):
        model = TransferMatrixModel.from_constant(np.eye(2))
        data = models.scattering_data(model, 1.0)
        assert data.t_left == pytest.approx(1.0)
        assert data.r_left == pytest.approx(0.0)
        assert data.r_right == pytest.approx(0.0)
        assert data.s_plus == pytest.approx(1.0)
        assert data.s_minus == pytest.approx(1.0)

    def test_worked_example(self):
        model = TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
        data = models.scattering_data(model, 0.5)
        assert data.t_left == pytest.approx(1.0)
        assert data.r_right == pytest.approx(1.0)
        assert data.r_left == pytest.approx(-1.0)
        assert data.s_plus == pytest.approx(1.0 + 1.0j)
        assert data.s_minus == pytest.approx(1.0 - 1.0j)
        np.testing.assert_allclose(data.s_matrix,
                                   [[1.0, 1.0], [-1.0, 1.0]], atol=1e-14)

    def test_closed_form_matches_s_matrix_eigenvalues(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            d = (1.0 + b * c) / a  # enforce det M = 1
            model = TransferMatrixModel.from_constant([[a, b], [c, d]])
            data = models.scattering_data(model, 1.0)
            assert_spectra_close([data.s_plus, data.s_minus],
                                 np.linalg.eigvals(data.s_matrix), atol=1e-10)

    def test_conjugate_pair_regime(self):
        # real M with M11 M22 > 1 gives a complex-conjugate pair
        model = TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
        data = models.scattering_data(model, 0.0)
        assert data.s_plus == pytest.approx(np.conj(data.s_minus))
        assert data.s_plus.imag != 0.0

    def test_rejects_non_unimodular(self):
        model = TransferMatrixModel.from_constant(2 * np.eye(2))
        with pytest.raises(NotUnimodular):
            models.scattering_data(model, 1.0)

    def test_spectral_singularity(self):
        model = TransferMatrixModel.from_constant([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(SpectralSingularity):
            models.scattering_data(model, 1.0)

    def test_k_dependent_entries(self):
        model = TransferMatrixModel(
            m11=lambda k: 1.0 + k * k,
            m12=lambda k: k,
            m21=lambda k: k,
            m22=lambda k: 1.0,
        )
        data = models.scattering_data(model, 0.3)
        assert data.t_left == pytest.approx(1.0)
        assert data.r_right == pytest.approx(0.3)

    def test_left_state_asymptotics(self):
        model = TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
        k = 0.8
        x = np.array([-2.0, -1.0, 1.0, 2.0])
        state = models.scattering_state(model, k, "left", x)
        data = models.scattering_data(model, k)
        incoming = np.exp(1j * k * x[:2])
        reflected = data.r_left * np.exp(-1j * k * x[:2])
        np.testing.assert_allclose(state.psi[:2], incoming + reflected)
        np.testing.assert_allclose(state.psi[2:],
                                   data.t_left * np.exp(1j * k * x[2:]))

    def test_right_state_asymptotics(self):
        model = TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
        k = 0.8
        x = np.array([-1.5, 1.5])
        state = models.scattering_state(model, k, "right", x)
        data = models.scattering_data(model, k)
        assert state.psi[0] == pytest.approx(
            data.t_right * np.exp(-1j * k * x[0]))
        assert state.psi[1] == pytest.approx(
            np.exp(-1j * k * x[1]) + data.r_right * np.exp(1j * k * x[1]))

    def test_state_rejects_bad_side(self):
        model = TransferMatrixModel.from_constant(np.eye(2))
        with pytest.raises(ValueError):
            models.scattering_state(model, 1.0, "up", np.zeros(1))


def fd_acceleration(trajectory, t, j, h=1e-3):
    """Second central difference of the path-matched eigenvalue."""
    d0 = core.decompose(np.asarray(trajectory.value(t), dtype=complex))

    def matched(tq):
        dq = core.decompose(np.asarray(trajectory.value(tq), dtype=complex))
        return dq.eigenvalues[core.match_paths(d0, dq).permutation][j]

    return (matched(t + h) - 2 * d0.eigenvalues[j] + matched(t - h)) / h**2


class TestMainResultAcceleration:
    def test_static_matrix_zero(self):
        traj = MatrixTrajectory.polynomial(np.diag([1.0, 2.0, 3.0]))
        breakdown, diag = models.main_result_acceleration("biophysical",
                                                          traj, 0.0, 1)
        assert breakdown.total == 0
        assert diag is None

    def test_ring_matches_finite_differences(self):
        d, a = 0.7, 0.1

        def matrix(t):
            ring = BiophysicalRing(n=5, diffusion=d, growth=a, tilt=0.5 * t)
            return models.build_omega_le(ring)

        traj = MatrixTrajectory.from_callable(matrix, n=5)
        for j in (0, 2, 4):
            breakdown, _ = models.main_result_acceleration("biophysical",
                                                           traj, 0.4, j)
            fd = fd_acceleration(traj, 0.4, j)
            assert abs(breakdown.total - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_effective_hamiltonian_matches_finite_differences(self):
        h0 = np.diag([0.0, 1.0, 2.0])
        sm = np.zeros((3, 3))
        sm[0, 1] = sm[1, 2] = 1.0

        def matrix(t):
            spec = EffectiveHamiltonianSpec(h0, [sm], [0.3 + 0.4j * t])
            return models.effective_hamiltonian(spec)

        traj = MatrixTrajectory.from_callable(matrix, n=3)
        breakdown, _ = models.main_result_acceleration("open_quantum",
                                                       traj, 0.5, 1)
        fd = fd_acceleration(traj, 0.5, 1)
        assert abs(breakdown.total - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_s_matrix_eigenvalues_consistent(self):
        # the closed-form pair s+- must coincide with the numerically
        # decomposed spectrum of S along a transfer-matrix family
        def s_of_t(t):
            m11 = 2.0 + t
            m22 = 1.0
            model = TransferMatrixModel.from_constant(
                [[m11, 1.0], [m11 * m22 - 1.0, m22]])
            return models.scattering_data(model, 1.0)

        for t in (0.0, 0.3, 0.9):
            data = s_of_t(t)
            w = core.decompose(data.s_matrix).eigenvalues
            assert_spectra_close(w, [data.s_plus, data.s_minus], atol=1e-10)

    def test_pt_symmetric_family_matches_finite_differences(self):
        def matrix(t):
            m11 = 2.0 + 0.5 * t
            model = TransferMatrixModel.from_constant(
                [[m11, 1.0], [m11 - 1.0, 1.0]])
            return models.scattering_data(model, 1.0).s_matrix

        traj = MatrixTrajectory.from_callable(matrix, n=2)
        breakdown, _ = models.main_result_acceleration("pt_symmetric",
                                                       traj, 0.2, 0)
        fd = fd_acceleration(traj, 0.2, 0)
        assert abs(breakdown.total - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_diagnostic_with_exact_vectors_is_tight(self):
        def matrix(t):
            ring = BiophysicalRing(n=4, diffusion=1.0, tilt=0.3 * t)
            return models.build_omega_le(ring)

        traj = MatrixTrajectory.from_callable(matrix, n=4)
        d = core.decompose(np.asarray(matrix(0.5), dtype=complex))
        breakdown, diag = models.main_result_acceleration(
            "biophysical", traj, 0.5, 1,
            ansatz_left=d.left, ansatz_right=d.right)
        assert diag is not None
        assert diag.exact == breakdown.total
        assert diag.discrepancy <= 1e-8 * max(abs(diag.exact), 1.0)

    def test_diagnostic_with_crude_vectors_reports_gap(self):
        def matrix(t):
            ring = BiophysicalRing(n=4, diffusion=1.0, tilt=0.3 + 0.3 * t)
            return models.build_omega_le(ring)

        traj = MatrixTrajectory.from_callable(matrix, n=4)
        eye = np.eye(4, dtype=complex)
        _, diag = models.main_result_acceleration(
            "biophysical", traj, 0.5, 1, ansatz_left=eye, ansatz_right=eye)
        assert diag.discrepancy > 1e-6

    def test_rejects_unknown_kind(self):
        traj = MatrixTrajectory.polynomial(np.eye(2))
        with pytest.raises(ValueError):
            models.main_result_acceleration("banana", traj, 0.0, 0)
