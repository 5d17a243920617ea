import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigendyn import core, dynamics, engine, models
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
    def test_builders_match_their_definitions_bit_for_bit(self):
        # build_omega against the circulant it was defined as, and
        # build_omega_le against its per-site hop loop
        grid = itertools.product([3, 4, 5, 8, 13, 64, 128],
                                 [1e-3, 0.4, 1.0, 2.5, 1e3], [-1.7, 0.0, 0.1, 1.3])
        for n, d, a in grid:
            row = np.zeros(n)
            row[0], row[1], row[-1] = a - 2 * d, d, d
            want = dynamics.circulant_matrix(row).real.astype(float)
            got = models.build_omega(BiophysicalRing(n=n, diffusion=d, growth=a))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, d, a)
            for h in (-0.3, 0.03, 1.0):
                want = np.diag(np.full(n, a - 2 * d))
                for i in range(n):
                    want[i, (i + 1) % n] = d * np.exp(h)
                    want[i, (i - 1) % n] = d * np.exp(-h)
                got = models.build_omega_le(
                    BiophysicalRing(n=n, diffusion=d, growth=a, tilt=h))
                assert got.tobytes() == want.tobytes(), (n, d, a, h)

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
        with pytest.warns(UserWarning):
            spec = EffectiveHamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # once, when the spec is built: evaluating it does not warn again
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models.effective_hamiltonian(spec)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_trajectory_follows_moving_displacements(self, data):
        # an effective-Hamiltonian scenario's M(t) is the per-time formula
        # with displacements l0 + t*l1, and Mdot its l1 part, to a few ulp
        # of the largest term summed
        n = data.draw(st.integers(1, 4), label="n")
        number = st.complex_numbers(max_magnitude=10.0)
        square = st.lists(st.lists(number, min_size=n, max_size=n),
                          min_size=n, max_size=n)
        h = np.array(data.draw(square, label="H"), dtype=complex)
        terms = data.draw(st.lists(st.tuples(square, number, number),
                                   max_size=3), label="terms")
        t = data.draw(st.floats(-10.0, 10.0), label="t")
        model = {"type": "effective_hamiltonian", "H": h.tolist(),
                 "lindblad": [{"L": op, "l": l0, "l_rate": l1}
                              for op, l0, l1 in terms]}
        cfg = engine.ScenarioConfig.from_dict({
            "model": model, "time": {"t0": 0.0, "t1": 1.0, "steps": 4}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non-Hermitian H
            m, mdot, mddot = engine.build_trajectory(cfg).at(t)

        ops = [np.array(op) for op, _, _ in terms]

        def displaced(ls):
            acc = sum((np.conjugate(l) * op - l * op.conj().T
                       for op, l in zip(ops, ls)), np.zeros((n, n)))
            return 0.5j * acc

        def largest_term(ls):
            return sum(abs(l) * np.abs(op).max() for op, l in zip(ops, ls))

        l0s, l1s = [l0 for _, l0, _ in terms], [l1 for _, _, l1 in terms]
        ulp = 8 * np.finfo(float).eps
        want = h + displaced([l0 + t * l1 for l0, l1 in zip(l0s, l1s)])
        scale = np.abs(h).max() + largest_term(l0s) + abs(t) * largest_term(l1s)
        assert np.abs(m - want).max() <= ulp * scale
        assert np.abs(mdot - displaced(l1s)).max() <= ulp * largest_term(l1s)
        assert not mddot.any()

    def test_rejects_mismatched_lists(self):
        with pytest.raises(DimensionMismatch):
            EffectiveHamiltonianSpec(np.eye(2), [np.eye(2)], [])
        with pytest.raises(DimensionMismatch):
            EffectiveHamiltonianSpec(np.eye(2), [np.eye(3)], [1.0])


class TestScattering:
    def test_constant_must_be_2x2(self):
        with pytest.raises(DimensionMismatch, match="must be 2x2"):
            TransferMatrixModel.from_constant(np.eye(3))

    def test_identity_barrier(self):
        model = TransferMatrixModel.from_constant(np.eye(2))
        data = models.scattering_data(model, 1.0)
        assert data.s_matrix[0, 0] == pytest.approx(1.0)
        assert data.s_matrix[1, 0] == pytest.approx(0.0)
        assert data.s_matrix[0, 1] == pytest.approx(0.0)
        assert data.s_matrix[1, 1] == pytest.approx(1.0)
        assert data.s_plus == pytest.approx(1.0)
        assert data.s_minus == pytest.approx(1.0)

    def test_worked_example(self):
        model = TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
        data = models.scattering_data(model, 0.5)
        assert data.s_matrix[0, 0] == pytest.approx(1.0)
        assert data.s_matrix[0, 1] == pytest.approx(1.0)
        assert data.s_matrix[1, 0] == pytest.approx(-1.0)
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
        # M11 = 1 + k**2, M12 = M21 = k, M22 = 1
        model = TransferMatrixModel(m11=[1.0, 0.0, 1.0], m12=[0.0, 1.0],
                                    m21=[0.0, 1.0], m22=[1.0])
        data = models.scattering_data(model, 0.3)
        assert data.s_matrix[0, 0] == pytest.approx(1.0)
        assert data.s_matrix[0, 1] == pytest.approx(0.3)

    def test_array_of_wavenumbers(self):
        model = TransferMatrixModel(m11=[1.0, 0.0, 1.0], m12=[0.0, 1.0],
                                    m21=[0.0, 1.0], m22=[1.0])
        ks = np.array([[0.1, 0.4], [0.9, 1.3]])
        data = models.scattering_data(model, ks)
        assert data.s_matrix.shape == (2, 2, 2, 2)
        for idx in np.ndindex(ks.shape):
            one = models.scattering_data(model, ks[idx])
            np.testing.assert_array_equal(data.s_matrix[idx], one.s_matrix)
            assert data.s_plus[idx] == pytest.approx(one.s_plus, abs=1e-15)

    def test_first_offending_wavenumber_named(self):
        # det M = 1 - k**2 / 4: the first bad k is named
        model = TransferMatrixModel(m11=[1.0], m12=[0.0, 0.5],
                                    m21=[0.0, 0.5], m22=[1.0])
        with pytest.raises(NotUnimodular, match=r"k=0\.5\)"):
            models.scattering_data(model, np.array([0.0, 0.5, 0.7]))
        # det M = (1 + k)(1 - k) + k**2 = 1, and M22 = 1 - k
        model = TransferMatrixModel(m11=[1.0, 1.0], m12=[0.0, 1.0],
                                    m21=[0.0, -1.0], m22=[1.0, -1.0])
        with pytest.raises(SpectralSingularity, match=r"M22\(k=1\.0\)"):
            models.scattering_data(model, np.array([0.5, 1.0, 1.0]))

    def test_entry_without_coefficients_rejected(self):
        with pytest.raises(DimensionMismatch, match="^M12 has no coefficients"):
            TransferMatrixModel(m11=[1.0], m12=[], m21=[0.5], m22=[1.0])

    def test_entries_by_horners_rule(self):
        rng = np.random.default_rng(29)
        coeffs = [[complex(x, y) for x, y in rng.normal(size=(q, 2))]
                  for q in (1, 3, 4, 6)]
        model = TransferMatrixModel(*coeffs)
        for k in (0.3, -1.7, 2.5):
            want = []
            for entry in coeffs:
                acc = entry[-1]
                for c in reversed(entry[:-1]):
                    acc = acc * k + c
                want.append(acc)
            assert (model.matrix(k).tobytes()
                    == np.array(want, dtype=complex).reshape(2, 2).tobytes())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_array_of_wavenumbers_bit_for_bit(self, data):
        # degree 0 to 5 per entry: an array of wavenumbers gives the matrix
        # of each wavenumber to the last bit
        coeffs = st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                             allow_infinity=False),
                          min_size=1, max_size=6)
        model = TransferMatrixModel(*(data.draw(coeffs) for _ in range(4)))
        ks = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1,
                                         max_size=20)))
        got = model.matrix(ks)
        want = np.array([model.matrix(k) for k in ks.tolist()])
        assert got.shape == ks.shape + (2, 2)
        assert got.tobytes() == want.tobytes()


def central_differences(matrix, n):
    """A trajectory of ``matrix`` (a callable of one time) whose
    derivatives are central differences at the steps 1e-4 s and 1e-3 s,
    s = max(1, ||M(0)||_F)."""
    scale = max(1.0, float(np.linalg.norm(matrix(0.0))))
    h1, h2 = 1e-4 * scale, 1e-3 * scale
    return MatrixTrajectory(
        n, matrix,
        lambda t: (matrix(t + h1) - matrix(t - h1)) / (2 * h1),
        lambda t: (matrix(t + h2) - 2 * matrix(t) + matrix(t - h2)) / h2**2)


def fd_acceleration(trajectory, t, j, h=1e-3):
    """Second central difference of the path-matched eigenvalue."""
    d0 = core.decompose(np.asarray(trajectory.value(t), dtype=complex))

    def matched(tq):
        dq = core.decompose(np.asarray(trajectory.value(tq), dtype=complex))
        return dq.eigenvalues[core.match_paths(d0, dq).permutation][j]

    return (matched(t + h) - 2 * d0.eigenvalues[j] + matched(t - h)) / h**2


def exact_acceleration(trajectory, t, j):
    """eigen_acceleration of eigenvalue j of the model matrix at t."""
    d = core.decompose(np.asarray(trajectory.value(t), dtype=complex))
    return dynamics.eigen_acceleration(d, trajectory.first_derivative(t),
                                       trajectory.second_derivative(t), j).total


class TestModelAccelerations:
    def test_ring_matches_finite_differences(self):
        d, a = 0.7, 0.1

        def matrix(t):
            ring = BiophysicalRing(n=5, diffusion=d, growth=a, tilt=0.5 * t)
            return models.build_omega_le(ring)

        traj = central_differences(matrix, 5)
        for j in (0, 2, 4):
            fd = fd_acceleration(traj, 0.4, j)
            assert abs(exact_acceleration(traj, 0.4, j) - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_effective_hamiltonian_matches_finite_differences(self):
        h0 = np.diag([0.0, 1.0, 2.0])
        sm = np.zeros((3, 3))
        sm[0, 1] = sm[1, 2] = 1.0

        def matrix(t):
            spec = EffectiveHamiltonianSpec(h0, [sm], [0.3 + 0.4j * t])
            return models.effective_hamiltonian(spec)

        traj = central_differences(matrix, 3)
        fd = fd_acceleration(traj, 0.5, 1)
        assert abs(exact_acceleration(traj, 0.5, 1) - fd) <= 1e-4 * max(abs(fd), 1.0)

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

        traj = central_differences(matrix, 2)
        fd = fd_acceleration(traj, 0.2, 0)
        assert abs(exact_acceleration(traj, 0.2, 0) - fd) <= 1e-4 * max(abs(fd), 1.0)
