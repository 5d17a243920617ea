import dataclasses
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigendyn import core, dynamics, stochastic
from eigendyn.errors import DimensionMismatch, EmptyEstimate, RealEigenvalue
from eigendyn.stochastic import PerturbationProcess


def complex_index(d):
    """Index of the eigenvalue with the largest imaginary part."""
    return int(np.argmax(d.eigenvalues.imag))


@pytest.fixture
def real_8x8():
    m = np.random.default_rng(42).standard_normal((8, 8))
    d = core.decompose(m)
    pairing = core.pair_conjugates(d)
    return m, d, pairing


def reference_sample(proc, n, index):
    """Sample ``index`` drawn from a generator built for it alone, as
    numpy builds it."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=proc.seed, spawn_key=(index,)))
    scale = np.sqrt(proc.sigma2)
    if proc.kind == "diagonal":
        p = np.zeros((n, n))
        np.fill_diagonal(p, rng.standard_normal(n) * scale)
        return p
    return rng.standard_normal((n, n)) * scale


# 1, 2, 3 and 5 uint32 words: the last one takes SeedSequence's path for
# entropy longer than its 4-word pool
STREAM_SEEDS = (0, 2**40 + 5, 2**90, 2**150 + 3)
# block edges (4096) and the first index whose spawn key has two words
STREAM_INDICES = (0, 4095, 4096, 2**32 - 1, 2**32, 2**40)


def stream_processes(seed):
    return (PerturbationProcess(kind="diagonal", sigma2=2.0, seed=seed),
            PerturbationProcess(kind="full", sigma2=0.5, seed=seed))


class TestStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_matches_per_index_generator(self, seed):
        for proc in stream_processes(seed):
            for i in STREAM_INDICES:
                assert np.array_equal(proc.sample(3, i), reference_sample(proc, 3, i))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**160 - 1), index=st.integers(0, 2**48 - 1))
    def test_matches_per_index_generator_property(self, seed, index):
        for proc in stream_processes(seed):
            assert np.array_equal(proc.sample(3, index),
                                  reference_sample(proc, 3, index))

    def test_threads_draw_the_serial_stream(self):
        procs = (PerturbationProcess(kind="full", seed=3),
                 PerturbationProcess(kind="diagonal", seed=2**70))
        indices = range(4090, 4400)

        def draws():
            return [proc.sample(4, i) for i in indices for proc in procs]

        serial = draws()
        results = [None, None]

        def work(slot):
            results[slot] = draws()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert result is not None
            assert all(np.array_equal(a, b) for a, b in zip(result, serial, strict=True))

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(False), -1, "3", None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PerturbationProcess(seed=seed)

    def test_accepts_numpy_integers(self):
        proc = PerturbationProcess(seed=np.int64(2**40 + 5))
        assert np.array_equal(proc.sample(3, 7), reference_sample(proc, 3, 7))


class TestSample:
    def test_zero_variance_zero(self):
        proc = PerturbationProcess(sigma2=0.0, seed=1)
        np.testing.assert_array_equal(proc.sample(3, 0), np.zeros((3, 3)))

    def test_replays_byte_identically(self):
        proc = PerturbationProcess(kind="full", sigma2=2.0, seed=7, dt=0.1)
        a = proc.sample(4, 3)
        b = proc.sample(4, 3)
        assert np.array_equal(a, b)
        c = proc.sample(4, 4)
        assert not np.array_equal(a, c)

    def test_diagonal_kind_off_diagonals_zero(self):
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=0)
        p = proc.sample(5, 0)
        assert not (p - np.diag(np.diag(p))).any()

    def test_diagonal_variance_law_of_large_numbers(self):
        n = 4
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=11, dt=0.1)
        draws = np.empty((100_000, n))
        for i in range(draws.shape[0]):
            draws[i] = np.diag(proc.sample(n, i)).real
        var = draws.var(axis=0, ddof=1)
        np.testing.assert_allclose(var, 1.0, atol=0.02)


class TestClosedForms:
    def test_zero_variance(self, real_8x8):
        _, d, _ = real_8x8
        j = complex_index(d)
        assert stochastic.expected_conjugate_force_iid(d, 0.0, j) == 0

    def test_left_norm_scaling(self, real_8x8):
        # doubling ||u_j|| with Im(lambda_j) fixed quadruples the force
        _, d, _ = real_8x8
        j = complex_index(d)
        base = stochastic.expected_conjugate_force_iid(d, 1.0, j)
        d2 = dataclasses.replace(d, left=2.0 * d.left)
        scaled = stochastic.expected_conjugate_force_iid(d2, 1.0, j)
        assert scaled == pytest.approx(4.0 * base)

    def test_sigma2_linearity(self, real_8x8):
        _, d, _ = real_8x8
        j = complex_index(d)
        one = stochastic.expected_conjugate_force_iid(d, 1.0, j)
        for s2 in (0.25, 4.0):
            val = stochastic.expected_conjugate_force_iid(d, s2, j)
            assert val == pytest.approx(s2 * one)

    def test_general_zero(self, real_8x8):
        _, d, _ = real_8x8
        j = complex_index(d)
        assert stochastic.expected_conjugate_force_general(
            d, np.zeros((8, 8)), j) == 0

    def test_iid_full_collapses_to_norms(self, real_8x8):
        # every variance sigma^2: -i sigma^2 ||u_j||^2 ||v_j||^2 / (2 Im lambda_j)
        _, d, _ = real_8x8
        j = complex_index(d)
        u2, v2 = np.abs(d.left[:, j]) ** 2, np.abs(d.right[:, j]) ** 2
        want = -1j * 1.7 * u2.sum() * v2.sum() / (2 * d.eigenvalues[j].imag)
        iid = stochastic.expected_conjugate_force_iid(d, 1.7, j, kind="full")
        assert abs(iid - want) <= 1e-12 * abs(want)

    def test_iid_diagonal_restricts_the_sum(self, real_8x8):
        # only the (m, m) variances: -i sigma^2 sum_m |u_j^m|^2 |v_j^m|^2 / (2 Im lambda_j)
        _, d, _ = real_8x8
        j = complex_index(d)
        u2, v2 = np.abs(d.left[:, j]) ** 2, np.abs(d.right[:, j]) ** 2
        want = -1j * 0.9 * (u2 @ v2) / (2 * d.eigenvalues[j].imag)
        iid = stochastic.expected_conjugate_force_iid(d, 0.9, j,
                                                      kind="diagonal")
        assert abs(iid - want) <= 1e-12 * abs(want)

    def test_single_entry_variance_formula(self, real_8x8):
        _, d, _ = real_8x8
        j = complex_index(d)
        m, l = 2, 5
        v = np.zeros((8, 8))
        v[m, l] = 3.0
        got = stochastic.expected_conjugate_force_general(d, v, j)
        lam = d.eigenvalues[j]
        want = -1j * 3.0 * abs(d.left[m, j]) ** 2 * abs(d.right[l, j]) ** 2 / (
            2 * lam.imag)
        assert got == pytest.approx(want)

    @pytest.mark.parametrize("j", [-1, 8])
    def test_index_outside_spectrum_raises(self, real_8x8, j):
        _, d, pairing = real_8x8
        with pytest.raises(DimensionMismatch):
            stochastic.expected_conjugate_force_iid(d, 1.0, j)
        with pytest.raises(DimensionMismatch):
            stochastic.expected_conjugate_force_general(d, np.ones((8, 8)), j)
        with pytest.raises(DimensionMismatch):
            dynamics.conjugate_force(d, pairing, np.ones((8, 8)), j)

    def test_real_eigenvalue_raises(self):
        d = core.decompose(np.diag([1.0, 2.0]))
        with pytest.raises(RealEigenvalue):
            stochastic.expected_conjugate_force_iid(d, 1.0, 0)


class TestMonteCarlo:
    def test_zero_samples(self, real_8x8):
        m, d, _ = real_8x8
        proc = PerturbationProcess(sigma2=1.0, seed=1)
        with pytest.raises(EmptyEstimate):
            stochastic.monte_carlo_conjugate_force(m, proc, complex_index(d), 0)

    def test_zero_variance(self, real_8x8):
        m, d, _ = real_8x8
        proc = PerturbationProcess(sigma2=0.0, seed=1)
        est = stochastic.monte_carlo_conjugate_force(m, proc, complex_index(d), 50)
        assert est.mean == 0
        assert est.standard_error == 0

    def test_deterministic_given_seed(self, real_8x8):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=123)
        a = stochastic.monte_carlo_conjugate_force(m, proc, j, 500)
        b = stochastic.monte_carlo_conjugate_force(m, proc, j, 500)
        assert a == b

    def test_diagonal_agrees_with_closed_form(self, real_8x8):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=9)
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, 20_000)
        want = stochastic.expected_conjugate_force_iid(d, 1.0, j,
                                                       kind="diagonal")
        assert abs(est.mean - want) <= 3 * est.standard_error

    def test_full_agrees_with_closed_form(self, real_8x8):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="full", sigma2=1.0, seed=10)
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, 20_000)
        want = stochastic.expected_conjugate_force_iid(d, 1.0, j,
                                                       kind="full")
        assert abs(est.mean - want) <= 3 * est.standard_error

    def test_sigma2_scaling_slope(self, real_8x8):
        m, d, _ = real_8x8
        j = complex_index(d)
        sigmas = np.array([0.25, 1.0, 4.0])
        means = []
        for s2 in sigmas:
            proc = PerturbationProcess(kind="diagonal", sigma2=s2, seed=77)
            est = stochastic.monte_carlo_conjugate_force(m, proc, j, 10_000)
            means.append(abs(est.mean))
        slope = np.polyfit(np.log(sigmas), np.log(means), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_real_eigenvalue_rejected(self):
        m = np.diag([1.0, 2.0])
        proc = PerturbationProcess(sigma2=1.0, seed=1)
        with pytest.raises(RealEigenvalue):
            stochastic.monte_carlo_conjugate_force(m, proc, 0, 10)

    def test_self_paired_rejected_before_sampling(self, monkeypatch):
        # |Im lambda| = 1e-6 lies inside the pairing tolerance, so lambda is
        # self-paired and every sample's summand would be singular
        m = np.array([[0.0, 1.0], [-1e-12, 0.0]])
        j = int(np.argmax(core.decompose(m).eigenvalues.imag))

        def no_draw(self, n, index):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(PerturbationProcess, "sample", no_draw)
        with pytest.raises(RealEigenvalue, match="self-paired"):
            stochastic.monte_carlo_conjugate_force(
                m, PerturbationProcess(seed=1), j, 10, tol=1e-5)

    @pytest.mark.parametrize("j", [-1, 8])
    def test_index_outside_spectrum_rejected_before_sampling(self, real_8x8,
                                                             monkeypatch, j):
        m, _, _ = real_8x8

        def no_draw(self, n, index):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(PerturbationProcess, "sample", no_draw)
        with pytest.raises(DimensionMismatch):
            stochastic.monte_carlo_conjugate_force(m, PerturbationProcess(seed=1), j, 10)
