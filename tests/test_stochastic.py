import dataclasses
import multiprocessing
import os
import re
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigendyn import core, dynamics, stochastic
from eigendyn.errors import (DimensionMismatch, EigendynError, EmptyEstimate,
                             RealEigenvalue)
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
    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")], ids=repr)
    def test_rejects_a_non_finite_variance(self, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            PerturbationProcess(sigma2=sigma2)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown perturbation kind 'x'"):
            PerturbationProcess(kind="x")

    def test_zero_variance_zero(self):
        proc = PerturbationProcess(sigma2=0.0, seed=1)
        np.testing.assert_array_equal(proc.sample(3, 0), np.zeros((3, 3)))

    def test_replays_byte_identically(self):
        proc = PerturbationProcess(kind="full", sigma2=2.0, seed=7)
        a = proc.sample(4, 3)
        b = proc.sample(4, 3)
        assert np.array_equal(a, b)
        c = proc.sample(4, 4)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    @pytest.mark.parametrize("index", [-1, -4096, True, False, np.int64(-2)],
                             ids=repr)
    def test_rejects_a_negative_or_bool_index(self, kind, index):
        proc = PerturbationProcess(kind=kind, seed=3)
        with pytest.raises(ValueError,
                           match=rf"^sample index .*got {re.escape(repr(index))}$"):
            proc.sample(3, index)

    @pytest.mark.parametrize("index", [1.7, 1.0, "1", None, np.float64(2.0)],
                             ids=repr)
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        with pytest.raises(TypeError):
            PerturbationProcess(seed=3).sample(3, index)

    def test_accepts_a_numpy_integer_index(self):
        proc = PerturbationProcess(kind="full", seed=3)
        assert np.array_equal(proc.sample(3, np.int64(4097)), proc.sample(3, 4097))
        assert np.array_equal(proc.sample(3, np.uint8(5)),
                              reference_sample(proc, 3, 5))

    def test_diagonal_kind_off_diagonals_zero(self):
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=0)
        p = proc.sample(5, 0)
        assert not (p - np.diag(np.diag(p))).any()

    def test_diagonal_variance_law_of_large_numbers(self):
        n = 4
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=11)
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

    @pytest.mark.parametrize("j", [-1, 8])
    def test_index_outside_spectrum_raises(self, real_8x8, j):
        _, d, pairing = real_8x8
        with pytest.raises(DimensionMismatch):
            stochastic.expected_conjugate_force_iid(d, 1.0, j)
        with pytest.raises(DimensionMismatch):
            dynamics.conjugate_force(d, pairing, np.ones((8, 8)), j)

    def test_real_eigenvalue_raises(self):
        d = core.decompose(np.diag([1.0, 2.0]))
        with pytest.raises(RealEigenvalue):
            stochastic.expected_conjugate_force_iid(d, 1.0, 0)

    @pytest.mark.parametrize("sigma2", [-1.0, np.nan, np.inf])
    def test_sigma2_outside_the_law_raises(self, real_8x8, sigma2):
        _, d, _ = real_8x8
        j = complex_index(d)
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
            stochastic.expected_conjugate_force_iid(d, sigma2, j)
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0"):
            stochastic.expected_force_columns(d.left, d.right, d.eigenvalues,
                                              [j], sigma2, "diagonal")

    def test_unknown_kind_raises(self, real_8x8):
        _, d, _ = real_8x8
        with pytest.raises(ValueError, match="unknown kind 'x'"):
            stochastic.expected_force_columns(d.left, d.right, d.eigenvalues,
                                              [complex_index(d)], 1.0, "x")

    def test_zero_real_part_signed_as_a_complex_quotient(self, real_8x8):
        # -i t / (2 Im lambda) in complex arithmetic gives the real part
        # 0.0 / Im lambda; records print -0.0 and 0.0 differently
        _, d, _ = real_8x8
        cols = np.flatnonzero(d.eigenvalues.imag != 0)
        force = stochastic.expected_force_columns(d.left, d.right, d.eigenvalues,
                                                  cols, 0.7, "diagonal")
        im = d.eigenvalues[cols].imag
        assert (im < 0).any() and (im > 0).any()
        assert (force.real == 0).all()
        assert (np.signbit(force.real) == (im < 0)).all()

    def test_real_eigenvalue_column_is_nan_without_warning(self):
        # pyproject.toml turns a numpy RuntimeWarning into a failure
        d = core.decompose(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                     [0.0, -1.0, 0.0]]))
        force = stochastic.expected_force_columns(d.left, d.right,
                                                  d.eigenvalues, [0, 1, 2], 1.0)
        real = d.eigenvalues.imag == 0
        assert real.any() and not real.all()
        assert np.isnan(force[real].real).all() and np.isnan(force[real].imag).all()
        assert np.isfinite(force[~real]).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6),
           n=st.integers(2, 12), k=st.integers(1, 12),
           kind=st.sampled_from(["full", "diagonal"]),
           # no subnormal products, whose rounding is not relative
           sigma2=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
    def test_stack_matches_one_column_calls(self, seed, steps, n, k, kind, sigma2):
        # a column of a stacked call has the bits of a one-column call on
        # its step, and the value of the closed form
        rng = np.random.default_rng(seed)
        d = core.decompose(rng.standard_normal((steps, n, n)))
        cols = rng.integers(0, n, size=(steps, k))
        stack = stochastic.expected_force_columns(d.left, d.right, d.eigenvalues,
                                                  cols, sigma2, kind)
        assert stack.shape == cols.shape
        for s in range(steps):
            ds = d[s]
            for c, j in enumerate(cols[s].tolist()):
                one = stochastic.expected_force_columns(
                    ds.left, ds.right, ds.eigenvalues, [j], sigma2, kind)
                assert stack[s, c:c + 1].view(np.uint64).tolist() == \
                    one.view(np.uint64).tolist()
                im = ds.eigenvalues[j].imag
                if im == 0:
                    assert np.isnan(one[0])
                    continue
                assert stochastic.expected_conjugate_force_iid(
                    ds, sigma2, j, kind) == one[0]
                u2, v2 = np.abs(ds.left[:, j]) ** 2, np.abs(ds.right[:, j]) ** 2
                total = u2.sum() * v2.sum() if kind == "full" else u2 @ v2
                want = -1j * sigma2 * total / (2 * im)
                assert abs(one[0] - want) <= 1e-14 * abs(want)


# M = [[0, 1], [-1, 0.5]]: one conjugate pair, so every index names a
# complex eigenvalue
INDEXED_M = np.array([[0.0, 1.0], [-1.0, 0.5]])


def _index_entry_points():
    m = INDEXED_M
    d = core.decompose(m)
    pairing = core.pair_conjugates(d)
    mdot, mddot = np.array([[0.3, -1.0], [0.2, 0.7]]), np.eye(2)
    row = [1.0, 2.0]
    return {
        "eigen_velocity": lambda j: dynamics.eigen_velocity(d, mdot, j),
        "eigen_acceleration": lambda j: dynamics.eigen_acceleration(
            d, mdot, mddot, j, pairing),
        "circulant_acceleration": lambda j: dynamics.circulant_acceleration(
            dynamics.dft_basis(2), [0.5, -0.5],
            dynamics.circulant_eigenvalues(row), j),
        "conjugate_force": lambda j: dynamics.conjugate_force(d, pairing, mdot, j),
        "expected_conjugate_force_iid": lambda j:
            stochastic.expected_conjugate_force_iid(d, 1.0, j),
        "monte_carlo_conjugate_force": lambda j:
            stochastic.monte_carlo_conjugate_force(m, PerturbationProcess(seed=1),
                                                   j, 10),
    }


class TestIndexRule:
    """Every per-eigenvalue entry point takes j through operator.index and
    names an index outside 0..n-1, or a bool, as a DimensionMismatch."""

    ENTRY_POINTS = sorted(_index_entry_points())

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("j", [-1, 2, True], ids=repr)
    def test_index_outside_the_spectrum(self, name, j):
        with pytest.raises(DimensionMismatch, match=re.escape(repr(j))):
            _index_entry_points()[name](j)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("j", [1.0, "0"], ids=repr)
    def test_index_that_is_not_an_integer(self, name, j):
        with pytest.raises(TypeError):
            _index_entry_points()[name](j)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_numpy_integer_index(self, name):
        call = _index_entry_points()[name]
        want = call(1)
        got = call(np.int64(1))
        if isinstance(want, stochastic.MonteCarloEstimate):
            want, got = want.mean, got.mean
        assert got == want


class TestMonteCarlo:
    def test_zero_samples(self, real_8x8):
        m, d, _ = real_8x8
        proc = PerturbationProcess(sigma2=1.0, seed=1)
        for samples in (0, -1):
            with pytest.raises(EmptyEstimate):
                stochastic.monte_carlo_conjugate_force(m, proc, complex_index(d), samples)

    @pytest.mark.parametrize("samples", [True, 2.0, np.float64(3), "3", None], ids=repr)
    def test_samples_checked_before_decomposing(self, real_8x8, monkeypatch, samples):
        m, d, _ = real_8x8
        j = complex_index(d)

        def no_decompose(m):
            raise AssertionError("decomposed")

        monkeypatch.setattr(core, "decompose", no_decompose)
        with pytest.raises(ValueError, match="samples"):
            stochastic.monte_carlo_conjugate_force(m, PerturbationProcess(seed=1), j,
                                                   samples)

    def test_zero_variance(self, real_8x8):
        m, d, _ = real_8x8
        proc = PerturbationProcess(sigma2=0.0, seed=1)
        est = stochastic.monte_carlo_conjugate_force(m, proc, complex_index(d), 50)
        assert est.mean == 0
        assert est.standard_error == 0

    def test_one_sample_has_no_spread(self, real_8x8):
        m, d, pairing = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="full", seed=3)
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, 1)
        want = dynamics.pairwise_conjugate_summand(d, pairing, proc.sample(8, 0), j)
        assert est.mean == want
        assert est.standard_error_re == est.standard_error_im == 0.0

    def test_deterministic_given_seed(self, real_8x8):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="diagonal", sigma2=1.0, seed=123)
        a = stochastic.monte_carlo_conjugate_force(m, proc, j, 500)
        b = stochastic.monte_carlo_conjugate_force(m, proc, j, np.int64(500))
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

    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_matches_a_loop_over_the_bilinear_forms(self, real_8x8, kind):
        m, d, pairing = real_8x8
        j = complex_index(d)
        jbar = int(pairing.partner[j])
        u, v, w = d.left, d.right, d.eigenvalues
        proc = PerturbationProcess(kind=kind, sigma2=0.7, seed=5)
        samples = 2 * 4096 + 5
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, samples)
        vals = np.array([(u[:, jbar].conj() @ p @ v[:, j])
                         * (u[:, j].conj() @ p @ v[:, jbar]) / (w[j] - w[jbar])
                         for p in (proc.sample(8, i) for i in range(samples))])
        se = [float(x.std(ddof=1) / np.sqrt(samples)) for x in (vals.real, vals.imag)]
        assert abs(est.mean - vals.mean()) <= 1e-13 * abs(vals.mean())
        # a real M's summands are imaginary up to round-off: their real
        # parts, and so the first error, agree only to the scale of the
        # estimate
        for got, want in zip((est.standard_error_re, est.standard_error_im), se):
            assert abs(got - want) <= 1e-13 * max(se)

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
        # |Im lambda| = 1e-10 lies inside the pairing tolerance 1e-9, so
        # lambda is self-paired and every sample's summand would be singular
        m = np.array([[0.0, 1.0], [-1e-20, 0.0]])
        j = int(np.argmax(core.decompose(m).eigenvalues.imag))

        def no_draw(self, n, index):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(PerturbationProcess, "sample", no_draw)
        with pytest.raises(RealEigenvalue, match="self-paired"):
            stochastic.monte_carlo_conjugate_force(
                m, PerturbationProcess(seed=1), j, 10)

    @pytest.mark.parametrize("j", [-1, 8])
    def test_index_outside_spectrum_rejected_before_sampling(self, real_8x8,
                                                             monkeypatch, j):
        m, _, _ = real_8x8

        def no_draw(self, n, index):
            raise AssertionError("drew a sample")

        monkeypatch.setattr(PerturbationProcess, "sample", no_draw)
        with pytest.raises(DimensionMismatch):
            stochastic.monte_carlo_conjugate_force(m, PerturbationProcess(seed=1), j, 10)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def no_fork():
    raise AssertionError("forked")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestMonteCarloWorkers:
    """From 2 * 4096 samples the estimate forks one worker per further
    usable core; these tests never ask for more workers than that."""

    @pytest.mark.parametrize("samples", [4095, 4096, 8191, 8192, 3 * 4096 + 5])
    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    def test_one_worker_and_all_agree_bit_for_bit(self, real_8x8, monkeypatch,
                                                  kind, samples):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind=kind, sigma2=1.5, seed=2**40 + 9)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", counted_fork)
            every = stochastic.monte_carlo_conjugate_force(m, proc, j, samples)
        assert len(forks) == max(1, min(usable_cores(), samples // 4096)) - 1
        assert no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        one = stochastic.monte_carlo_conjugate_force(m, proc, j, samples)
        assert dataclasses.astuple(one) == dataclasses.astuple(every)

    @pytest.mark.skipif(usable_cores() < 2, reason="one usable core: no worker forks")
    @pytest.mark.parametrize("failing,error,message", [
        (10, FloatingPointError, "parent's range"),
        (5000, EigendynError, r"samples \[4096, 8192\)"),
    ])
    def test_no_child_survives_a_failing_range(self, real_8x8, monkeypatch,
                                               failing, error, message):
        # 2 * 4096 samples: this process fills [0, 4096), one child the rest
        m, d, _ = real_8x8
        sample = PerturbationProcess.sample

        def failing_sample(self, n, index):
            if index == failing:
                raise FloatingPointError("parent's range" if index < 4096 else "child's")
            if index == 4096 and failing < 4096:
                time.sleep(60)  # the child is stopped, not waited for
            return sample(self, n, index)

        monkeypatch.setattr(PerturbationProcess, "sample", failing_sample)
        start = time.monotonic()
        with pytest.raises(error, match=message):
            stochastic.monte_carlo_conjugate_force(
                m, PerturbationProcess(seed=1), complex_index(d), 2 * 4096)
        assert time.monotonic() - start < 30
        assert no_child_left()

    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_failed_fork_fills_the_rest_in_process(self, real_8x8, monkeypatch,
                                                   failing_fork):
        samples = 3 * 4096 + 5  # three workers on three usable cores
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="full", seed=6)
        forks = []
        fork = os.fork

        def failing():
            forks.append(None)
            if len(forks) == failing_fork:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                          raising=False)
            patch.setattr(os, "cpu_count", lambda: 3)
            patch.setattr(os, "fork", failing)
            forked = stochastic.monte_carlo_conjugate_force(m, proc, j, samples)
        assert len(forks) == failing_fork
        assert no_child_left()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(os, "fork", no_fork)
        one = stochastic.monte_carlo_conjugate_force(m, proc, j, samples)
        assert dataclasses.astuple(one) == dataclasses.astuple(forked)

    @pytest.mark.skipif(usable_cores() < 2, reason="one usable core: no worker forks")
    def test_no_child_survives_an_interrupted_wait(self, real_8x8, monkeypatch):
        m, d, _ = real_8x8
        sample = PerturbationProcess.sample

        def slow_child(self, n, index):
            if index == 4096:
                time.sleep(60)  # the child is stopped, not waited for
            return sample(self, n, index)

        waitpid = os.waitpid
        waits = []

        def interrupted(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(PerturbationProcess, "sample", slow_child)
        start = time.monotonic()
        with monkeypatch.context() as patch:
            patch.setattr(os, "waitpid", interrupted)
            with pytest.raises(KeyboardInterrupt):
                stochastic.monte_carlo_conjugate_force(
                    m, PerturbationProcess(seed=1), complex_index(d), 2 * 4096)
        assert time.monotonic() - start < 30
        assert waits[1:] == waits[:1]  # the interrupted child is reaped
        assert no_child_left()

    @pytest.mark.skipif(usable_cores() < 2, reason="one usable core: no worker forks")
    @pytest.mark.parametrize("error,traceback", [
        (KeyboardInterrupt, False), (FloatingPointError, True)])
    def test_interrupted_child_prints_no_traceback(self, real_8x8, monkeypatch,
                                                   capfd, error, traceback):
        m, d, _ = real_8x8
        sample = PerturbationProcess.sample

        def failing_child(self, n, index):
            if index == 5000:
                raise error
            return sample(self, n, index)

        monkeypatch.setattr(PerturbationProcess, "sample", failing_child)
        with pytest.raises(EigendynError, match=r"samples \[4096, 8192\)"):
            stochastic.monte_carlo_conjugate_force(
                m, PerturbationProcess(seed=1), complex_index(d), 2 * 4096)
        assert ("Traceback" in capfd.readouterr().err) == traceback
        assert no_child_left()

    @pytest.mark.parametrize("cpu_count,workers", [(3, 3), (None, 1)])
    def test_cores_without_an_affinity_mask(self, monkeypatch, cpu_count, workers):
        # where os.sched_getaffinity is missing, os.cpu_count() counts the
        # cores, and one is assumed when it cannot tell
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert stochastic._workers(4 * 4096) == workers

    def test_stays_in_process(self, real_8x8, monkeypatch):
        m, d, _ = real_8x8
        j = complex_index(d)
        proc = PerturbationProcess(kind="full", seed=4)
        monkeypatch.setattr(os, "fork", no_fork)
        # below two blocks
        stochastic.monte_carlo_conjugate_force(m, proc, j, 2 * 4096 - 1)
        # inside a multiprocessing worker
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing, "parent_process", lambda: object())
            stochastic.monte_carlo_conjugate_force(m, proc, j, 2 * 4096)
        # beside another Python thread
        results = []
        thread = threading.Thread(target=lambda: results.append(
            stochastic.monte_carlo_conjugate_force(m, proc, j, 2 * 4096)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(results) == 1
