"""End-to-end acceptance suite.

Each test covers one numbered criterion of the library contract and
prints a single pass line (visible with ``pytest -s`` / on failure).
All expected values come from independent oracles: central differences,
DFT formulas, exhaustive eigensolves, and seeded Monte Carlo.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from eigendyn import core, dynamics, engine, models, stochastic
from eigendyn.dynamics import MatrixTrajectory
from eigendyn.engine import ScenarioConfig


def report(num, name):
    print(f"criterion {num} ({name}): PASS")


def matched_eigenvalues(trajectory, t, reference):
    d = core.decompose(np.asarray(trajectory.value(t), dtype=complex))
    return d.eigenvalues[core.match_paths(reference, d).permutation]


def spectra_max_distance(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def test_criterion_1_velocity_oracle():
    start = time.perf_counter()
    delta = 1e-4
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        traj = MatrixTrajectory.polynomial(a, b)
        for t in (0.0, 0.35, 0.7):
            d = core.decompose(np.asarray(traj.value(t), dtype=complex))

            def central(h):
                wp = matched_eigenvalues(traj, t + h, d)
                wm = matched_eigenvalues(traj, t - h, d)
                return (wp - wm) / (2 * h)

            # Richardson-extrapolated central difference: the oracle must
            # be more accurate than the tolerance it certifies
            fd = (4 * central(delta / 2) - central(delta)) / 3
            for j in range(6):
                vel = dynamics.eigen_velocity(d, b, j)
                worst = max(worst, abs(vel - fd[j]) / max(abs(fd[j]), 1e-12))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6, f"max relative velocity error {worst:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s"
    report(1, "velocity oracle")


def test_criterion_2_acceleration_oracle():
    start = time.perf_counter()
    delta = 1e-3
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 6))
        traj = MatrixTrajectory.polynomial(a, b, c)
        for t in (0.1, 0.5):
            d = core.decompose(np.asarray(traj.value(t), dtype=complex))

            def second(h):
                wp = matched_eigenvalues(traj, t + h, d)
                wm = matched_eigenvalues(traj, t - h, d)
                return (wp - 2 * d.eigenvalues + wm) / h**2

            fd = (4 * second(delta / 2) - second(delta)) / 3
            mdot = np.asarray(traj.first_derivative(t), dtype=complex)
            mddot = np.asarray(traj.second_derivative(t), dtype=complex)
            for j in range(6):
                total = dynamics.eigen_acceleration(d, mdot, mddot, j).total
                worst = max(worst,
                            abs(total - fd[j]) / max(abs(fd[j]), 1e-12))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4, f"max relative acceleration error {worst:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    report(2, "acceleration oracle")


def test_criterion_3_circulant_equivalence():
    worst = 0.0
    for n in (4, 8, 16):
        rng = np.random.default_rng(n)
        row = rng.standard_normal(n)
        p = rng.standard_normal(n)
        c = dynamics.circulant_matrix(row)
        spectrum = dynamics.circulant_eigenvalues(row)
        basis = dynamics.dft_basis(n)
        d = core.decompose(c)
        zeros = np.zeros((n, n))
        for j in range(n):
            fast = dynamics.circulant_acceleration(basis, p, spectrum, j)
            # locate the same eigenvalue in the sorted general decomposition
            jg = int(np.argmin(np.abs(d.eigenvalues - spectrum[j])))
            general = dynamics.eigen_acceleration(d, np.diag(p), zeros, jg).total
            worst = max(worst, abs(fast - general) / max(abs(general), 1e-12))
    assert worst <= 1e-10, f"max relative mismatch {worst:.3e}"
    report(3, "circulant acceleration equivalence")


def test_criterion_4_expected_force_agreement():
    start = time.perf_counter()
    for seed in (11, 29, 47):
        m = np.random.default_rng(seed).standard_normal((8, 8))
        d = core.decompose(m)
        j = int(np.argmax(d.eigenvalues.imag))
        proc = stochastic.PerturbationProcess(
            kind="diagonal", sigma2=1.0, seed=seed)
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, 100_000)
        want = stochastic.expected_conjugate_force_iid(
            d, 1.0, j, kind="diagonal")
        gap = abs(est.mean - want)
        assert gap <= 3 * est.standard_error, (
            f"seed {seed}: |MC - closed form| = {gap:.3e} "
            f"> 3 x stderr = {3 * est.standard_error:.3e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    report(4, "expected conjugate force vs Monte Carlo")


def test_criterion_5_circulant_spectra():
    for n in range(3, 33):
        d_coef = 0.5 + 0.02 * n
        a = 0.1 * n - 1.0
        h = 0.3
        ring = models.BiophysicalRing(n=n, diffusion=d_coef, growth=a, tilt=h)

        omega = models.build_omega(ring)
        scale = max(np.linalg.norm(omega), 1.0)
        m = np.arange(n)
        plain = a - 2 * d_coef + 2 * d_coef * np.cos(2 * np.pi * m / n)
        err = spectra_max_distance(np.linalg.eigvals(omega), plain)
        assert err <= 1e-10 * scale, f"N={n}: plain ring error {err:.3e}"

        tilted = models.omega_le_spectrum(ring)
        err = spectra_max_distance(
            np.linalg.eigvals(models.build_omega_le(ring)), tilted)
        assert err <= 1e-10 * scale, f"N={n}: tilted ring error {err:.3e}"
    report(5, "ring spectra vs DFT formulas")


def test_criterion_6_s_matrix_closed_form():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if abs(a) < 1e-4:
            continue
        dd = (1.0 + b * c) / a  # det M = 1
        if abs(dd) < 1e-4:
            continue
        model = models.TransferMatrixModel.from_constant([[a, b], [c, dd]])
        data = models.scattering_data(model, 1.0)
        err = spectra_max_distance(
            [data.s_plus, data.s_minus],
            np.linalg.eigvals(data.s_matrix))
        assert err <= 1e-12, f"sample {checked}: eigenvalue error {err:.3e}"
        checked += 1

    worked = models.TransferMatrixModel.from_constant([[2.0, 1.0], [1.0, 1.0]])
    data = models.scattering_data(worked, 1.0)
    assert data.s_plus == pytest.approx(1.0 + 1.0j, abs=1e-12)
    assert data.s_minus == pytest.approx(1.0 - 1.0j, abs=1e-12)
    report(6, "closed-form S-matrix eigenvalues")


def test_criterion_7_attraction_divergence():
    # M(t) = [[0, 1], [-(1-t), 0]] has eigenvalues +-i sqrt(1-t)
    mdot = np.array([[0.0, 0.0], [1.0, 0.0]])
    ims = np.logspace(-3, -1, 25)
    mags = []
    for im in ims:
        m = np.array([[0.0, 1.0], [-(im * im), 0.0]])
        d = core.decompose(m)
        pairing = core.pair_conjugates(d)
        j = int(np.argmax(d.eigenvalues.imag))
        force = dynamics.conjugate_force(d, pairing, mdot, j,
                                         unsquared_form=True)
        mags.append(abs(force))
    slope = np.polyfit(np.log(ims), np.log(mags), 1)[0]
    assert abs(slope + 1.0) <= 0.05, f"log-log slope {slope:.4f}"

    raw = {
        "model": {"type": "explicit",
                  "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                  "velocity": [[0.0, 0.0], [1.0, 0.0]]},
        "time": {"t0": 0.0, "t1": 1.2, "steps": 120},
        "collision_threshold": 1e-2,
        "seed": 0,
    }
    record = engine.run_scenario(ScenarioConfig.from_dict(raw))
    step = 1.2 / 120
    pair_events = [e for e in record.events if e.pair != (-1, -1)]
    assert pair_events, "collision not detected"
    e = pair_events[0]
    assert e.t_lo - step <= 1.0 <= e.t_hi + step, (
        f"bracket [{e.t_lo}, {e.t_hi}] misses t=1 by more than one step")
    assert e.t_hi - e.t_lo == pytest.approx(step)
    report(7, "conjugate attraction divergence and collision bracket")


def test_criterion_8_conjugate_symmetry():
    tol = 1e-9

    def check(a, b, c):
        traj = MatrixTrajectory.polynomial(a, b, c)
        for t in (0.0, 0.4):
            m = np.asarray(traj.value(t), dtype=complex)
            d = core.decompose(m)
            w = d.eigenvalues
            scale = max(np.max(np.abs(w)), 1.0)
            # conjugate-closed spectrum
            for z in w:
                assert np.min(np.abs(w - z.conjugate())) <= tol * scale
            pairing = core.pair_conjugates(d, 1e-7)
            mdot = np.asarray(traj.first_derivative(t), dtype=complex)
            mddot = np.asarray(traj.second_derivative(t), dtype=complex)
            for j in range(len(w)):
                jb = int(pairing.partner[j])
                if jb == j:
                    continue
                vj = dynamics.eigen_velocity(d, mdot, j)
                vb = dynamics.eigen_velocity(d, mdot, jb)
                assert abs(vj - vb.conjugate()) <= tol * max(abs(vj), 1.0)
                aj = dynamics.eigen_acceleration(d, mdot, mddot, j).total
                ab = dynamics.eigen_acceleration(d, mdot, mddot, jb).total
                assert abs(aj - ab.conjugate()) <= tol * max(abs(aj), 1.0)

    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 4 + seed
        check(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
              rng.standard_normal((n, n)))
    # tilted rings (complex spectra on an ellipse) and the collision family
    for n, h in ((6, 0.5), (9, 1.0)):
        ring = models.BiophysicalRing(n=n, diffusion=1.0, tilt=h)
        m = models.build_omega_le(ring)
        check(m, np.diag(np.random.default_rng(n).standard_normal(n)),
              np.zeros((n, n)))
    check(np.array([[0.0, 1.0], [-1.0, 0.0]]),
          np.array([[0.0, 0.0], [1.0, 0.0]]), np.zeros((2, 2)))
    report(8, "conjugate symmetry across the corpus")


def test_criterion_9_determinism(tmp_path):
    raw = {
        "model": {"type": "ring", "sites": 6, "diffusion": 0.8,
                  "growth": 0.2, "tilt": 0.4},
        "time": {"t0": 0.0, "t1": 1.0, "steps": 20},
        "perturbation": {"kind": "diagonal", "sigma2": 0.5},
        "seed": 123,
    }
    texts = []
    for name in ("first", "second"):
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        target = tmp_path / f"{name}.json"
        engine.export(record, "json", target)
        texts.append(target.read_text())
    assert texts[0] == texts[1], "repeated runs produced different exports"
    data = json.loads(texts[0])
    assert data["provenance"]["seed"] == 123
    report(9, "seeded run determinism")
