"""Correctness gate: checks one operation's output without the program.

The gate rebuilds M(t) from the scenario document itself and compares the
recorded run against plain numpy/scipy.  An operation fails on any
message returned by :func:`check_record` or :func:`check_mc`.

Checks on a scenario record:

* one row per time step;
* at sampled steps the recorded eigenvalues equal
  ``numpy.linalg.eigvals(M(t))`` as sets;
* for real M the spectrum is closed under conjugation, and with every
  eigenvalue tracked the velocities of a conjugate pair are conjugate;
* with every eigenvalue tracked, sum_j velocity_j = tr Mdot at every step;
* a known collision time lies within one step of a reported bracket;
* the fingerprint matches a stored reference to 1e-12 relative.

Checks on a Monte Carlo estimate: the requested sample count, a finite
standard error, ``|MC - closed form| <= Z_BOUND`` standard errors with the
closed form evaluated from scipy's eigenvectors, and the reference.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

FLAGS = ("degenerate", "ambiguous-match", "pairing-failed", "near-real",
         "singular-gap", "jump")

EIG_RTOL = 1e-7      # eigenvalue sets; covers the sqrt(eps) of a Jordan block
TRACE_RTOL = 1e-8    # sum of velocities against tr Mdot
REF_RTOL = 1e-12     # reference fingerprints (ROADMAP: records match to 1e-12)
# a correct estimator exceeds 4.5 standard errors with probability
# about 7e-6 (two-sided normal tail)
Z_BOUND = 4.5
SAMPLED_ROWS = 6
FINGERPRINT_BLOCKS = 8


def _complex(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    return complex(str(x).replace(" ", "").replace("i", "j"))


def _matrix(spec, base_dir) -> np.ndarray:
    if isinstance(spec, str):
        lines = (base_dir / spec).read_text().splitlines()
        spec = [ln.split() for ln in lines if ln.strip() and not ln.startswith("#")]
    return np.array([[_complex(x) for x in row] for row in spec], dtype=complex)


class ScenarioModel:
    """M(t) and tr Mdot(t) of a scenario document, without the noise."""

    def __init__(self, scenario: dict, base_dir):
        model = scenario["model"]
        self.kind = model["type"]
        if self.kind == "ring":
            n = int(model["sites"])
            d, a = float(model.get("diffusion", 1.0)), float(model.get("growth", 0.0))
            h = float(model.get("tilt", 0.0))
            self.u0 = np.asarray(model.get("fluctuations", np.zeros(n)), dtype=float)
            self.u1 = np.asarray(model.get("fluctuation_rate", np.zeros(n)), dtype=float)
            base = np.zeros((n, n))
            idx = np.arange(n)
            base[idx, (idx + 1) % n] = d * np.exp(h)
            base[idx, (idx - 1) % n] = d * np.exp(-h)
            base[idx, idx] = a - 2 * d
            self.base = base
        elif self.kind == "explicit":
            self.a = _matrix(model["matrix"], base_dir)
            zero = np.zeros_like(self.a)
            self.b = _matrix(model["velocity"], base_dir) if "velocity" in model else zero
            self.c = (_matrix(model["acceleration"], base_dir)
                      if "acceleration" in model else zero)
        elif self.kind == "transfer":
            self.entries = {k: [_complex(c) for c in v]
                            for k, v in model["entries"].items()}
        elif self.kind == "effective_hamiltonian":
            self.h = _matrix(model["H"], base_dir)
            self.ops = [_matrix(it["L"], base_dir) for it in model.get("lindblad", [])]
            self.l0 = [_complex(it.get("l", 0)) for it in model.get("lindblad", [])]
            self.l1 = [_complex(it.get("l_rate", 0)) for it in model.get("lindblad", [])]
        else:
            raise ValueError(f"gate: unknown model type {self.kind!r}")

    @property
    def real(self) -> bool:
        if self.kind == "ring":
            return True
        if self.kind == "explicit":
            return not any(np.iscomplexobj(m) and np.any(m.imag)
                           for m in (self.a, self.b, self.c))
        if self.kind == "transfer":
            return all(c.imag == 0 for v in self.entries.values() for c in v)
        return False

    def matrix(self, t: float) -> np.ndarray:
        if self.kind == "ring":
            return self.base + np.diag(self.u0 + t * self.u1)
        if self.kind == "explicit":
            return self.a + t * self.b + t * t * self.c
        if self.kind == "transfer":
            m = {k: sum(c * t**p for p, c in enumerate(v))
                 for k, v in self.entries.items()}
            m22 = m["M22"]
            return np.array([[1 / m22, m["M12"] / m22],
                             [-m["M21"] / m22, 1 / m22]])
        acc = np.zeros_like(self.h)
        for op, a, b in zip(self.ops, self.l0, self.l1):
            lam = a + t * b
            acc = acc + np.conjugate(lam) * op - lam * op.conj().T
        return self.h + 0.5j * acc

    def trace_mdot(self, t: float):
        """tr Mdot(t), or None where the program differentiates
        numerically (transfer models)."""
        if self.kind == "ring":
            return complex(self.u1.sum())
        if self.kind == "explicit":
            return complex(np.trace(self.b) + 2 * t * np.trace(self.c))
        if self.kind == "effective_hamiltonian":
            acc = sum((np.conjugate(b) * np.trace(op) - b * np.trace(op).conjugate()
                       for op, b in zip(self.ops, self.l1)), 0j)
            return complex(0.5j * acc)
        return None


def noise_draws(scenario: dict, n: int, count: int) -> list:
    """The perturbation matrices P_0..P_{count-1} of a scenario.

    Mirrors the documented stream of ``PerturbationProcess``: sample i is
    drawn from ``SeedSequence(seed, spawn_key=(i,))``."""
    pert = scenario["perturbation"]
    seed = int(pert.get("seed", scenario.get("seed", 0)))
    scale = np.sqrt(float(pert.get("sigma2", 1.0)))
    out = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        if pert.get("kind", "diagonal") == "diagonal":
            out.append(np.diag(rng.standard_normal(n) * scale))
        else:
            out.append(rng.standard_normal((n, n)) * scale)
    return out


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _match_distance(a: np.ndarray, b: np.ndarray) -> float:
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def fingerprint(rec: dict) -> list:
    """[value, scale] pairs summarising a record in blocks of rows: sums
    of eigenvalues, velocities, acceleration and force magnitudes, and
    flag and event counts.  Entries compare to REF_RTOL * scale."""
    rows = rec["rows"]
    out = []
    for block in np.array_split(np.arange(len(rows)), FINGERPRINT_BLOCKS):
        lam, vel, acc, cf, ef, flags = [], [], [], [], [], 0
        for k in block:
            row = rows[k]
            lam.extend(_c(z) for z in row["eigenvalues"])
            flags += len(row["flags"])
            for tv in row["tracked"].values():
                vel.append(_c(tv["velocity"]))
                if tv["inertial"] is not None:
                    acc.append(_c(tv["inertial"]) + _c(tv["conjugate_term"])
                               + _c(tv["others"]))
                if tv["conjugate_force"] is not None:
                    cf.append(_c(tv["conjugate_force"]))
                if tv["expected_force"] is not None:
                    ef.append(_c(tv["expected_force"]))
                flags += len(tv["flags"])
        lam, vel = np.array(lam, dtype=complex), np.array(vel, dtype=complex)
        s_lam, s_vel = float(np.abs(lam).sum()), float(np.abs(vel).sum())
        s_acc = float(np.abs(acc).sum()) if acc else 0.0
        s_cf = float(np.abs(cf).sum()) if cf else 0.0
        s_ef = float(np.abs(ef).sum()) if ef else 0.0
        out += [
            [lam.sum().real, s_lam], [lam.sum().imag, s_lam],
            [float((np.abs(lam) ** 2).sum()), s_lam**2],
            [vel.sum().real, s_vel], [vel.sum().imag, s_vel], [s_vel, s_vel],
            [s_acc, s_acc], [s_cf, s_cf], [s_ef, s_ef], [flags, 1.0],
        ]
    events = rec["events"]
    span = sum(abs(e["t_lo"]) + abs(e["t_hi"]) for e in events)
    out += [[len(events), 1.0],
            [sum(e["t_lo"] + e["t_hi"] for e in events), max(span, 1.0)]]
    return out


def compare_fingerprint(got: list, ref: list) -> list:
    if len(got) != len(ref):
        return [f"fingerprint has {len(got)} entries, reference {len(ref)}"]
    bad = [i for i, ((g, _), (r, s)) in enumerate(zip(got, ref))
           if not abs(g - r) <= REF_RTOL * max(abs(r), s)]
    if bad:
        i = bad[0]
        return [f"fingerprint differs from reference at {len(bad)} entries "
                f"(first: #{i}: {got[i][0]!r} vs {ref[i][0]!r})"]
    return []


def flag_counts(rec: dict) -> dict:
    counts = dict.fromkeys(FLAGS, 0)
    for row in rec["rows"]:
        for f in row["flags"]:
            counts[f] = counts.get(f, 0) + 1
        for tv in row["tracked"].values():
            for f in tv["flags"]:
                counts[f] = counts.get(f, 0) + 1
    return counts


def check_record(inp: dict, rec: dict, base_dir, reference=None) -> list:
    """Failure messages for one scenario record (empty when it passes)."""
    scenario = inp["scenario"]
    steps = int(scenario["time"]["steps"])
    rows = rec["rows"]
    if len(rows) != steps + 1:
        return [f"{len(rows)} rows for {steps} steps"]
    fails = []
    model = ScenarioModel(scenario, base_dir)
    t0, t1 = float(scenario["time"]["t0"]), float(scenario["time"]["t1"])
    dt = (t1 - t0) / steps
    n = len(rows[0]["eigenvalues"])
    all_tracked = scenario.get("tracked", "all") == "all"
    noise = (noise_draws(scenario, n, steps + 1)
             if scenario.get("perturbation") is not None else None)
    cum = np.cumsum([np.zeros((n, n))] + [dt * p for p in noise[:-1]], axis=0) \
        if noise is not None else None

    sampled = sorted(set(np.linspace(0, steps, SAMPLED_ROWS).round().astype(int)))
    for k in sampled:
        t = rows[k]["t"]
        m = model.matrix(t) + (cum[k] if cum is not None else 0)
        lam = np.array([_c(z) for z in rows[k]["eigenvalues"]])
        tol = EIG_RTOL * max(1.0, float(np.linalg.norm(m)))
        ref = np.linalg.eigvals(m)
        if len(lam) != len(ref) or _match_distance(lam, ref) > tol:
            fails.append(f"t={t:.6g}: eigenvalues differ from eigvals(M(t))")
            continue
        if model.real:
            if _match_distance(lam, lam.conj()) > tol:
                fails.append(f"t={t:.6g}: spectrum not closed under conjugation")
            elif all_tracked:
                fails += _velocity_conjugacy(rows[k], lam, tol)

    if all_tracked:
        for k, row in enumerate(rows):
            tr = model.trace_mdot(row["t"])
            if tr is None:
                break
            if noise is not None:
                tr += np.trace(noise[k])
            vel = [_c(tv["velocity"]) for tv in row["tracked"].values()]
            if abs(sum(vel) - tr) > TRACE_RTOL * (1 + abs(tr) + sum(map(abs, vel))):
                fails.append(f"t={row['t']:.6g}: sum of velocities {sum(vel)} "
                             f"!= tr Mdot {tr}")
                break

    if "collision_t" in inp:
        tc = inp["collision_t"]
        if not any(e["pair"] != [-1, -1] and e["t_lo"] - dt <= tc <= e["t_hi"] + dt
                   for e in rec["events"]):
            fails.append(f"no collision bracket within one step of t={tc}")

    if reference is not None:
        fails += compare_fingerprint(fingerprint(rec), reference)
    return fails


def _velocity_conjugacy(row: dict, lam: np.ndarray, tol: float) -> list:
    vel = {int(j): _c(tv["velocity"]) for j, tv in row["tracked"].items()}
    scale = 1.0 + max(map(abs, vel.values()))
    for j, z in enumerate(lam):
        if abs(z.imag) < 1e-3:
            continue
        dist = np.abs(lam - z.conjugate())
        dist[j] = np.inf
        p, near = int(np.argmin(dist)), float(dist.min())
        dist[p] = np.inf
        if near > tol or dist.min() < 10 * max(near, 1e-3):
            continue  # partner not unambiguous; nothing to compare
        if abs(vel[p] - vel[j].conjugate()) > TRACE_RTOL * scale:
            return [f"t={row['t']:.6g}: velocities of a conjugate pair "
                    f"({j}, {p}) are not conjugate"]
    return []


def closed_form_force(m, kind: str, sigma2: float) -> complex:
    """E[F(conj(lambda) -> lambda)] for the eigenvalue with largest Im,
    from scipy's eigenvectors in the biorthonormal convention."""
    w, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    j = int(np.argmax(w.imag))
    v = vr[:, j] / np.linalg.norm(vr[:, j])
    u = vl[:, j] / np.conjugate(vl[:, j].conj() @ v)
    u2, v2 = np.abs(u) ** 2, np.abs(v) ** 2
    total = u2 @ v2 if kind == "diagonal" else u2.sum() * v2.sum()
    return complex(-1j * sigma2 * total / (2.0 * w[j].imag))


def mc_fingerprint(mean: complex, se: float) -> list:
    scale = abs(mean)
    return [[mean.real, scale], [mean.imag, scale], [se, se]]


def check_mc(inp: dict, mean: complex, se: float, samples: int,
             reference=None) -> tuple:
    """(failure messages, z-score) for one Monte Carlo estimate."""
    scenario = inp["scenario"]
    m = ScenarioModel(scenario, None).matrix(scenario["time"]["t0"]).real
    pert = scenario["perturbation"]
    cf = closed_form_force(m, pert["kind"], float(pert["sigma2"]))
    z = abs(mean - cf) / se if se > 0 and np.isfinite(se) else float("inf")
    fails = []
    if samples != inp["samples"]:
        fails.append(f"{samples} samples used, {inp['samples']} requested")
    if not z <= Z_BOUND:
        fails.append(f"|MC - closed form| = {z:.2f} standard errors > {Z_BOUND}")
    if reference is not None:
        fails += compare_fingerprint(mc_fingerprint(mean, se), reference)
    return fails, z
