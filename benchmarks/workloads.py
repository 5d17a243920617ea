"""Benchmark inputs as a pure function of (workload, seed).

``make(name, seed, shipped)`` returns a JSON-serialisable description of
one workload: its inputs in the order the closed loop runs them.  Every
random choice comes from ``numpy.random.default_rng(seed)``, so the same
seed gives the same inputs.  ``shipped`` maps the file names of the
repository's ``scenarios/`` directory to their contents; only
``cli_corpus`` uses it.

Each input is one operation.  ``file`` is its scenario file, written
from ``content``, or copied unchanged from ``scenarios/`` when
``content`` is None.

* kind "scenario": ``eigendyn run`` on ``file`` with ``argv`` appended.
  ``scenario`` is the effective scenario after the overrides, which the
  correctness gate uses to rebuild M(t) on its own; ``steps`` is the
  number of scenario time steps the run completes.
* kind "mc": ``monte_carlo_conjugate_force`` on the matrix of the
  explicit scenario in ``file``, for its eigenvalue of largest imaginary
  part, with ``samples`` samples.
"""

from __future__ import annotations

import copy

import numpy as np

NAMES = ("ring_scan", "ring_watch", "cli_corpus", "mc_force")

RING_STEPS = 50
MC_SAMPLES = 100_000
BOTH_FORMATS = '["json","csv"]'


def _ring(rng, n: int, tracked="all", perturbation=None) -> dict:
    # a small tilt keeps the eigenvector condition numbers moderate at
    # n = 128, so the gate can compare against an independent eigvals;
    # the site disorder lifts the circulant's degenerate pairs.  The
    # model constants are fixed and the seed draws only the disorder: the
    # constants change how much work the eigensolver does, and that would
    # read as run-to-run spread
    scenario = {
        "model": {
            "type": "ring",
            "sites": n,
            "diffusion": 1.0,
            "growth": 0.1,
            "tilt": 0.03,
            "fluctuations": [float(x) for x in rng.normal(0.0, 0.3, n)],
            "fluctuation_rate": [float(x) for x in rng.normal(0.0, 0.2, n)],
        },
        "time": {"t0": 0.0, "t1": 1.0, "steps": RING_STEPS},
        "tracked": tracked,
        "collision_threshold": 1e-6,
        "seed": int(rng.integers(0, 2**31)),
        "output": {"formats": ["json"]},
    }
    if perturbation is not None:
        scenario["perturbation"] = perturbation
    return scenario


def _generated(name: str, scenario: dict) -> dict:
    return {
        "name": name,
        "kind": "scenario",
        "file": f"{name}.json",
        "content": scenario,
        "argv": [],
        "scenario": scenario,
        "steps": scenario["time"]["steps"],
    }


def _shipped(name: str, shipped: dict, steps: int) -> dict:
    scenario = copy.deepcopy(shipped[f"{name}.json"])
    scenario["time"]["steps"] = steps
    scenario["output"] = {"formats": ["json", "csv"]}
    return {
        "name": name,
        "kind": "scenario",
        "file": f"{name}.json",
        "content": None,  # the shipped file is copied unchanged
        "argv": ["--set", f"time.steps={steps}",
                 "--set", f"output.formats={BOTH_FORMATS}"],
        "scenario": scenario,
        "steps": steps,
    }


def _transfer(rng, steps: int) -> dict:
    # det M = M11 M22 - M12 M21 = 1 for every k by construction, and
    # 1 - M11 M22 = -b (c0 + c1 k) < 0 keeps S's eigenvalues a complex
    # conjugate pair (no exceptional point on the range)
    b = rng.uniform(0.5, 1.5)
    d = rng.uniform(0.8, 1.5)
    c0 = rng.uniform(0.1, 0.5)
    c1 = rng.uniform(0.2, 1.0)

    def coeffs(*xs):
        return [f"{float(x):.17g}" for x in xs]

    scenario = {
        "model": {
            "type": "transfer",
            "entries": {
                "M11": coeffs((1.0 + b * c0) / d, b * c1 / d),
                "M12": coeffs(b),
                "M21": coeffs(c0, c1),
                "M22": coeffs(d),
            },
        },
        "time": {"t0": 0.5, "t1": 2.0, "steps": steps},
        "tracked": "all",
        "collision_threshold": 1e-6,
        "seed": 0,
        "output": {"formats": ["json", "csv"]},
    }
    return _generated("transfer", scenario)


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def _rows(m: np.ndarray) -> list:
    return [[f"{z.real:.17g}{z.imag:+.17g}i" for z in row] for row in m]


def _effective_hamiltonian(rng, steps: int) -> dict:
    n = 6
    lindblad = []
    for _ in range(2):
        op = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        lindblad.append({
            "L": _rows(op),
            "l": f"{rng.normal():.17g}{rng.normal():+.17g}i",
            "l_rate": f"{rng.normal():.17g}{rng.normal():+.17g}i",
        })
    scenario = {
        "model": {
            "type": "effective_hamiltonian",
            "H": _rows(_hermitian(rng, n)),
            "lindblad": lindblad,
        },
        "time": {"t0": 0.0, "t1": 1.0, "steps": steps},
        "tracked": "all",
        "collision_threshold": 1e-6,
        "seed": 0,
        "output": {"formats": ["json", "csv"]},
    }
    return _generated("effective_hamiltonian", scenario)


def _mc_matrix(rng, n: int = 8) -> np.ndarray:
    """A real Gaussian matrix whose eigenvalue of largest imaginary part
    is well inside the upper half plane and well separated."""
    while True:
        m = rng.normal(size=(n, n))
        w = np.linalg.eigvals(m)
        gaps = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(gaps, np.inf)
        if w.imag.max() > 0.3 and gaps.min() > 0.05:
            return m


def _mc(rng, kind: str) -> dict:
    m = _mc_matrix(rng)
    scenario = {
        "model": {"type": "explicit", "matrix": m.tolist()},
        "time": {"t0": 0.0, "t1": 1.0, "steps": 1},
        "perturbation": {"kind": kind, "sigma2": float(rng.uniform(0.5, 2.0)),
                         "seed": int(rng.integers(0, 2**31))},
    }
    name = f"mc_{kind}"
    return {
        "name": name,
        "kind": "mc",
        "file": f"{name}.json",
        "content": scenario,
        "scenario": scenario,
        "samples": MC_SAMPLES,
    }


def make(name: str, seed: int, shipped: dict | None = None) -> dict:
    """The inputs of workload ``name`` for ``seed`` (pure function)."""
    rng = np.random.default_rng([NAMES.index(name), int(seed)])
    if name == "ring_scan":
        # the costly input first: a run then ends after 128, 64, 128, and
        # the repeat that checks determinism also samples the costly input
        inputs = [_generated(f"ring{n}", _ring(rng, n)) for n in (128, 64)]
    elif name == "ring_watch":
        tracked = sorted(int(i) for i in rng.choice(128, size=3, replace=False))
        pert = {"kind": "diagonal", "sigma2": 0.02}
        inputs = [_generated("ring128_watch",
                             _ring(rng, 128, tracked=tracked, perturbation=pert))]
    elif name == "cli_corpus":
        if shipped is None:
            raise ValueError("cli_corpus needs the shipped scenarios")
        # fixed step counts keep the mix of cheap and costly steps, and so
        # the throughput, independent of the seed
        inputs = [
            _shipped("ring", shipped, 1000),
            dict(_shipped("collision", shipped, 2000),
                 collision_t=1.0),  # the pair +-i sqrt(1 - t) meets at t = 1
            _shipped("noisy", shipped, 2000),
            _transfer(rng, 1000),
            _effective_hamiltonian(rng, 1000),
        ]
    elif name == "mc_force":
        inputs = [_mc(rng, "diagonal"), _mc(rng, "full")]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # cli_corpus reads every record back; the others only write it
    return {"workload": name, "seed": int(seed), "inputs": inputs,
            "load_back": name == "cli_corpus"}
