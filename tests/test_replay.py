"""Replay of the console's records: in this process, and in child
processes that differ in their BLAS thread setting, their CPU set or
their warning filter; and the shipped scenarios' records against
committed fingerprints."""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from eigendyn import cli, engine

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import gate  # noqa: E402  the benchmark's fingerprint and its 1e-12 rule

SCENARIOS = ROOT / "scenarios"
BOTH = 'output.formats=["json","csv"]'

# an effective-Hamiltonian and a transfer model, which no shipped scenario
# uses
MODELS = {
    "effective_hamiltonian": {
        "model": {"type": "effective_hamiltonian",
                  "H": [[1.0, "0.5+0.2i", 0.0], ["0.5-0.2i", -0.3, "0.1i"],
                        [0.0, "-0.1i", 0.7]],
                  "lindblad": [{"L": [[0, 1, 0], [0, 0, 1], [0.3, 0, 0]],
                                "l": "0.4+0.2i", "l_rate": "0.3-0.5i"},
                               {"L": [["0.2i", 0, 0.5], [0, 0.1, 0],
                                      [0, "0.3+0.1i", 0]],
                                "l": "-0.6i", "l_rate": "0.25"}]},
        "time": {"t0": 0, "t1": 1, "steps": 400}, "tracked": "all"},
    "transfer": {
        "model": {"type": "transfer",
                  "entries": {"M11": ["1.312472403849563", "0.20647915598291816"],
                              "M12": ["0.7616121342493164"],
                              "M21": ["0.42569029623771215", "0.27353275370807756"],
                              "M22": ["1.0089438003898863"]}},
        "time": {"t0": 0.5, "t1": 2.0, "steps": 1000}, "tracked": "all"},
}
INPUTS = ["collision", "noisy", "ring", *MODELS]


def scenario_path(name, tmp_path):
    if name not in MODELS:
        return SCENARIOS / f"{name}.json"
    target = tmp_path / f"{name}.json"
    target.write_text(json.dumps(MODELS[name]))
    return target


def child_env(**changes):
    """The environment of a child that imports this checkout's package;
    a change to None removes the variable."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_child(argv, env):
    done = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name,overrides", [
    *[(name, []) for name in INPUTS],
    ("ring", ["--set", "time.t0=-1"]),  # at negative times t * 0 is -0.0
], ids=[*INPUTS, "ring-t0=-1"])
def test_validates_replays_and_passes_oracle(tmp_path, name, overrides):
    argv = ["--scenario", str(scenario_path(name, tmp_path)), *overrides]
    assert cli.main(["validate", *argv]) == cli.EXIT_OK
    for out in ("first", "second"):
        assert cli.main(["run", *argv, "--set", BOTH,
                         "--out", str(tmp_path / out)]) == cli.EXIT_OK
    for fmt in ("json", "csv"):
        first = (tmp_path / "first" / f"record.{fmt}").read_bytes()
        assert first == (tmp_path / "second" / f"record.{fmt}").read_bytes(), fmt
    # the oracle's fixed difference steps fail near the collision model's
    # exceptional point
    if name != "collision":
        assert cli.main(["oracle", *argv]) == cli.EXIT_OK


RUN_ALL = f"""
import sys
from eigendyn import cli
out, scenarios = sys.argv[1], sys.argv[2:]
for i, scenario in enumerate(scenarios):
    code = cli.main(["run", "--scenario", scenario, "--set", {BOTH!r},
                     "--out", f"{{out}}/{{i}}"])
    if code:
        sys.exit(code)
"""


def test_records_do_not_depend_on_blas_threads(tmp_path):
    # at n = 128 zgeev's bits depend on the thread count, so no input here
    # is that large
    scenarios = [str(scenario_path(name, tmp_path)) for name in INPUTS]
    settings = {
        "one": child_env(OPENBLAS_NUM_THREADS="1"),
        # a global setting in this environment would make the two alike
        "default": child_env(OPENBLAS_NUM_THREADS=None, OMP_NUM_THREADS=None),
    }
    for setting, env in settings.items():
        run_child(["-c", RUN_ALL, str(tmp_path / setting), *scenarios], env)
    for i, name in enumerate(INPUTS):
        for fmt in ("json", "csv"):
            one, default = (tmp_path / setting / str(i) / f"record.{fmt}"
                            for setting in settings)
            assert one.read_bytes() == default.read_bytes(), (name, fmt)


# 3 * 4096 + 5 samples fork one worker per further usable core, up to two
MONTE_CARLO = """
import os
import sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from eigendyn import core, stochastic
m = np.random.default_rng(42).standard_normal((8, 8))
d = core.decompose(m)
j = int(np.argmax(d.eigenvalues.imag))
for kind in ("diagonal", "full"):
    proc = stochastic.PerturbationProcess(kind=kind, seed=7)
    est = stochastic.monte_carlo_conjugate_force(m, proc, j, 3 * 4096 + 5)
    print(repr(est))
    want = stochastic.expected_conjugate_force_iid(d, proc.sigma2, j, kind)
    assert abs(est.mean - want) <= 4.5 * est.standard_error, (kind, est, want)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a Monte Carlo worker was left behind")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_monte_carlo_on_one_core_and_on_all():
    # the bits of the estimate may not depend on how many workers fill it,
    # and it lies within 4.5 standard errors of the closed form
    pinned, unpinned = (run_child(["-c", MONTE_CARLO, setting], child_env())
                        for setting in ("pinned", "unpinned"))
    assert pinned.count("MonteCarloEstimate(") == 2, pinned
    assert pinned == unpinned


def test_warning_as_error_exits_2(tmp_path):
    # an interpreter-wide filter: the model's warning that H is not
    # Hermitian is an invalid model, on one stderr line
    scenario = tmp_path / "eh.json"
    scenario.write_text(json.dumps({
        "model": {"type": "effective_hamiltonian",
                  "H": [["1-0.5i", 0.3], [0.3, "-1-0.2i"]]},
        "time": {"t0": 0, "t1": 1, "steps": 4}}))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "eigendyn.cli", "validate",
         "--scenario", str(scenario)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == cli.EXIT_INVALID
    assert done.stderr == "error: model: H is not Hermitian to tolerance\n"


# ROADMAP aim 2: a shipped scenario's record matches the committed one to
# 1e-12 relative.  The comparison is the benchmark gate's: per block of
# rows, sums of the eigenvalues, |eigenvalue|^2, velocities, |velocity|,
# |acceleration|, |conjugate_force| and |expected_force| and the flag
# count, then the event count and sum(t_lo + t_hi), each within
# 1e-12 * max(|reference|, scale).  A change that moves them re-records
# the file: gate.fingerprint of each record, one [value, scale] a line.
FINGERPRINTS = json.loads((ROOT / "tests" / "fingerprints.json").read_text())


def openblas_kernels() -> str:
    """The kernel and thread count of the OpenBLAS that numpy and scipy
    each bundle (numpy's exports its symbols with the suffix 64_);
    "unknown" where a library or a symbol is missing."""
    site = Path(numpy.__file__).parent.parent
    symbols = {"corename": ctypes.c_char_p, "num_threads": ctypes.c_int}
    found = []
    for module, suffix in (("numpy", "64_"), ("scipy", "")):
        libs = sorted(site.glob(f"{module}.libs/*openblas*"))
        lib = ctypes.CDLL(str(libs[0])) if libs else None
        answers = []
        for name, restype in symbols.items():
            call = getattr(lib, f"scipy_openblas_get_{name}{suffix}", None)
            if call is None:
                answers.append("unknown")
                continue
            call.argtypes, call.restype = [], restype
            answer = call()
            answers.append(answer.decode() if restype is ctypes.c_char_p else answer)
        found.append(f"{module}: kernel {answers[0]}, threads {answers[1]}")
    return "; ".join(found)


def fingerprint_failures(name):
    cfg = engine.ScenarioConfig.from_file(SCENARIOS / f"{name}.json")
    record = json.loads(engine.record_json(engine.run_scenario(cfg)))
    return gate.compare_fingerprint(gate.fingerprint(record), FINGERPRINTS[name])


@pytest.mark.parametrize("name", sorted(FINGERPRINTS))
def test_shipped_record_matches_its_fingerprint(name):
    # the fingerprints hold per OpenBLAS kernel (ROADMAP aim 3)
    assert fingerprint_failures(name) == [], openblas_kernels()


def test_fingerprint_fails_on_a_1e_10_change_of_the_velocities(monkeypatch):
    run = engine.run_scenario

    def nudged(cfg):
        record = run(cfg)
        return dataclasses.replace(record, velocity=record.velocity * (1 + 1e-10))

    monkeypatch.setattr(engine, "run_scenario", nudged)
    for name in FINGERPRINTS:
        failures = fingerprint_failures(name)
        assert failures and "differs from reference" in failures[0], name
