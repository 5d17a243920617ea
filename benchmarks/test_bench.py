"""Tests of the benchmark itself: inputs, span arithmetic, patching, gate."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from eigendyn import cli, dynamics, engine, stochastic  # noqa: E402


def shipped() -> dict:
    return {p.name: json.loads(p.read_text())
            for p in (HERE.parent / "scenarios").glob("*.json")}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_is_a_pure_function_of_the_seed(name):
    def text(seed):
        return json.dumps(workloads.make(name, seed, shipped()), sort_keys=True)

    assert text(3) == text(3)
    assert text(3) != text(4)


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.self_times() == {"outer": 5.0, "inner": 5.0}
    assert tracer.counts["outer.calls"] == 1 and tracer.counts["inner.calls"] == 2


def test_wrappers_patch_call_sites_and_restore_originals():
    targets = [getattr(sys.modules[mod], attr) for mod, attr, _, _ in spans.TARGETS]
    targets += [engine.build_trajectory]
    before = {id(obj): spans.binding_sites(obj) for obj in targets}
    sample = stochastic.PerturbationProcess.sample
    assert before[id(dynamics.pairwise_conjugate_summand)]  # bound in stochastic too

    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert all(spans.binding_sites(obj) == [] for obj in targets)
        proc = stochastic.PerturbationProcess(kind="full", seed=1)
        stochastic.monte_carlo_conjugate_force(m, proc, 1, 5)
    # stochastic looks the summand up by its own name, dynamics looks up
    # conjugate_force by module global: both were reached
    assert tracer.counts["stochastic.pairwise_conjugate_summand.calls"] == 5
    assert tracer.counts["dynamics.conjugate_force.calls"] == 5
    assert tracer.counts["stochastic.PerturbationProcess.sample.calls"] == 5
    assert tracer.counts["core.decompose.calls"] == 1
    for obj in targets:
        assert spans.binding_sites(obj) == before[id(obj)]
    assert stochastic.PerturbationProcess.sample is sample


def _small_record(tmp_path) -> tuple:
    rng = np.random.default_rng(5)
    scenario = workloads._ring(rng, 8)
    scenario["time"]["steps"] = 12
    path = tmp_path / "ring8.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    inp = {"name": "ring8", "scenario": scenario}
    return inp, json.loads((out / "record.json").read_text())


def test_gate_rejects_corrupted_records(tmp_path):
    inp, rec = _small_record(tmp_path)
    reference = gate.fingerprint(rec)
    assert gate.check_record(inp, rec, tmp_path, reference) == []

    bad = json.loads(json.dumps(rec))
    tv = bad["rows"][5]["tracked"]["3"]
    tv["velocity"][0] += 1e-6
    assert any("sum of velocities" in f
               for f in gate.check_record(inp, bad, tmp_path))
    assert gate.check_record(inp, bad, tmp_path, reference) != []

    flipped = json.loads(json.dumps(rec))
    flipped["rows"][7]["flags"].append("jump")
    fails = gate.check_record(inp, flipped, tmp_path, reference)
    assert any("fingerprint" in f for f in fails)

    moved = json.loads(json.dumps(rec))
    moved["rows"][-1]["eigenvalues"][0][0] += 1e-3
    assert any("eigvals" in f for f in gate.check_record(inp, moved, tmp_path))


def test_mc_gate_rejects_an_estimate_off_the_closed_form():
    spec = workloads.make("mc_force", 0, None)
    inp = spec["inputs"][0]
    scenario = inp["scenario"]
    m = np.array(scenario["model"]["matrix"])
    cf = gate.closed_form_force(m, "diagonal", scenario["perturbation"]["sigma2"])
    se = 0.01 * abs(cf)
    assert gate.check_mc(inp, cf + 2 * se, se, inp["samples"])[0] == []
    fails, z = gate.check_mc(inp, cf + 5 * se, se, inp["samples"])
    assert fails and z == pytest.approx(5.0)
    assert gate.check_mc(inp, cf, se, inp["samples"] - 1)[0] != []
