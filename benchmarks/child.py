"""One workload in a fresh process: set up, run operations, gate each one.

Started by ``run.py``, never imported by it.  Protocol on stdout: one
JSON line ``{"ready": true}`` once the program is imported, the first
scenario is parsed and its trajectory is built (the parent times
set-up by it), then one JSON line with the result.  The program's own
console output is captured, so it cannot mix with the protocol.

Modes:
  setup   stop after the ready line
  loop    closed loop until ``--seconds`` have passed and at least one
          input has run twice (the repeat checks determinism)
  cycle   one pass over the inputs (the single-thread baseline)
  trace   untraced whole cycles for half of ``--seconds``, then traced
          whole cycles for the other half; per-layer figures are per cycle
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import gate

PROTOCOL = sys.stdout


def emit(obj) -> None:
    PROTOCOL.write(json.dumps(obj) + "\n")
    PROTOCOL.flush()


def machine_info() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Runner:
    """Runs and gates operations; keeps per-input times and digests."""

    def __init__(self, spec: dict, indir: Path, outdir: Path, references: dict):
        from eigendyn import cli, core, engine, stochastic

        self.cli, self.core, self.engine, self.stochastic = cli, core, engine, stochastic
        self.spec, self.indir, self.outdir = spec, indir, outdir
        self.references = references
        self.times: dict = {inp["name"]: [] for inp in spec["inputs"]}
        self.digests: dict = {}
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.flags: dict = dict.fromkeys(gate.FLAGS, 0)
        self.events = 0
        self.z_max = 0.0

    def op(self, inp: dict) -> float:
        """Run one operation, gate it, and return its wall time."""
        self.attempted += 1
        try:
            if inp["kind"] == "mc":
                seconds, fails = self._mc(inp)
            else:
                seconds, fails = self._scenario(inp)
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            seconds, fails = float("nan"), [f"raised {type(exc).__name__}: {exc}"]
        if fails:
            self.failures.append({"input": inp["name"], "op": self.attempted,
                                  "fails": fails})
        else:
            self.times[inp["name"]].append(seconds)
        return seconds

    def _repeat(self, inp: dict, digest: str) -> list:
        first = self.digests.setdefault(inp["name"], digest)
        return [] if first == digest else ["repeat gave a different output"]

    def _scenario(self, inp: dict):
        out = self.outdir / inp["name"]
        argv = ["run", "--scenario", str(self.indir / inp["file"]),
                "--out", str(out)] + inp["argv"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
            if rc == 0 and self.spec["load_back"]:
                self.engine.load_record(out / "record.json")
        seconds = time.perf_counter() - start
        if rc != 0:
            return seconds, [f"exit code {rc}"]

        blob = (out / "record.json").read_bytes()
        rec = json.loads(blob)
        digest = hashlib.sha256(blob).hexdigest()
        fails = []
        if "csv" in inp["scenario"]["output"]["formats"]:
            csv_blob = (out / "record.csv").read_bytes()
            digest += hashlib.sha256(csv_blob).hexdigest()
            expected = len(rec["rows"]) * len(rec["rows"][0]["tracked"]) + 1
            lines = csv_blob.count(b"\n")
            if lines != expected:
                fails.append(f"CSV has {lines} lines, expected {expected}")
        fails += self._repeat(inp, digest)
        fails += gate.check_record(inp, rec, self.indir,
                                   self.references.get(inp["name"]))
        self.fingerprints.setdefault(inp["name"], gate.fingerprint(rec))
        for flag, count in gate.flag_counts(rec).items():
            self.flags[flag] = self.flags.get(flag, 0) + count
        self.events += len(rec["events"])
        return seconds, fails

    def _mc(self, inp: dict):
        engine, stochastic = self.engine, self.stochastic
        start = time.perf_counter()
        cfg = engine.ScenarioConfig.from_file(self.indir / inp["file"])
        m = engine.build_trajectory(cfg).value(cfg.t0)
        # the index is taken from the program's own ordering: the two
        # members of a conjugate pair may sort either way
        j = int(self.core.decompose(m).eigenvalues.imag.argmax())
        pert = cfg.perturbation
        proc = stochastic.PerturbationProcess(
            kind=pert["kind"], sigma2=pert["sigma2"], seed=pert["seed"])
        est = stochastic.monte_carlo_conjugate_force(m, proc, j, inp["samples"])
        seconds = time.perf_counter() - start
        fails, z = gate.check_mc(inp, est.mean, est.standard_error, est.samples,
                                 self.references.get(inp["name"]))
        self.z_max = max(self.z_max, z)
        fails += self._repeat(inp, repr((est.mean, est.standard_error)))
        self.fingerprints.setdefault(
            inp["name"], gate.mc_fingerprint(est.mean, est.standard_error))
        return seconds, fails

    def work(self, inp: dict) -> int:
        return inp["samples"] if inp["kind"] == "mc" else inp["steps"]

    def loop(self, seconds: float) -> None:
        inputs = self.spec["inputs"]
        start = time.perf_counter()
        i = 0
        while i <= len(inputs) or time.perf_counter() - start < seconds:
            self.op(inputs[i % len(inputs)])
            i += 1

    def cycles(self, seconds: float, tracer=None) -> tuple:
        """Whole passes over the inputs until ``seconds`` have passed;
        returns (cycles, summed operation seconds)."""
        start = time.perf_counter()
        done, busy = 0, 0.0
        while done == 0 or time.perf_counter() - start < seconds:
            for inp in self.spec["inputs"]:
                if tracer is not None:
                    tracer.op = self.attempted
                busy += self.op(inp)
            done += 1
        return done, busy

    def work_per_s(self):
        """Work of one pass over the inputs divided by the sum of each
        input's mean operation time, so a partial last pass does not
        change the mix."""
        if not all(self.times.values()):
            return None
        per_cycle = sum(self.work(inp) for inp in self.spec["inputs"])
        return per_cycle / sum(statistics.mean(t) for t in self.times.values())


def traced_metrics(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Per-layer figures per cycle, plus the tracing overhead."""
    plain_cycles, plain_busy = runner.cycles(seconds / 2)
    flags_before, events_before = dict(runner.flags), runner.events

    import spans

    tracer = spans.Tracer()
    with spans.patched(tracer):
        cycles, busy = runner.cycles(seconds / 2, tracer)
    tracer.write(spans_path)

    self_s = tracer.self_times()
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = tracer.counts[f"{layer}.calls"] / cycles
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) / cycles
    for key in spans.COUNTERS:
        metrics[key] = tracer.counts[key] / cycles
    for flag in gate.FLAGS:
        metrics[f"engine.flags.{flag}"] = (runner.flags[flag] - flags_before[flag]) / cycles
    metrics["engine.events"] = (runner.events - events_before) / cycles
    metrics["stochastic.mc.z_max"] = runner.z_max
    metrics["trace.overhead_pct"] = 100.0 * ((busy / cycles) / (plain_busy / plain_cycles) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload.json of the inputs")
    parser.add_argument("--mode", choices=("setup", "loop", "cycle", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True, help="directory for outputs")
    parser.add_argument("--reference", default="", help="reference fingerprints")
    args = parser.parse_args(argv)

    spec_path = Path(args.spec)
    spec = json.loads(spec_path.read_text())
    indir = spec_path.parent

    # set-up: import the program, parse the first scenario, build it
    from eigendyn import cli, engine  # noqa: F401  (cli: the import users pay)

    cfg = engine.ScenarioConfig.from_file(indir / spec["inputs"][0]["file"])
    engine.build_trajectory(cfg)
    emit({"ready": True})
    if args.mode == "setup":
        return 0

    references = {}
    if args.reference and Path(args.reference).is_file():
        references = json.loads(Path(args.reference).read_text())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(spec, indir, out, references)
    result = {}
    if args.mode == "loop":
        runner.loop(args.seconds)
    elif args.mode == "cycle":
        runner.cycles(0.0)
    else:
        result["per_layer"] = traced_metrics(runner, args.seconds, out / "spans.npz")
    result.update({
        "work_per_s": runner.work_per_s(),
        "op_seconds": runner.times,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "flags": runner.flags,
        "events": runner.events,
        "z_max": runner.z_max,
        "fingerprints": runner.fingerprints,
        "reference_checked": sorted(references),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
        "tracer_imported": "spans" in sys.modules,
    })
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
