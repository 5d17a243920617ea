"""eigendyn benchmark: one workload, one closed-loop client, one JSON line.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload ring_scan --seed 1 --seconds 15 --trace 0

The workload's inputs are generated from ``--seed`` (``workloads.py``) and
written under ``benchmarks/out/``.  Each workload runs in a fresh child
process (``child.py``) with the machine's default BLAS threading; the
child runs one operation at a time and starts the next when the previous
one returns.  Every operation is checked by ``gate.py``.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
work per second (scenario steps, or Monte Carlo samples on mc_force),
set-up time (median of SETUP_SAMPLES fresh processes) and peak RSS.
On ring_scan it also runs an ungated single-thread baseline
(OPENBLAS_NUM_THREADS=1 in that child only), reported in the result
file.  ``--trace 1`` prints the per-layer metrics from a traced run.

The last stdout line is the result; the full result, with machine info,
goes to ``benchmarks/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
``--write-reference`` stores the run's fingerprints as the reference for
its seed (the gate checks the default seed, REFERENCE_SEED).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 3
REFERENCE_SEED = 0
CHILD_TIMEOUT = 170.0


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


class Child:
    """A child.py process; ``ready_s`` is the wall time from start to its
    ready line, ``result`` its last JSON line."""

    def __init__(self, argv: list, env: dict, log: Path):
        self.argv, self.env, self.log = argv, env, log

    def run(self) -> "Child":
        with open(self.log, "a") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=log,
                                    env=self.env, text=True)
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                first = proc.stdout.readline()
                self.ready_s = time.perf_counter() - start
                lines = [first] + proc.stdout.readlines()
                code = proc.wait()
            finally:
                killer.cancel()
                proc.stdout.close()
        if code != 0 or json.loads(first or "{}").get("ready") is not True:
            fail(f"child {self.argv[2:]} exited with {code}; see {self.log}")
        self.result = json.loads(lines[-1])
        return self


def prepare(name: str, seed: int, root: Path, workdir: Path) -> Path:
    """Generate the inputs into ``workdir/inputs``; returns the spec path."""
    scenarios = root / "scenarios"
    shipped = {p.name: json.loads(p.read_text()) for p in sorted(scenarios.glob("*.json"))}
    spec = workloads.make(name, seed, shipped)
    indir = workdir / "inputs"
    indir.mkdir(parents=True)
    for inp in spec["inputs"]:
        if inp["content"] is None:
            shutil.copy(scenarios / inp["file"], indir / inp["file"])
        else:
            (indir / inp["file"]).write_text(json.dumps(inp["content"], indent=1))
    if any(inp["content"] is None for inp in spec["inputs"]):
        for p in scenarios.glob("*.txt"):
            shutil.copy(p, indir / p.name)
    path = indir / "workload.json"
    path.write_text(json.dumps(spec, indent=1))
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description="eigendyn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "eigendyn" / "__init__.py").is_file():
        fail(f"no eigendyn sources under {src}; run from the repository root")
    if not (root / "scenarios").is_dir():
        fail("no scenarios/ directory; run from the repository root")
    bench = json.loads((root / "BENCHMARK.json").read_text())

    out = HERE / "out"
    workdir = out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    spec_path = prepare(args.workload, args.seed, root, workdir)
    reference = HERE / "reference" / f"seed{REFERENCE_SEED}_{args.workload}.json"
    checked_reference = args.seed == REFERENCE_SEED and not args.write_reference
    if checked_reference and not reference.is_file():
        fail(f"missing reference fingerprints {reference}")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    log = workdir / "child.log"

    def child(mode: str, extra_env=None) -> Child:
        # the reference was recorded with default threading; another BLAS
        # thread count moves the last bits of the n=128 eigensolves
        # (8e-12 relative on one fingerprint sum), so only runs with the
        # unchanged environment compare against it
        ref = str(reference) if checked_reference and not extra_env else ""
        argv = [sys.executable, str(HERE / "child.py"), "--spec", str(spec_path),
                "--mode", mode, "--seconds", str(args.seconds),
                "--out", str(workdir / mode), "--reference", ref]
        return Child(argv, dict(env, **(extra_env or {})), log).run()

    main_child = child("trace" if args.trace else "loop")
    res = main_child.result
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "child": res}
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = res["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        setup = [main_child.ready_s] + [child("setup").ready_s
                                        for _ in range(SETUP_SAMPLES - 1)]
        values = {"work_per_s": res["work_per_s"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        report["setup_samples_s"] = setup
        work = "samples_per_s" if args.workload == "mc_force" else "steps_per_s"
        report[work] = res["work_per_s"]
        if args.workload == "ring_scan":
            base = child("cycle", {"OPENBLAS_NUM_THREADS": "1"}).result
            report["baseline_1thread"] = {
                "env": {"OPENBLAS_NUM_THREADS": "1"}, work: base["work_per_s"],
                "op_seconds": base["op_seconds"], "failures": base["failures"],
                "machine": base["machine"]}
            attempted += base["attempted"]
            failed += base["failed"]
    report["op_fail_ratio"] = failed / attempted
    # the untraced run must not have imported the wrappers
    correct = failed == 0 and res["tracer_imported"] == bool(args.trace)
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values.get(k), "unit": units[k]} for k in units}}
    report["result"] = line
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out / name).write_text(json.dumps(report, indent=1) + "\n")
    unmeasured = [k for k in units if values.get(k) is None]
    if unmeasured:
        fail(f"metrics not measured: {unmeasured}; see {out / name}")
    if args.write_reference:
        reference.parent.mkdir(exist_ok=True)
        reference.write_text(json.dumps(res["fingerprints"], indent=0) + "\n")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
