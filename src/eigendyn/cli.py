"""Command-line front end.

Subcommands:
  validate  parse and validate a scenario file
  run       execute a scenario and write exports
  sweep     fan a scenario out over a parameter range
  oracle    compare analytic eigenvalue derivatives against finite
            differences (and ring spectra against the DFT formula)

Exit codes are a stable contract: 0 success, 2 validation failure,
3 runtime error, 4 oracle tolerance violation.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import core, dynamics, engine, models
from .engine import ScenarioConfig
from .errors import ConfigInvalid, EigendynError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3
EXIT_TOLERANCE = 4


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_override(raw: dict, key: str, value) -> None:
    """Set a dotted-key path; bare keys land in the model section."""
    parts = key.split(".") if "." in key else ["model", key]
    node = raw
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigInvalid(f"override {key}: {p} is not an object")
    node[parts[-1]] = value


def _load_config(args) -> ScenarioConfig:
    path = Path(args.scenario)
    raw = engine.read_scenario(path)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_override(raw, key, _parse_override_value(value))
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "format", None):
        _apply_override(raw, "output.formats", [args.format])
    if getattr(args, "out", None):
        _apply_override(raw, "output.dir", args.out)
    return ScenarioConfig.from_dict(raw, base_dir=path.parent)


def _write_outputs(cfg: ScenarioConfig, record) -> list:
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in cfg.output_formats:
        target = out_dir / f"record.{fmt}"
        engine.export(record, fmt, target)
        written.append(target)
    return written


def cmd_validate(args) -> int:
    try:
        cfg = _load_config(args)
        trajectory = engine.build_trajectory(cfg)
        core.decompose(trajectory.at(cfg.t0)[0])
    except EigendynError as exc:
        return _fail(EXIT_INVALID, str(exc))
    print(f"OK: model={cfg.params['type']} n={trajectory.n} "
          f"steps={cfg.steps} seed={cfg.seed}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args)
    record = engine.run_scenario(cfg)
    written = _write_outputs(cfg, record)
    for path in written:
        print(path)
    print(f"rows={len(record.t)} events={len(record.events)} "
          f"hash={record.provenance['config_hash'][:12]}")
    return EXIT_OK


def _sweep_values(spec: str):
    """The key, values and run directory names of KEY=START:STEP:STOP."""
    key, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigInvalid(f"sweep expects key=start:step:stop, got {spec!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise ConfigInvalid(f"sweep range {rng!r}: START, STEP and STOP must "
                            f"be numbers") from None
    if not all(map(math.isfinite, (start, step, stop))):
        raise ConfigInvalid(f"sweep range {rng!r}: START, STEP and STOP must "
                            f"be finite")
    if step == 0:
        raise ConfigInvalid("sweep step must be nonzero")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ConfigInvalid(f"sweep range {rng!r} has no finite count")
    count = int(round(span)) + 1
    if count < 1:
        raise ConfigInvalid("empty sweep range")
    # runs are named at 6 significant digits and passed the exact value.
    # The rounding is monotone, so only neighbours can share a name; a
    # range too fine for the names fails within a few million values
    names = (f"{key}={start + i * step:g}" for i in range(count))
    previous = None
    for name in names:
        if name == previous:
            raise ConfigInvalid(f"sweep range {rng!r}: two values share the "
                                f"run directory {name!r}")
        previous = name
    values = [start + i * step for i in range(count)]
    return key, values, [f"{key}={value:g}" for value in values]


def cmd_sweep(args) -> int:
    key, values, names = _sweep_values(args.range)
    base_cfg = _load_config(args)
    out_root = Path(args.out or base_cfg.output_dir)
    failures = 0
    for value, name in zip(values, names):
        sub_args = argparse.Namespace(
            scenario=args.scenario,
            set=(args.set or []) + [f"{key}={value!r}"],
            seed=args.seed,
            format=args.format,
            out=str(out_root / name),
        )
        try:
            cfg = _load_config(sub_args)
            record = engine.run_scenario(cfg)
            _write_outputs(cfg, record)
            print(f"{name}: rows={len(record.t)} events={len(record.events)}")
        except ConfigInvalid as exc:
            return _fail(EXIT_INVALID, f"{name}: {exc}")
        except (EigendynError, OSError, MemoryError) as exc:
            print(f"error: {name}: {str(exc) or 'out of memory'}", file=sys.stderr)
            failures += 1
    return EXIT_RUNTIME if failures else EXIT_OK


def _relative_error(value, fd, bound) -> np.ndarray:
    """|value - fd| / max(|fd|, bound, 1e-12); NaN (0 * bound) where the
    bound is not finite."""
    return np.abs(value - fd) / np.maximum(np.abs(fd), bound).clip(1e-12) + 0 * bound


def cmd_oracle(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigInvalid(f"--tolerance must be a finite number > 0, "
                            f"got {args.tolerance!r}")
    cfg = _load_config(args)
    trajectory = engine.build_trajectory(cfg)
    vel_tol = args.tolerance
    acc_tol = args.tolerance * 100

    span = cfg.t1 - cfg.t0
    times = [cfg.t0 + f * span for f in (0.2, 0.4, 0.6, 0.8)]
    d_vel, d_acc = 1e-4, 1e-3
    max_vel_err = max_acc_err = 0.0
    print(f"{'t':>10} {'j':>3} {'vel_rel_err':>14} {'acc_rel_err':>14}")

    def matched_eigs(tq, ref):
        dq = core.decompose(trajectory.at(tq)[0])
        return dq.eigenvalues[core.match_paths(ref, dq).permutation]

    for t in times:
        m, mdot, mddot = trajectory.at(t)
        d0 = core.decompose(m)
        # a huge model or a tiny tolerance gives an inf or NaN error, which
        # fails below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vel_fd = (matched_eigs(t + d_vel, d0)
                      - matched_eigs(t - d_vel, d0)) / (2 * d_vel)
            acc_fd = (matched_eigs(t + d_acc, d0) - 2 * d0.eigenvalues
                      + matched_eigs(t - d_acc, d0)) / d_acc**2
            forces = dynamics.force_columns(d0.left, d0.right, d0.eigenvalues,
                                            mdot, mddot, np.arange(d0.n))
            forces.raise_singular()
            # an eigenvalue of M(t) carries a round-off of about eps ||M||_F
            # ||u_j|| (unit-norm v_j), which the quotients divide by h and
            # h^2 / 4: an error within it reads as at most the tolerance
            r = np.finfo(float).eps * np.linalg.norm(m) * np.linalg.norm(d0.left, axis=0)
            ev = _relative_error(forces.velocity, vel_fd, r / d_vel / vel_tol)
            ea = _relative_error(forces.total, acc_fd, 4 * r / d_acc**2 / acc_tol)
        # np.maximum, unlike max, keeps a NaN error, which no tolerance passes
        max_vel_err = np.maximum(max_vel_err, ev.max())
        max_acc_err = np.maximum(max_acc_err, ea.max())
        for j, (e_vel, e_acc) in enumerate(zip(ev, ea)):
            print(f"{t:>10.4g} {j:>3} {e_vel:>14.3e} {e_acc:>14.3e}")

    spectrum_err = None
    p = cfg.params
    if p["type"] == "ring" and not p["fluctuations"].any():
        ring = models.BiophysicalRing(n=p["sites"], diffusion=p["diffusion"],
                                      growth=p["growth"], tilt=p["tilt"])
        analytic = np.sort_complex(models.omega_le_spectrum(ring))
        numeric = np.sort_complex(
            core.decompose(models.build_omega_le(ring)).eigenvalues
        )
        scale = max(np.max(np.abs(analytic)), 1.0)
        spectrum_err = float(np.max(np.abs(analytic - numeric)) / scale)
        print(f"ring DFT spectrum max scaled err: {spectrum_err:.3e}")

    print(f"max velocity rel err:     {max_vel_err:.3e} (tol {vel_tol:g})")
    print(f"max acceleration rel err: {max_acc_err:.3e} (tol {acc_tol:g})")
    ok = max_vel_err <= vel_tol and max_acc_err <= acc_tol
    if spectrum_err is not None:
        ok = ok and spectrum_err <= 1e-10
    if not ok:
        return _fail(EXIT_TOLERANCE, "oracle tolerance violated")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigendyn",
        description="Eigenvalue dynamics scenarios: run, validate, sweep, oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_run_flags=True):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (dotted path; bare keys "
                            "target the model section); repeatable")
        if with_run_flags:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--format", choices=("csv", "json"), default=None,
                           help="restrict exports to one format")

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    common(p_validate, with_run_flags=False)
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario and write exports")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a range")
    p_sweep.add_argument("range", metavar="KEY=START:STEP:STOP",
                         help="e.g. tilt=0:0.1:1")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle",
        help="finite-difference and DFT spectrum checks for a scenario",
    )
    common(p_oracle, with_run_flags=False)
    p_oracle.add_argument("--tolerance", type=float, default=1e-6,
                          help="max relative error for velocities, finite "
                               "and > 0 (accelerations use 100x)")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and map what it raises to an exit code: an
    invalid scenario or override to 2, any other library error, an
    unwritable output or a failed allocation to 3.  A warning shows as
    one ``warning: <message>`` line on stderr."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one line, without the source line Python's own format echoes
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except ConfigInvalid as exc:
            return _fail(EXIT_INVALID, str(exc))
        except (EigendynError, OSError) as exc:
            return _fail(EXIT_RUNTIME, str(exc))
        except MemoryError as exc:
            # numpy's MemoryError names the allocation; a bare one has no text
            return _fail(EXIT_RUNTIME, str(exc) or "out of memory")


if __name__ == "__main__":
    sys.exit(main())
