"""Scenario execution: step a matrix trajectory, track eigenvalue paths,
record force breakdowns, detect conjugate-pair collisions, persist results.

A scenario is a JSON document with top-level keys ``model``, ``time``,
``perturbation`` (optional), ``tracked``, ``collision_threshold``,
``seed``, and ``output``.  Explicit-matrix models reference matrix files
of whitespace-separated rows with complex entries written as "a+bi".
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, core, dynamics, models, stochastic
from .core import SpectralDecomposition
from .dynamics import ForceBreakdown, MatrixTrajectory
from .errors import ConfigInvalid, PairingFailure, UnsupportedFormat

__all__ = [
    "ScenarioConfig",
    "RunRecord",
    "StepRow",
    "CollisionEvent",
    "parse_complex",
    "read_matrix_file",
    "run_scenario",
    "export",
    "load_record",
    "detect_collisions",
]

_COMPLEX_RE = re.compile(
    r"^\s*([+-]?[\d.]+(?:[eE][+-]?\d+)?)?\s*"
    r"(?:([+-]\s*[\d.]*(?:[eE][+-]?\d+)?)\s*[ij])?\s*$"
)


def parse_complex(text) -> complex:
    """Parse "a+bi" / "a-bi" / "bi" / "a" (also accepts j notation)."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if s in ("i", "j"):
        return 1j
    if s in ("-i", "-j"):
        return -1j
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        pass
    m = _COMPLEX_RE.match(s)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValueError(f"cannot parse complex literal {text!r}")
    re_part = float(m.group(1)) if m.group(1) else 0.0
    im_text = m.group(2)
    if im_text is None:
        im_part = 0.0
    elif im_text in ("+", "-"):
        im_part = 1.0 if im_text == "+" else -1.0
    else:
        im_part = float(im_text)
    return complex(re_part, im_part)


def read_matrix_file(path) -> np.ndarray:
    """Whitespace-separated rows; complex entries as "a+bi"."""
    rows = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([parse_complex(tok) for tok in line.split()])
        except ValueError as exc:
            raise ConfigInvalid(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ConfigInvalid(f"{path}: no matrix rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigInvalid(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.array(rows, dtype=complex)


def _load_matrix(spec, base_dir: Path, where: str) -> np.ndarray:
    """Inline list-of-lists (entries may be complex strings) or file path."""
    if isinstance(spec, str):
        return read_matrix_file(base_dir / spec)
    if isinstance(spec, list):
        try:
            return np.array(
                [[parse_complex(x) for x in row] for row in spec], dtype=complex
            )
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"{where}: bad inline matrix: {exc}") from exc
    raise ConfigInvalid(f"{where}: expected file path or inline rows")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ScenarioConfig:
    model: dict
    t0: float
    t1: float
    steps: int
    tracked: object  # "all" or list of indices
    collision_threshold: float
    seed: int
    perturbation: Optional[dict]
    output_dir: str
    output_formats: tuple
    base_dir: Path = field(default_factory=Path)

    @staticmethod
    def from_dict(raw: dict, base_dir=".") -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("scenario root must be an object")
        model = raw.get("model")
        if not isinstance(model, dict) or "type" not in model:
            raise ConfigInvalid("model: required object with a 'type' key")
        if model["type"] not in ("explicit", "ring", "transfer",
                                 "effective_hamiltonian"):
            raise ConfigInvalid(f"model.type: unknown type {model['type']!r}")
        time = raw.get("time")
        if not isinstance(time, dict):
            raise ConfigInvalid("time: required object with t0, t1, steps")
        try:
            t0, t1 = float(time["t0"]), float(time["t1"])
            steps = int(time["steps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"time: {exc}") from exc
        if not t1 > t0:
            raise ConfigInvalid("time: t1 must be > t0")
        if steps < 1:
            raise ConfigInvalid("time: steps must be >= 1")
        threshold = float(raw.get("collision_threshold", 1e-6))
        if threshold <= 0:
            raise ConfigInvalid("collision_threshold must be > 0")
        tracked = raw.get("tracked", "all")
        if tracked != "all":
            if not isinstance(tracked, list) or not all(
                isinstance(i, int) and i >= 0 for i in tracked
            ):
                raise ConfigInvalid("tracked: 'all' or a list of indices")
        pert = raw.get("perturbation")
        if pert is not None:
            if not isinstance(pert, dict):
                raise ConfigInvalid("perturbation: must be an object")
            kind = pert.get("kind", "diagonal")
            if kind not in ("diagonal", "full"):
                raise ConfigInvalid(f"perturbation.kind: unknown kind {kind!r}")
            if float(pert.get("sigma2", 1.0)) < 0:
                raise ConfigInvalid("perturbation.sigma2 must be >= 0")
        output = raw.get("output", {})
        formats = tuple(output.get("formats", ("json",)))
        for f in formats:
            if f not in ("csv", "json"):
                raise ConfigInvalid(f"output.formats: unsupported format {f!r}")
        return ScenarioConfig(
            model=model,
            t0=t0,
            t1=t1,
            steps=steps,
            tracked=tracked,
            collision_threshold=threshold,
            seed=int(raw.get("seed", 0)),
            perturbation=pert,
            output_dir=str(output.get("dir", "out")),
            output_formats=formats,
            base_dir=Path(base_dir),
        )

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"{path}:{exc.lineno}: {exc.msg}") from exc
        return ScenarioConfig.from_dict(raw, base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "time": {"t0": self.t0, "t1": self.t1, "steps": self.steps},
            "tracked": self.tracked,
            "collision_threshold": self.collision_threshold,
            "seed": self.seed,
            "perturbation": self.perturbation,
            "output": {"dir": self.output_dir, "formats": list(self.output_formats)},
        }

    def config_hash(self) -> str:
        # the hash identifies the computation; where results are written
        # does not change what was computed
        payload = self.to_dict()
        payload.pop("output")
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_trajectory(cfg: ScenarioConfig) -> MatrixTrajectory:
    """Instantiate the scenario's model as a matrix trajectory."""
    model = cfg.model
    kind = model["type"]
    base = cfg.base_dir
    if kind == "explicit":
        a = _load_matrix(model.get("matrix"), base, "model.matrix")
        b = (_load_matrix(model["velocity"], base, "model.velocity")
             if "velocity" in model else None)
        c = (_load_matrix(model["acceleration"], base, "model.acceleration")
             if "acceleration" in model else None)
        try:
            return MatrixTrajectory.polynomial(a, b, c)
        except Exception as exc:
            raise ConfigInvalid(f"model: {exc}") from exc

    if kind == "ring":
        try:
            n = int(model["sites"])
            ring = models.BiophysicalRing(
                n=n,
                diffusion=float(model.get("diffusion", 1.0)),
                growth=float(model.get("growth", 0.0)),
                saturation=float(model.get("saturation", 0.0)),
                tilt=float(model.get("tilt", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigInvalid(f"model: {exc}") from exc
        u0 = np.asarray(model.get("fluctuations", np.zeros(n)), dtype=float)
        u1 = np.asarray(model.get("fluctuation_rate", np.zeros(n)), dtype=float)
        if u0.shape != (n,) or u1.shape != (n,):
            raise ConfigInvalid("model: fluctuation arrays must have length 'sites'")
        base_m = models.build_omega_le(ring)
        # U(t) = u0 + t*u1 enters only through the diagonal, so the
        # derivatives are exact
        return MatrixTrajectory(
            n,
            lambda t: base_m + np.diag(u0 + t * u1),
            lambda t: np.diag(u1),
            lambda t: np.zeros((n, n)),
            "analytic",
        )

    if kind == "transfer":
        entries = model.get("entries")
        if not isinstance(entries, dict):
            raise ConfigInvalid("model.entries: required object M11..M22")
        polys = {}
        for key in ("M11", "M12", "M21", "M22"):
            if key not in entries:
                raise ConfigInvalid(f"model.entries.{key}: required")
            try:
                polys[key] = [parse_complex(c) for c in entries[key]]
            except (ValueError, TypeError) as exc:
                raise ConfigInvalid(f"model.entries.{key}: {exc}") from exc

        def entry(key):
            coeffs = polys[key]
            return lambda k: sum(c * k**p for p, c in enumerate(coeffs))

        tmodel = models.TransferMatrixModel(
            entry("M11"), entry("M12"), entry("M21"), entry("M22"),
            branch=int(model.get("branch", 1)),
            unimodular_tol=float(model.get("unimodular_tol", 1e-9)),
        )

        def s_matrix(k):
            return models.scattering_data(tmodel, k).s_matrix

        return MatrixTrajectory.from_callable(s_matrix, n=2)

    if kind == "effective_hamiltonian":
        h = _load_matrix(model.get("H"), base, "model.H")
        ops, l0, l1 = [], [], []
        for idx, item in enumerate(model.get("lindblad", [])):
            if not isinstance(item, dict) or "L" not in item:
                raise ConfigInvalid(f"model.lindblad[{idx}]: needs an 'L' matrix")
            ops.append(_load_matrix(item["L"], base, f"model.lindblad[{idx}].L"))
            try:
                l0.append(parse_complex(item.get("l", 0)))
                l1.append(parse_complex(item.get("l_rate", 0)))
            except ValueError as exc:
                raise ConfigInvalid(f"model.lindblad[{idx}]: {exc}") from exc

        def h_eff(t):
            spec = models.EffectiveHamiltonianSpec(
                h, ops, [a + t * b for a, b in zip(l0, l1)]
            )
            return models.effective_hamiltonian(spec)

        def h_eff_dot(t):
            acc = np.zeros_like(h)
            for op, rate in zip(ops, l1):
                acc = acc + np.conjugate(rate) * op - rate * op.conj().T
            return 0.5j * acc

        n = h.shape[0]
        return MatrixTrajectory(
            n, h_eff, h_eff_dot, lambda t: np.zeros((n, n), dtype=complex),
            "analytic",
        )

    raise ConfigInvalid(f"unknown model type {kind!r}")


# ---------------------------------------------------------------------------
# run records


@dataclass(frozen=True)
class TrackedValues:
    index: int
    velocity: complex
    breakdown: Optional[ForceBreakdown]
    conjugate_force: Optional[complex]
    expected_force: Optional[complex]
    flags: tuple


@dataclass(frozen=True)
class StepRow:
    t: float
    eigenvalues: np.ndarray
    permutation: np.ndarray  # path order -> raw sorted solver order
    tracked: dict  # index -> TrackedValues
    flags: tuple


@dataclass(frozen=True)
class CollisionEvent:
    t_lo: float
    t_hi: float
    pair: tuple
    min_abs_im: float


@dataclass(frozen=True)
class RunRecord:
    rows: list
    events: list
    provenance: dict

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def eigenvalue_path(self, j: int) -> np.ndarray:
        return np.array([r.eigenvalues[j] for r in self.rows])


def _c2l(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _l2c(pair) -> complex:
    return complex(pair[0], pair[1])


def record_to_dict(record: RunRecord) -> dict:
    rows = []
    for r in record.rows:
        rows.append({
            "t": r.t,
            "eigenvalues": [_c2l(z) for z in r.eigenvalues],
            "permutation": [int(p) for p in r.permutation],
            "flags": list(r.flags),
            "tracked": {
                str(j): {
                    "velocity": _c2l(tv.velocity),
                    "inertial": _c2l(tv.breakdown.inertial) if tv.breakdown else None,
                    "conjugate_term": _c2l(tv.breakdown.conjugate_term)
                    if tv.breakdown else None,
                    "others": _c2l(tv.breakdown.others) if tv.breakdown else None,
                    "conjugate_force": _c2l(tv.conjugate_force)
                    if tv.conjugate_force is not None else None,
                    "expected_force": _c2l(tv.expected_force)
                    if tv.expected_force is not None else None,
                    "flags": list(tv.flags),
                }
                for j, tv in sorted(r.tracked.items())
            },
        })
    return {
        "rows": rows,
        "events": [
            {"t_lo": e.t_lo, "t_hi": e.t_hi, "pair": list(e.pair),
             "min_abs_im": e.min_abs_im}
            for e in record.events
        ],
        "provenance": dict(record.provenance),
    }


def record_from_dict(data: dict) -> RunRecord:
    rows = []
    for r in data["rows"]:
        tracked = {}
        for j_str, tv in r["tracked"].items():
            bd = None
            if tv["inertial"] is not None:
                bd = ForceBreakdown(
                    inertial=_l2c(tv["inertial"]),
                    conjugate_term=_l2c(tv["conjugate_term"]),
                    others=_l2c(tv["others"]),
                )
            tracked[int(j_str)] = TrackedValues(
                index=int(j_str),
                velocity=_l2c(tv["velocity"]),
                breakdown=bd,
                conjugate_force=_l2c(tv["conjugate_force"])
                if tv["conjugate_force"] is not None else None,
                expected_force=_l2c(tv["expected_force"])
                if tv["expected_force"] is not None else None,
                flags=tuple(tv["flags"]),
            )
        rows.append(StepRow(
            t=r["t"],
            eigenvalues=np.array([_l2c(z) for z in r["eigenvalues"]]),
            permutation=np.array(r["permutation"], dtype=int),
            tracked=tracked,
            flags=tuple(r["flags"]),
        ))
    events = [
        CollisionEvent(e["t_lo"], e["t_hi"], tuple(e["pair"]), e["min_abs_im"])
        for e in data["events"]
    ]
    return RunRecord(rows=rows, events=events, provenance=dict(data["provenance"]))


# ---------------------------------------------------------------------------
# execution


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    """Execute a scenario: steps+1 rows, path-matched eigenvalues, forces,
    collision events.  Deterministic given (config, seed)."""
    trajectory = build_trajectory(cfg)
    n = trajectory.n
    ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)
    dt = (cfg.t1 - cfg.t0) / cfg.steps

    tracked = list(range(n)) if cfg.tracked == "all" else [
        j for j in cfg.tracked if j < n
    ]
    proc = None
    if cfg.perturbation is not None:
        proc = stochastic.PerturbationProcess(
            kind=cfg.perturbation.get("kind", "diagonal"),
            sigma2=float(cfg.perturbation.get("sigma2", 1.0)),
            seed=int(cfg.perturbation.get("seed", cfg.seed)),
            dt=dt,
        )

    rows = []
    prev_decomp: Optional[SpectralDecomposition] = None
    prev_perm = np.arange(n)
    noise = None
    threshold = cfg.collision_threshold

    for k, t in enumerate(ts):
        m = np.asarray(trajectory.value(t), dtype=complex)
        mdot = np.asarray(trajectory.first_derivative(t), dtype=complex)
        mddot = np.asarray(trajectory.second_derivative(t), dtype=complex)
        if proc is not None:
            p = proc.sample(n, k)
            if noise is None:
                noise = np.zeros((n, n), dtype=complex)
            m = m + noise
            mdot = mdot + p
            noise = noise + dt * p  # applied from the next step on

        d = core.decompose(m)
        step_flags = []
        if d.degenerate:
            step_flags.append("degenerate")
        if prev_decomp is None:
            perm = np.arange(n)
        else:
            match = core.match_paths(prev_decomp, d)
            perm = match.permutation[prev_perm]
            if match.ambiguous:
                step_flags.append("ambiguous-match")
        w_path = d.eigenvalues[perm]

        real_input = core.is_real(m, 1e-10) and core.is_real(mdot, 1e-10)
        pairing = None
        if real_input:
            mdot = mdot.real
            try:
                pairing = core.pair_conjugates(d, 1e-7)
            except PairingFailure:
                step_flags.append("pairing-failed")

        raw = perm[tracked]
        # without a pairing every eigenvalue is its own partner: no
        # conjugate term is split off
        partner = np.arange(n) if pairing is None else pairing.partner
        # complex eigenvalues of a real matrix; near the axis the conjugate
        # denominator blows up, so the record holds flagged non-numbers
        # instead of huge values
        paired = partner[raw] != raw
        near_real = paired & (np.abs(d.eigenvalues[raw].imag) < threshold)
        # the terms of a near-real pair may overflow; they are dropped below
        with np.errstate(over="ignore", invalid="ignore"):
            forces = dynamics.force_columns(d.left, d.right, d.eigenvalues, mdot,
                                            mddot, raw, partner, gap_tol=1e-14)

        tracked_values = {}
        for c, j in enumerate(tracked):
            flags = ()
            breakdown = conj_force = expected = None
            if near_real[c]:
                flags = ("near-real",)
            elif forces.singular[c] >= 0:
                flags = ("singular-gap",)
            else:
                breakdown = forces.breakdown(c)
            if paired[c] and not near_real[c]:
                conj_force = complex(forces.conjugate_term[c])
                if proc is not None:
                    expected = stochastic.expected_conjugate_force_iid(
                        d, pairing, proc.sigma2, int(raw[c]), kind=proc.kind
                    )
            tracked_values[j] = TrackedValues(
                index=j, velocity=complex(forces.velocity[c]),
                breakdown=breakdown, conjugate_force=conj_force,
                expected_force=expected, flags=flags,
            )

        rows.append(StepRow(
            t=float(t), eigenvalues=w_path, permutation=perm,
            tracked=tracked_values, flags=tuple(step_flags),
        ))
        prev_decomp = d
        prev_perm = perm

    _flag_jumps(rows)
    record = RunRecord(
        rows=rows,
        events=[],
        provenance={
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "version": __version__,
        },
    )
    events = detect_collisions(record, threshold)
    return RunRecord(rows=rows, events=events, provenance=record.provenance)


def _flag_jumps(rows) -> None:
    """Flag steps whose largest path displacement exceeds 10x the step's
    median displacement (an unmatched jump, typically near a collision)."""
    for k in range(1, len(rows)):
        disp = np.abs(rows[k].eigenvalues - rows[k - 1].eigenvalues)
        med = float(np.median(disp))
        if med > 0 and float(disp.max()) > 10 * med:
            if "jump" not in rows[k].flags:
                object.__setattr__(rows[k], "flags", rows[k].flags + ("jump",))


def detect_collisions(record: RunRecord, threshold: float) -> list:
    """Bracket the time steps where a tracked eigenvalue's |Im| crosses
    below ``threshold`` (conjugate pair reaching the real axis).

    Brackets are reported, not root-polished.  An eigenvalue already
    below threshold at the first step yields an event there.  Ambiguous
    path matches (pair merging) are also recorded as events.
    """
    rows = record.rows
    if not rows:
        return []
    n = len(rows[0].eigenvalues)
    events = []
    seen = set()
    for j in range(n):
        ims = np.array([abs(r.eigenvalues[j].imag) for r in rows])
        below = ims < threshold
        for k in range(len(rows)):
            if not below[k]:
                continue
            # at the first step only a genuinely complex eigenvalue below
            # threshold counts; permanently real ones never "reach" the axis
            if k == 0 and ims[0] == 0.0:
                continue
            if k == 0 or not below[k - 1]:
                w = rows[k].eigenvalues
                dist = np.abs(w - w[j].conjugate())
                dist[j] = np.inf
                partner = int(np.argmin(dist)) if n > 1 else j
                key = (k, frozenset((j, partner)))
                if key in seen:
                    continue
                seen.add(key)
                events.append(CollisionEvent(
                    t_lo=rows[max(k - 1, 0)].t, t_hi=rows[k].t,
                    pair=(j, partner), min_abs_im=float(ims[k]),
                ))
    for k, row in enumerate(rows):
        if "ambiguous-match" in row.flags:
            events.append(CollisionEvent(
                t_lo=rows[k - 1].t if k > 0 else row.t, t_hi=row.t,
                pair=(-1, -1), min_abs_im=float("nan"),
            ))
    events.sort(key=lambda e: (e.t_hi, e.pair))
    return events


# ---------------------------------------------------------------------------
# persistence

_CSV_COLUMNS = [
    "t", "j", "re_lambda", "im_lambda", "re_vel", "im_vel",
    "re_acc_total", "im_acc_total", "re_inertial", "im_inertial",
    "re_conj", "im_conj", "re_others", "im_others", "flags",
]


def _fmt(x) -> str:
    # 17 significant digits: round-trips double precision exactly
    return f"{x:.17g}"


def export(record: RunRecord, format: str, path) -> None:
    """Write a run record as CSV (one row per step and tracked index) or
    JSON (lossless, including events and provenance)."""
    path = Path(path)
    if format == "json":
        data = record_to_dict(record)
        path.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        return
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in record.rows:
                for j, tv in sorted(row.tracked.items()):
                    lam = row.eigenvalues[j]
                    bd = tv.breakdown
                    nan = float("nan")
                    total = bd.total if bd else complex(nan, nan)
                    inert = bd.inertial if bd else complex(nan, nan)
                    conj = bd.conjugate_term if bd else complex(nan, nan)
                    others = bd.others if bd else complex(nan, nan)
                    writer.writerow([
                        _fmt(row.t), j,
                        _fmt(lam.real), _fmt(lam.imag),
                        _fmt(tv.velocity.real), _fmt(tv.velocity.imag),
                        _fmt(total.real), _fmt(total.imag),
                        _fmt(inert.real), _fmt(inert.imag),
                        _fmt(conj.real), _fmt(conj.imag),
                        _fmt(others.real), _fmt(others.imag),
                        ";".join(row.flags + tv.flags),
                    ])
        return
    raise UnsupportedFormat(f"unsupported export format {format!r}")


def load_record(path) -> RunRecord:
    """Inverse of JSON export."""
    return record_from_dict(json.loads(Path(path).read_text()))
