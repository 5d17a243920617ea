"""Scenario execution: step a matrix trajectory, track eigenvalue paths,
record force breakdowns, detect conjugate-pair collisions, persist results.

A scenario is a JSON document with top-level keys ``model``, ``time``,
``perturbation`` (optional), ``tracked``, ``collision_threshold``,
``seed``, and ``output``.  Explicit-matrix models reference matrix files
of whitespace-separated rows with complex entries written as "a+bi".
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, core, dynamics, models, stochastic
from .dynamics import MatrixTrajectory
from .errors import (ConfigInvalid, EigendynError, RecordInvalid,
                     UnsupportedFormat)

__all__ = [
    "ScenarioConfig",
    "RunRecord",
    "CollisionEvent",
    "parse_complex",
    "read_matrix_file",
    "run_scenario",
    "export",
    "record_json",
    "load_record",
    "detect_collisions",
]


def parse_complex(text) -> complex:
    """Parse "a+bi" / "a-bi" / "bi" / "a" (also accepts j notation);
    whitespace inside the literal is ignored."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    s = "".join(str(text).split())
    if s in ("-i", "-j"):
        return -1j
    try:
        return complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex literal {text!r}") from None


def _complex_value(value, where: str) -> complex:
    """A number or complex literal (never a bool) as a finite complex."""
    try:
        z = parse_complex(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc
    if isinstance(value, bool) or not np.isfinite(z):
        raise ConfigInvalid(f"{where}: expected a finite number, got {value!r}")
    return z


def read_matrix_file(path) -> np.ndarray:
    """Whitespace-separated rows; complex entries as "a+bi"."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not text
        raise ConfigInvalid(f"cannot read matrix file {path}: {exc}") from exc
    rows = []
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([_complex_value(tok, f"{path}:{line_no}")
                     for tok in line.split()])
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
    if isinstance(spec, list) and all(isinstance(row, list) for row in spec):
        try:
            return np.array(
                [[_complex_value(x, where) for x in row] for row in spec],
                dtype=complex,
            )
        except ValueError as exc:  # ragged rows
            raise ConfigInvalid(f"{where}: bad inline matrix: {exc}") from exc
    raise ConfigInvalid(f"{where}: expected file path or inline rows")


# ---------------------------------------------------------------------------
# configuration


def _number(value, where: str, kind=float):
    """``value`` as a finite float, or with ``kind=int`` as an integer (an
    integral float or an integer string); never a bool."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc
    if kind is int:
        bad = isinstance(value, float) and x != value
    else:
        bad = not math.isfinite(x)
    if bad or isinstance(value, bool):
        raise ConfigInvalid(f"{where}: expected a finite {kind.__name__}, "
                            f"got {value!r}")
    return x


def _site_values(model: dict, key: str, n: int) -> np.ndarray:
    """``model[key]`` as ``n`` finite floats, one per site; zeros when
    the key is absent."""
    if key not in model:
        return np.zeros(n)
    values, where = model[key], f"model.{key}"
    if not isinstance(values, list) or len(values) != n:
        raise ConfigInvalid(f"{where}: expected a list of {n} numbers "
                            "(one per site)")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(values)])


# the keys each section may hold: a misspelt key is an error, never a
# silently applied default
_TOP_KEYS = {"model", "time", "tracked", "collision_threshold", "seed",
             "perturbation", "output"}
_SECTION_KEYS = {
    "time": {"t0", "t1", "steps"},
    "perturbation": {"kind", "sigma2", "seed"},
    "output": {"dir", "formats"},
}
_MODEL_KEYS = {
    "explicit": {"matrix", "velocity", "acceleration"},
    "ring": {"sites", "diffusion", "growth", "tilt", "fluctuations",
             "fluctuation_rate"},
    "transfer": {"entries", "unimodular_tol"},
    "effective_hamiltonian": {"H", "lindblad"},
}
_ENTRY_KEYS = {"M11", "M12", "M21", "M22"}
_LINDBLAD_KEYS = {"L", "l", "l_rate"}


def _known_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed, key=str)
    if unknown:
        raise ConfigInvalid(f"{where}{unknown[0]}: unknown key")


def _check_keys(raw: dict) -> None:
    """Reject keys the code does not read; ``raw`` has a valid model type."""
    _known_keys(raw, _TOP_KEYS, "")
    for name, allowed in _SECTION_KEYS.items():
        if isinstance(raw.get(name), dict):
            _known_keys(raw[name], allowed, f"{name}.")
    model = raw["model"]
    _known_keys(model, _MODEL_KEYS[model["type"]] | {"type"}, "model.")
    if isinstance(model.get("entries"), dict):
        _known_keys(model["entries"], _ENTRY_KEYS, "model.entries.")
    if isinstance(model.get("lindblad"), list):
        for idx, item in enumerate(model["lindblad"]):
            if isinstance(item, dict):
                _known_keys(item, _LINDBLAD_KEYS, f"model.lindblad[{idx}].")


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
        _check_keys(raw)
        time = raw.get("time")
        if not isinstance(time, dict) or not {"t0", "t1", "steps"} <= time.keys():
            raise ConfigInvalid("time: required object with t0, t1, steps")
        t0, t1 = _number(time["t0"], "time.t0"), _number(time["t1"], "time.t1")
        steps = _number(time["steps"], "time.steps", int)
        if not t1 > t0:
            raise ConfigInvalid("time: t1 must be > t0")
        if steps < 1:
            raise ConfigInvalid("time: steps must be >= 1")
        threshold = _number(raw.get("collision_threshold", 1e-6),
                            "collision_threshold")
        if threshold <= 0:
            raise ConfigInvalid("collision_threshold must be > 0")
        tracked = raw.get("tracked", "all")
        # a bool is not an index
        if tracked != "all" and not (isinstance(tracked, list) and all(
                type(i) is int and i >= 0 for i in tracked)):
            raise ConfigInvalid("tracked: 'all' or a list of indices")
        seed = _number(raw.get("seed", 0), "seed", int)
        if seed < 0:  # numpy seeds are non-negative
            raise ConfigInvalid("seed must be >= 0")
        pert = raw.get("perturbation")
        if pert is not None:
            if not isinstance(pert, dict):
                raise ConfigInvalid("perturbation: must be an object")
            kind = pert.get("kind", "diagonal")
            if kind not in ("diagonal", "full"):
                raise ConfigInvalid(f"perturbation.kind: unknown kind {kind!r}")
            if _number(pert.get("sigma2", 1.0), "perturbation.sigma2") < 0:
                raise ConfigInvalid("perturbation.sigma2 must be >= 0")
            if _number(pert.get("seed", seed), "perturbation.seed", int) < 0:
                raise ConfigInvalid("perturbation.seed must be >= 0")
        output = raw.get("output", {})
        formats = isinstance(output, dict) and output.get("formats", ["json"])
        if not isinstance(formats, (list, tuple)):
            raise ConfigInvalid("output: an object with a list of formats")
        for f in formats:
            if f not in ("csv", "json"):
                raise ConfigInvalid(f"output.formats: unsupported format {f!r}")
        output_dir = output.get("dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigInvalid(f"output.dir: expected a path string, "
                                f"got {output_dir!r}")
        return ScenarioConfig(
            model=model,
            t0=t0,
            t1=t1,
            steps=steps,
            tracked=tracked,
            collision_threshold=threshold,
            seed=seed,
            perturbation=pert,
            output_dir=output_dir,
            output_formats=tuple(formats),
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


def _power(k, p: int):
    """k**p; for p >= 2 each entry of an array k is raised by Python's
    float power, as a scalar k is: numpy's array power rounds some
    entries differently."""
    if p < 2 or np.ndim(k) == 0:
        return k**p
    return np.reshape([x**p for x in np.ravel(k).tolist()], np.shape(k))


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
        if "sites" not in model:
            raise ConfigInvalid("model.sites: required")
        n = _number(model["sites"], "model.sites", int)
        try:
            ring = models.BiophysicalRing(
                n=n,
                diffusion=_number(model.get("diffusion", 1.0), "model.diffusion"),
                growth=_number(model.get("growth", 0.0), "model.growth"),
                tilt=_number(model.get("tilt", 0.0), "model.tilt"),
            )
        except ValueError as exc:
            raise ConfigInvalid(f"model: {exc}") from exc
        u0 = _site_values(model, "fluctuations", n)
        u1 = _site_values(model, "fluctuation_rate", n)
        base_m = models.build_omega_le(ring)
        sites = np.arange(n)

        def ring_value(t):
            m = np.broadcast_to(base_m, np.shape(t) + (n, n)).copy()
            m[..., sites, sites] += u0 + np.asarray(t)[..., None] * u1
            return m

        # U(t) = u0 + t*u1 enters only through the diagonal, so the
        # derivatives are exact
        return MatrixTrajectory(
            n,
            ring_value,
            dynamics.constant_in_time(np.diag(u1)),
            dynamics.constant_in_time(np.zeros((n, n))),
            "analytic",
        )

    if kind == "transfer":
        entries = model.get("entries")
        if not isinstance(entries, dict):
            raise ConfigInvalid("model.entries: required object M11..M22")
        polys = {}
        for key in ("M11", "M12", "M21", "M22"):
            where = f"model.entries.{key}"
            if not isinstance(entries.get(key), list):
                raise ConfigInvalid(f"{where}: required list of coefficients")
            polys[key] = [_complex_value(c, where) for c in entries[key]]

        def entry(key):
            coeffs = polys[key]
            return lambda k: sum(c * _power(k, p) for p, c in enumerate(coeffs))

        tol = _number(model.get("unimodular_tol", 1e-9), "model.unimodular_tol")
        if tol <= 0:
            raise ConfigInvalid("model.unimodular_tol must be > 0")
        tmodel = models.TransferMatrixModel(
            entry("M11"), entry("M12"), entry("M21"), entry("M22"),
            unimodular_tol=tol,
        )

        def s_matrix(k):
            return models.scattering_data(tmodel, k).s_matrix

        try:  # evaluates the model once, at k = 0
            return MatrixTrajectory.from_callable(s_matrix, n=2)
        except EigendynError as exc:
            raise ConfigInvalid(f"model: {exc}") from exc

    if kind == "effective_hamiltonian":
        h = _load_matrix(model.get("H"), base, "model.H")
        lindblad = model.get("lindblad", [])
        if not isinstance(lindblad, list):
            raise ConfigInvalid("model.lindblad: expected a list")
        ops, l0, l1 = [], [], []
        for idx, item in enumerate(lindblad):
            if not isinstance(item, dict) or "L" not in item:
                raise ConfigInvalid(f"model.lindblad[{idx}]: needs an 'L' matrix")
            ops.append(_load_matrix(item["L"], base, f"model.lindblad[{idx}].L"))
            l0.append(_complex_value(item.get("l", 0), f"model.lindblad[{idx}].l"))
            l1.append(_complex_value(item.get("l_rate", 0),
                                     f"model.lindblad[{idx}].l_rate"))
        try:  # shapes and Hermiticity are checked once, here
            spec = models.EffectiveHamiltonianSpec(h, ops, l0, l1)
        except EigendynError as exc:
            raise ConfigInvalid(f"model: {exc}") from exc
        acc = np.zeros_like(h)
        for op, rate in zip(ops, l1):
            acc = acc + np.conjugate(rate) * op - rate * op.conj().T
        return MatrixTrajectory(
            h.shape[0], lambda t: models.effective_hamiltonian(spec, t),
            dynamics.constant_in_time(0.5j * acc),
            dynamics.constant_in_time(np.zeros_like(h)), "analytic",
        )

    raise ConfigInvalid(f"unknown model type {kind!r}")


# ---------------------------------------------------------------------------
# run records

# flag names in bit order: bit b of a flag mask stands for names[b]
STEP_FLAGS = ("degenerate", "ambiguous-match", "pairing-failed", "jump")
VALUE_FLAGS = ("near-real", "singular-gap")
_DEGENERATE, _AMBIGUOUS, _PAIRING_FAILED, _JUMP = 1, 2, 4, 8
_NEAR_REAL, _SINGULAR_GAP = 1, 2
# the complex (S, m) columns, in the order of a tracked entry's JSON keys
_VALUES = ("velocity", "inertial", "conjugate_term", "others",
           "conjugate_force", "expected_force")


@dataclass(frozen=True)
class CollisionEvent:
    t_lo: float
    t_hi: float
    pair: tuple
    min_abs_im: float


@dataclass(frozen=True)
class RunRecord:
    """A run as columns over S = steps + 1 steps, n paths and m tracked
    paths: ``t`` (S,); path-ordered ``eigenvalues`` and ``permutation``
    (path -> raw solver index), (S, n); ``tracked`` (m,), sorted and
    unique; complex (S, m) ``velocity``, ``inertial``, ``conjugate_term``,
    ``others``, ``conjugate_force`` and ``expected_force``; the bitmasks
    ``step_flags`` (S,) over STEP_FLAGS and ``value_flags`` (S, m) over
    VALUE_FLAGS.  An absent value is NaN, but absence is read from the
    masks, never from NaN: the acceleration split is absent where a value
    flag is set, a force where its ``has_*`` mask is False.
    """

    t: np.ndarray
    eigenvalues: np.ndarray
    permutation: np.ndarray
    tracked: np.ndarray
    velocity: np.ndarray
    inertial: np.ndarray
    conjugate_term: np.ndarray
    others: np.ndarray
    conjugate_force: np.ndarray
    expected_force: np.ndarray
    has_conjugate_force: np.ndarray
    has_expected_force: np.ndarray
    step_flags: np.ndarray
    value_flags: np.ndarray
    events: list
    provenance: dict

    @property
    def total(self) -> np.ndarray:
        return self.inertial + self.conjugate_term + self.others

    def flagged(self, name: str) -> np.ndarray:
        """Where flag ``name`` is set: (S,) for a step flag, (S, m) for a
        value flag."""
        if name in STEP_FLAGS:
            return self.step_flags & (1 << STEP_FLAGS.index(name)) != 0
        return self.value_flags & (1 << VALUE_FLAGS.index(name)) != 0


@functools.cache
def _flag_names(mask: int, names: tuple) -> tuple:
    return tuple(f for b, f in enumerate(names) if mask >> b & 1)


@functools.cache
def _flag_mask(flags: tuple, names: tuple) -> int:
    unknown = [f for f in flags if f not in names]
    if unknown:
        raise RecordInvalid(f"unknown flags {unknown}")
    return sum(1 << names.index(f) for f in set(flags))


def _complex(pairs: list, shape: tuple) -> np.ndarray:
    """(shape) complex array of a flat list of [re, im] lists, bit for
    bit."""
    if set(map(len, pairs)) - {2}:
        raise ValueError("expected [re, im] pairs")
    return np.fromiter(itertools.chain.from_iterable(pairs), dtype=float,
                       count=2 * len(pairs)).view(complex).reshape(shape)


def _float_texts(x, fmt, nonfinite=None) -> np.ndarray:
    """``fmt(v)`` for each float v of ``x``, flattened, as an object
    array; with ``nonfinite``, the text of a NaN or infinity is mapped
    through it.  ``fmt`` runs once per distinct bit pattern, so -0.0 and
    0.0 keep their own texts."""
    x = np.ascontiguousarray(x, dtype=float).reshape(-1)
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    values = bits.view(float)
    texts = np.array(list(map(fmt, values.tolist())), dtype=object)
    if nonfinite is not None:
        bad = ~np.isfinite(values)
        texts[bad] = [nonfinite[text] for text in texts[bad]]
    return texts[inverse]


# The JSON text is that of json.dumps(document, sort_keys=True, indent=1),
# written column by column: each float is formatted once, each [re, im]
# pair and each tracked entry from one template.  ``pad`` is the
# indentation of the line a value starts on.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# a tracked entry's keys, sorted as json sorts them
_CELL_KEYS = tuple(sorted(_VALUES + ("flags",)))


def _dumps(value, pad: int) -> str:
    # JSON strings hold no raw newline, so every newline starts a line
    return json.dumps(value, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * pad)


def _container(items: list, pad: int, brackets: str = "[]") -> str:
    """A JSON list (or object) of already encoded items (or members)."""
    if not items:
        return brackets
    sep = "\n" + " " * (pad + 1)
    return f"{brackets[0]}{sep}{(',' + sep).join(items)}\n{' ' * pad}{brackets[1]}"


def _json_floats(x) -> list:
    """json's text of each float of ``x``, flattened."""
    return _float_texts(x, float.__repr__, _NONFINITE).tolist()


def _pair_texts(z, pad: int, present=None) -> list:
    """json's text of each [re, im] pair of ``z``, flattened; null where
    not ``present``, and those are never formatted."""
    inner = " " * (pad + 1)
    template = f"[\n{inner}%s,\n{inner}%s\n{' ' * pad}]"
    z = np.ravel(z)
    out = np.full(z.shape, "null", dtype=object)
    keep = slice(None) if present is None else np.ravel(present)
    re, im = _float_texts(np.stack([z[keep].real, z[keep].imag]), float.__repr__,
                          _NONFINITE).reshape(2, -1).tolist()
    out[keep] = list(map(template.__mod__, zip(re, im)))
    return out.tolist()


@functools.cache
def _flags_text(mask: int, names: tuple, pad: int) -> str:
    return _dumps(list(_flag_names(mask, names)), pad)


def _tracked_json(record: RunRecord) -> list:
    """The members of every step's "tracked" object, step by step, each
    from one template over the formatted columns; keys in string order
    ("10" sorts before "2")."""
    order = sorted(range(len(record.tracked)),
                   key=lambda c: str(record.tracked[c]))
    keys = [str(j) for j in record.tracked[order].tolist()]
    flags = record.value_flags[:, order]
    intact = flags == 0
    present = [np.ones_like(intact), intact, intact, intact,
               record.has_conjugate_force[:, order],
               record.has_expected_force[:, order]]
    # one pass over the value columns: conjugate_force repeats
    # conjugate_term, and a repeated float is formatted once
    texts = _pair_texts(np.stack([getattr(record, name)[:, order]
                                  for name in _VALUES]), 5, np.stack(present))
    size = flags.size
    columns = {name: texts[c * size:(c + 1) * size]
               for c, name in enumerate(_VALUES)}
    columns["flags"] = [_flags_text(f, VALUE_FLAGS, 5)
                        for f in flags.ravel().tolist()]
    entry = "\"%s\": {\n" + ",\n".join(
        f'     "{key}": %s' for key in _CELL_KEYS) + "\n    }"
    return [entry % values for values in zip(
        keys * len(record.t), *(columns[key] for key in _CELL_KEYS))]


def _rows_json(record: RunRecord) -> str:
    """The list under a record document's "rows" key."""
    n, m = record.eigenvalues.shape[1], len(record.tracked)
    tracked = _tracked_json(record)
    eigenvalues = _pair_texts(record.eigenvalues, 4)
    permutation = list(map(str, record.permutation.ravel().tolist()))
    rows = [
        "{\n"
        f'   "eigenvalues": {_container(eigenvalues[k * n:(k + 1) * n], 3)},\n'
        f'   "flags": {_flags_text(f, STEP_FLAGS, 3)},\n'
        f'   "permutation": {_container(permutation[k * n:(k + 1) * n], 3)},\n'
        f'   "t": {t},\n'
        f'   "tracked": {_container(tracked[k * m:(k + 1) * m], 3, "{}")}\n'
        "  }"
        for k, (t, f) in enumerate(zip(_json_floats(record.t),
                                       record.step_flags.tolist()))
    ]
    return _container(rows, 1)


def record_json(record: RunRecord) -> str:
    """The JSON document of a record (keys ``rows``, ``events``,
    ``provenance``); absent values are null.  Keys are sorted and indented
    by one space per level: the bytes of ``json.dumps(document,
    sort_keys=True, indent=1)``."""
    events = [{"t_lo": e.t_lo, "t_hi": e.t_hi, "pair": list(e.pair),
               "min_abs_im": e.min_abs_im} for e in record.events]
    # the rows text is the one large part; it is copied once, here
    return (f'{{\n "events": {_dumps(events, 1)},\n'
            f' "provenance": {_dumps(dict(record.provenance), 1)},\n'
            f' "rows": {_rows_json(record)}\n}}')


def record_from_dict(data: dict) -> RunRecord:
    """Inverse of :func:`record_json` read by ``json.loads``.  Raises
    RecordInvalid when ``data`` does not follow the record schema."""
    try:
        rows = data["rows"]
        keys = sorted(rows[0]["tracked"], key=int)
        shape = (len(rows), len(keys))
        # every step's tracked entries, step by step: each column is read
        # in one pass over them
        cells = [row["tracked"][key] for row in rows for key in keys]
        eigenvalues = [row["eigenvalues"] for row in rows]
        if len(set(map(len, eigenvalues))) != 1:
            raise ValueError("rows hold different numbers of eigenvalues")
        values, has = {}, {}
        for name in _VALUES:
            column = [cell[name] for cell in cells]
            values[name] = _complex([v or (np.nan, np.nan) for v in column],
                                    shape)
            if name in ("conjugate_force", "expected_force"):
                has[f"has_{name}"] = np.array(
                    [v is not None for v in column], dtype=bool).reshape(shape)
        return RunRecord(
            t=np.array([row["t"] for row in rows], dtype=float),
            eigenvalues=_complex(list(itertools.chain.from_iterable(eigenvalues)),
                                 (len(rows), -1)),
            permutation=np.array([row["permutation"] for row in rows], dtype=int),
            tracked=np.array(keys, dtype=int),
            step_flags=np.array([_flag_mask(tuple(row["flags"]), STEP_FLAGS)
                                 for row in rows], dtype=int),
            value_flags=np.array([_flag_mask(tuple(cell["flags"]), VALUE_FLAGS)
                                  for cell in cells], dtype=int).reshape(shape),
            events=[CollisionEvent(e["t_lo"], e["t_hi"], tuple(e["pair"]),
                                   e["min_abs_im"]) for e in data["events"]],
            provenance=dict(data["provenance"]),
            **values, **has,
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise RecordInvalid(f"malformed run record: {exc!r}") from exc


# ---------------------------------------------------------------------------
# execution

# a run steps in blocks of about this many complex entries per (B, n, n)
# stack: the noise draw, LAPACK, the assignment and the BLAS products run
# per step, everything else once per block
_BLOCK_ENTRIES = 2**14


def _block_inputs(trajectory: MatrixTrajectory, proc, ts, rows: slice, noise):
    """M, Mdot and Mddot at the times ``ts[rows]`` as (B, n, n) stacks,
    with the noise walk applied, and the walk's state after them."""
    m, mdot, mddot = trajectory.at(ts[rows])
    if proc is not None:
        for s, k in enumerate(range(rows.start, rows.stop)):
            p = proc.sample(trajectory.n, k)
            m[s] += noise
            mdot[s] += p
            noise = noise + proc.dt * p  # applied from the next step on
    return m, mdot, mddot, noise


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    """Execute a scenario: steps+1 path-matched spectra, the forces of the
    tracked paths, collision events.  Deterministic given (config, seed)."""
    trajectory = build_trajectory(cfg)
    n = trajectory.n
    ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)
    dt = (cfg.t1 - cfg.t0) / cfg.steps

    tracked = np.arange(n) if cfg.tracked == "all" else np.array(
        sorted({j for j in cfg.tracked if j < n}), dtype=int
    )
    proc = None
    if cfg.perturbation is not None:
        proc = stochastic.PerturbationProcess(
            kind=cfg.perturbation.get("kind", "diagonal"),
            sigma2=float(cfg.perturbation.get("sigma2", 1.0)),
            seed=int(cfg.perturbation.get("seed", cfg.seed)),
            dt=dt,
        )

    shape = (len(ts), len(tracked))
    eigenvalues = np.empty((len(ts), n), dtype=complex)
    permutation = np.empty((len(ts), n), dtype=int)
    # absent values stay NaN
    values = {name: np.full(shape, complex(np.nan, np.nan)) for name in _VALUES}
    has_conjugate_force = np.zeros(shape, dtype=bool)
    step_flags = np.zeros(len(ts), dtype=int)
    value_flags = np.zeros(shape, dtype=int)

    block = max(1, _BLOCK_ENTRIES // n**2)
    prev = None  # the decomposition of the step before the block
    perm = np.arange(n)  # path -> raw index at that step
    noise = np.zeros((n, n), dtype=complex)
    for start in range(0, len(ts), block):
        rows = slice(start, min(start + block, len(ts)))
        m, mdot, mddot, noise = _block_inputs(trajectory, proc, ts, rows, noise)
        d = core.decompose(m)
        # per step, raw index at the step before -> raw index; the first
        # step of the run fixes the path order
        moves = np.tile(np.arange(n), (len(m), 1))
        ambiguous = np.zeros(len(m), dtype=bool)
        first = int(prev is None)
        if first < len(m):
            match = core.match_paths(d[0] if prev is None else prev, d[first:])
            moves[first:] = match.permutation
            ambiguous[first:] = match.ambiguous_steps
        perms = np.empty_like(moves)
        for s, move in enumerate(moves):
            perm = perms[s] = move[perm]

        real_input = core.is_real(m, 1e-10) & core.is_real(mdot, 1e-10)
        mdot = np.where(real_input[:, None, None], mdot.real, mdot)
        # without a pairing every eigenvalue is its own partner: no
        # conjugate term is split off
        partner = np.tile(np.arange(n), (len(m), 1))
        failed = np.zeros(len(m), dtype=bool)
        if real_input.any():
            pairing = core.pair_conjugates(d[real_input], 1e-7)
            partner[real_input] = pairing.partner
            failed[real_input] = pairing.failed_steps

        raw = perms[:, tracked]
        # complex eigenvalues of a real matrix; near the axis the conjugate
        # denominator blows up, so the record holds flagged absences
        # instead of huge values
        paired = np.take_along_axis(partner, raw, axis=-1) != raw
        near_real = paired & (np.abs(np.take_along_axis(
            d.eigenvalues, raw, axis=-1).imag) < cfg.collision_threshold)
        # the terms of a near-real pair may overflow; they are dropped below
        with np.errstate(over="ignore", invalid="ignore"):
            forces = dynamics.force_columns(d.left, d.right, d.eigenvalues, mdot,
                                            mddot, raw, partner, gap_tol=1e-14)
        singular = ~near_real & (forces.singular >= 0)
        intact = ~near_real & ~singular
        conj = paired & ~near_real

        eigenvalues[rows] = np.take_along_axis(d.eigenvalues, perms, axis=-1)
        permutation[rows] = perms
        step_flags[rows] = (_DEGENERATE * d.degenerate + _AMBIGUOUS * ambiguous
                            + _PAIRING_FAILED * failed)
        value_flags[rows] = _NEAR_REAL * near_real + _SINGULAR_GAP * singular
        values["velocity"][rows] = forces.velocity
        for name in ("inertial", "conjugate_term", "others"):
            values[name][rows][intact] = getattr(forces, name)[intact]
        has_conjugate_force[rows] = conj
        values["conjugate_force"][rows][conj] = forces.conjugate_term[conj]
        if proc is not None:
            values["expected_force"][rows][conj] = [
                stochastic.expected_conjugate_force_iid(
                    d[s], core.ConjugatePairing(partner[s], 1e-7), proc.sigma2,
                    j, kind=proc.kind)
                for s, j in zip(np.nonzero(conj)[0].tolist(), raw[conj].tolist())
            ]
        prev = d[-1]

    # a step whose largest path displacement exceeds 10x the step's median
    # displacement is an unmatched jump, typically near a collision
    disp = np.abs(np.diff(eigenvalues, axis=0))
    med = np.median(disp, axis=1)
    step_flags[1:][(med > 0) & (disp.max(axis=1) > 10 * med)] |= _JUMP

    record = RunRecord(
        t=ts, eigenvalues=eigenvalues, permutation=permutation,
        tracked=tracked, has_conjugate_force=has_conjugate_force,
        # the expectation exists wherever the force does, given noise
        has_expected_force=has_conjugate_force & (proc is not None),
        step_flags=step_flags,
        value_flags=value_flags, events=[],
        provenance={
            "config_hash": cfg.config_hash(),
            "seed": cfg.seed,
            "version": __version__,
        },
        **values,
    )
    return replace(record,
                   events=detect_collisions(record, cfg.collision_threshold))


def detect_collisions(record: RunRecord, threshold: float) -> list:
    """Bracket the time steps where an eigenvalue path's |Im| crosses
    below ``threshold`` (a conjugate pair reaching the real axis).  Every
    path is scanned, tracked or not.

    Brackets are reported, not root-polished; a conjugate pair crossing
    together gives one event.  An eigenvalue already below threshold at
    the first step yields an event there, unless it is exactly real.
    Ambiguous path matches (pair merging) are also recorded as events.
    """
    t, w = record.t.tolist(), record.eigenvalues
    ims = np.abs(w.imag)
    below = ims < threshold
    start = below.copy()
    start[1:] &= ~below[:-1]
    # at the first step only a genuinely complex eigenvalue below
    # threshold counts; permanently real ones never "reach" the axis
    start[:1] &= ims[:1] != 0.0
    events = []
    seen = set()
    for k, j in np.argwhere(start).tolist():
        dist = np.abs(w[k] - w[k, j].conjugate())
        dist[j] = np.inf
        partner = int(np.argmin(dist)) if w.shape[1] > 1 else j
        key = (k, frozenset((j, partner)))
        if key not in seen:
            seen.add(key)
            events.append(CollisionEvent(t[max(k - 1, 0)], t[k], (j, partner),
                                         float(ims[k, j])))
    events += [CollisionEvent(t[max(k - 1, 0)], t[k], (-1, -1), float("nan"))
               for k in np.flatnonzero(record.flagged("ambiguous-match")).tolist()]
    events.sort(key=lambda e: (e.t_hi, e.pair))
    return events


# ---------------------------------------------------------------------------
# persistence

_CSV_COLUMNS = [
    "t", "j", "re_lambda", "im_lambda", "re_vel", "im_vel",
    "re_acc_total", "im_acc_total", "re_inertial", "im_inertial",
    "re_conj", "im_conj", "re_others", "im_others", "flags",
]


# one CSV line: no field ever needs quoting
_CSV_LINE = ",".join(["%s"] * len(_CSV_COLUMNS)) + "\r\n"


@functools.cache
def _csv_flags(step: int, value: int) -> str:
    return ";".join(_flag_names(step, STEP_FLAGS) + _flag_names(value, VALUE_FLAGS))


def _csv_columns(record: RunRecord) -> list:
    """The CSV fields column by column, one entry per step and tracked
    index; floats at 17 significant digits, which round-trips double
    precision exactly."""
    m = len(record.tracked)
    fmt = "%.17g".__mod__
    # t is formatted once per step, every other float once per distinct
    # value over all the complex columns
    t = np.repeat(_float_texts(record.t, fmt), m).tolist()
    j = list(map(str, record.tracked.tolist())) * len(record.t)
    parts = [part for z in (record.eigenvalues[:, record.tracked],
                            record.velocity, record.total, record.inertial,
                            record.conjugate_term, record.others)
             for part in (z.real, z.imag)]
    floats = _float_texts(np.stack(parts), fmt).reshape(len(parts), -1).tolist()
    flags = [_csv_flags(step, value) for step, row in zip(
        record.step_flags.tolist(), record.value_flags.tolist()) for value in row]
    return [t, j, *floats, flags]


def export(record: RunRecord, format: str, path) -> None:
    """Write a run record as CSV (one row per step and tracked index) or
    JSON (lossless, including events and provenance)."""
    path = Path(path)
    if format == "json":
        with path.open("w") as fh:  # no copy of the text to append "\n"
            fh.write(record_json(record))
            fh.write("\n")
        return
    if format == "csv":
        with path.open("w", newline="") as fh:
            fh.write(_CSV_LINE % tuple(_CSV_COLUMNS))
            fh.writelines(map(_CSV_LINE.__mod__, zip(*_csv_columns(record))))
        return
    raise UnsupportedFormat(f"unsupported export format {format!r}")


def load_record(path) -> RunRecord:
    """Inverse of JSON export."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise RecordInvalid(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return record_from_dict(data)
