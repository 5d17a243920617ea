"""Scenario execution: step a matrix trajectory, track eigenvalue paths,
record force breakdowns, detect conjugate-pair collisions, persist results.

A scenario is a JSON document with top-level keys ``model``, ``time``,
``perturbation`` (optional), ``tracked``, ``collision_threshold``,
``seed``, and ``output``; ``SCHEMA`` gives each key's kind, default and
bound.  Explicit-matrix models reference matrix files of
whitespace-separated rows with complex entries written as "a+bi".
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import re
from collections import ChainMap, namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, core, dynamics, models, stochastic
from .dynamics import MatrixTrajectory
from .errors import (ConfigInvalid, EigendynError, RecordInvalid,
                     SpectralSingularity, UnsupportedFormat)

__all__ = [
    "ScenarioConfig",
    "RunRecord",
    "CollisionEvent",
    "parse_complex",
    "read_matrix_file",
    "read_scenario",
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


def _complex_value(value, where: str, ctx=None) -> complex:
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


def read_scenario(path) -> dict:
    """The JSON object of a scenario file.  Raises ConfigInvalid for a
    missing or unreadable file, bad JSON and a root that is not an
    object."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid(f"scenario file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("scenario root must be an object")
    return raw


# ---------------------------------------------------------------------------
# configuration
#
# A kind parses one raw value: ``kind(value, where, ctx)`` returns the
# typed value or raises ConfigInvalid naming ``where``.  ``ctx`` maps the
# keys parsed so far, in the section and the sections around it, and
# "base_dir", the directory matrix files are read from.


def _matrix(spec, where: str, ctx) -> np.ndarray:
    """Inline list-of-lists (entries may be complex strings) or file path."""
    if isinstance(spec, str):
        return read_matrix_file(ctx["base_dir"] / spec)
    if isinstance(spec, list) and all(isinstance(row, list) for row in spec):
        try:
            return np.array(
                [[_complex_value(x, where) for x in row] for row in spec],
                dtype=complex,
            )
        except ValueError as exc:  # ragged rows
            raise ConfigInvalid(f"{where}: bad inline matrix: {exc}") from exc
    raise ConfigInvalid(f"{where}: expected file path or inline rows")


def _numeric(cast, expected: str):
    """The kind of a finite float (``cast=float``) or of a non-negative
    integer given as an int, an integral float or an integer string
    (``cast=int``); a bool is neither."""
    def parse(value, where: str, ctx=None):
        try:
            x = cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalid(f"{where}: {exc}") from exc
        if cast is int:
            bad = x < 0 or isinstance(value, float) and x != value
        else:
            bad = not math.isfinite(x)
        if bad or isinstance(value, bool):
            raise ConfigInvalid(f"{where}: expected {expected}, got {value!r}")
        return x
    return parse


_float = _numeric(float, "a finite number")
_int = _numeric(int, "a non-negative integer")


def _string(value, where: str, ctx=None) -> str:
    if not isinstance(value, str):
        raise ConfigInvalid(f"{where}: expected a string, got {value!r}")
    return value


def _enum(noun: str, *choices):
    def parse(value, where: str, ctx=None):
        if value not in choices:  # a tuple: the value may be unhashable
            raise ConfigInvalid(f"{where}: unknown {noun} {value!r}")
        return value
    return parse


def _list_of(kind, unique: bool = False):
    def parse(value, where: str, ctx=None) -> list:
        if not isinstance(value, list):
            raise ConfigInvalid(f"{where}: expected a list, got {value!r}")
        items = [kind(item, f"{where}[{i}]", ctx) for i, item in enumerate(value)]
        if unique and len(set(items)) < len(items):
            raise ConfigInvalid(f"{where}: repeated item in {items!r}")
        return items
    return parse


def _per_site(value, where: str, ctx) -> np.ndarray:
    """One finite float per ring site."""
    values = _list_of(_float)(value, where)
    if len(values) != ctx["sites"]:
        raise ConfigInvalid(f"{where}: expected a list of {ctx['sites']} numbers "
                            f"(one per site), got {len(values)}")
    return np.array(values)


def _tracked(value, where: str, ctx=None):
    """"all" or a list of path indices; build_trajectory, which knows the
    number of paths, checks their range."""
    # a bool is not an index
    if value != "all" and not (isinstance(value, list) and all(
            type(i) is int and i >= 0 for i in value)):
        raise ConfigInvalid(f"{where}: 'all' or a list of indices")
    return value


def _section(name: str, nullable: bool = False):
    """An object holding the keys of ``SCHEMA[name]``; with ``nullable``,
    null stands for an absent section."""
    def parse(value, where: str, ctx):
        if value is None and nullable:
            return None
        if not isinstance(value, dict):
            raise ConfigInvalid(f"{where}: expected an object, got {value!r}")
        return _parse(value, SCHEMA[name], where, ctx)
    return parse


def _model(value, where: str, ctx) -> dict:
    """The model section: its "type" selects the table of its other keys."""
    if not isinstance(value, dict) or "type" not in value:
        raise ConfigInvalid(f"{where}: required object with a 'type' key")
    kind = _enum("type", *_MODEL_TYPES)(value["type"], f"{where}.type")
    rest = {key: v for key, v in value.items() if key != "type"}
    return dict(_parse(rest, SCHEMA[f"model.{kind}"], where, ctx), type=kind)


REQUIRED = object()  # the default of a key that must be given
# One scenario key.  ``kind`` parses its value.  ``default`` stands in for
# an absent key and is parsed like a given value; REQUIRED means the key
# must be given, None that its value is None, and a callable gives the
# typed value from the parse context.  Each (op, limit) of ``bound`` must
# hold for the typed value; a string limit names a key parsed before it.
Key = namedtuple("Key", "kind default bound", defaults=(REQUIRED, ()))
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
# numpy's largest array in complex entries: a run holds (steps + 1, n)
# complex columns, so steps + 1 may not exceed it even at n = 1, and an
# (n, n) complex matrix bounds the sites of a ring
_MAX_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize
_MODEL_TYPES = ("explicit", "ring", "transfer", "effective_hamiltonian")

# Every scenario key: one table per section, per model type and per
# object nested in a model, each walked in order
SCHEMA = {
    "": {
        "model": Key(_model),
        "time": Key(_section("time")),
        "tracked": Key(_tracked, "all"),
        "collision_threshold": Key(_float, 1e-6, ((">", 0),)),
        "seed": Key(_int, 0),
        "perturbation": Key(_section("perturbation", nullable=True), None),
        "output": Key(_section("output"), {}),
    },
    "time": {
        "t0": Key(_float),
        "t1": Key(_float, bound=((">", "t0"),)),
        "steps": Key(_int, bound=((">=", 1), ("<", _MAX_ENTRIES))),
    },
    "perturbation": {
        "kind": Key(_enum("kind", "diagonal", "full"), "diagonal"),
        "sigma2": Key(_float, 1.0, ((">=", 0),)),
        "seed": Key(_int, lambda ctx: ctx["seed"]),  # the run's seed
    },
    "output": {
        "dir": Key(_string, "out"),
        "formats": Key(_list_of(_enum("format", "csv", "json"), unique=True),
                       ["json"]),
    },
    "model.explicit": {
        "matrix": Key(_matrix),
        "velocity": Key(_matrix, None),
        "acceleration": Key(_matrix, None),
    },
    "model.ring": {
        "sites": Key(_int, bound=((">=", 3), ("<=", math.isqrt(_MAX_ENTRIES)))),
        "diffusion": Key(_float, 1.0, ((">", 0),)),
        "growth": Key(_float, 0.0),
        "tilt": Key(_float, 0.0),
        "fluctuations": Key(_per_site, lambda ctx: np.zeros(ctx["sites"])),
        "fluctuation_rate": Key(_per_site, lambda ctx: np.zeros(ctx["sites"])),
    },
    "model.transfer": {
        "entries": Key(_section("model.entries")),
        "unimodular_tol": Key(_float, 1e-9, ((">", 0),)),
    },
    # the coefficients of k^0, k^1, ... of each transfer-matrix entry
    "model.entries": {key: Key(_list_of(_complex_value))
                      for key in ("M11", "M12", "M21", "M22")},
    "model.effective_hamiltonian": {
        "H": Key(_matrix),
        "lindblad": Key(_list_of(_section("model.lindblad")), []),
    },
    "model.lindblad": {
        "L": Key(_matrix),
        "l": Key(_complex_value, 0),
        "l_rate": Key(_complex_value, 0),
    },
}


def _parse(section: dict, table: dict, where: str, ctx: ChainMap) -> dict:
    """The typed values of ``section`` by ``table``.  A key the table does
    not define is an error, so a misspelt key never falls back to a
    default."""
    prefix = f"{where}." if where else ""
    unknown = sorted(section.keys() - table.keys(), key=str)
    if unknown:
        raise ConfigInvalid(f"{prefix}{unknown[0]}: unknown key")
    values = ctx.new_child()
    for key, spec in table.items():
        here = prefix + key
        if key in section:
            x = spec.kind(section[key], here, values)
        elif spec.default is REQUIRED:
            raise ConfigInvalid(f"{here}: required")
        elif callable(spec.default):
            x = spec.default(values)
        else:
            x = None if spec.default is None else spec.kind(spec.default, here, values)
        values[key] = x
        for op, limit in spec.bound:
            if not _OPS[op](x, values[limit] if isinstance(limit, str) else limit):
                raise ConfigInvalid(f"{here}: {key} must be {op} {limit}, got {x!r}")
    return values.maps[0]


def _with_file_entries(written, typed):
    """``written`` with each matrix file's path beside its parsed entries."""
    if isinstance(written, str) and isinstance(typed, np.ndarray):
        return {"path": written,
                "entries": np.stack([typed.real, typed.imag], -1).tolist()}
    if isinstance(written, dict):
        return {key: _with_file_entries(v, typed[key]) for key, v in written.items()}
    if isinstance(written, list):
        return [_with_file_entries(v, t) for v, t in zip(written, typed)]
    return written


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario parsed by SCHEMA.  ``model`` and ``perturbation`` are the
    sections as written, which the config hash reads; ``params`` and ``noise``
    are their typed values (``noise`` is None without a perturbation)."""

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
    params: dict = field(compare=False)
    noise: Optional[dict] = field(compare=False)

    @staticmethod
    def from_dict(raw: dict, base_dir=".") -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("scenario root must be an object")
        v = _parse(raw, SCHEMA[""], "", ChainMap({"base_dir": Path(base_dir)}))
        # t1 > t0 alone lets the step underflow to 0 or overflow to inf
        time = v["time"]
        dt = (time["t1"] - time["t0"]) / time["steps"]
        if not 0 < dt < math.inf:
            raise ConfigInvalid(f"time: the step (t1 - t0) / steps must be finite "
                                f"and > 0, got {dt!r}")
        return ScenarioConfig(
            model=raw["model"], **time, tracked=v["tracked"],
            collision_threshold=v["collision_threshold"], seed=v["seed"],
            perturbation=raw.get("perturbation"), output_dir=v["output"]["dir"],
            output_formats=tuple(v["output"]["formats"]), params=v["model"],
            noise=v["perturbation"])

    @staticmethod
    def from_file(path) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(read_scenario(path),
                                        base_dir=Path(path).parent)

    def config_hash(self) -> str:
        """The sha256 of what the scenario computes: its sections as written,
        a matrix file by path and entries, and not where results go."""
        payload = {
            "model": _with_file_entries(self.model, self.params),
            "time": {"t0": self.t0, "t1": self.t1, "steps": self.steps},
            "tracked": self.tracked,
            "collision_threshold": self.collision_threshold,
            "seed": self.seed,
            "perturbation": self.perturbation,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _trajectory(p: dict) -> MatrixTrajectory:
    """The matrix trajectory of a model section's typed values."""
    if p["type"] == "explicit":
        return MatrixTrajectory.polynomial(p["matrix"], p["velocity"],
                                           p["acceleration"])

    if p["type"] == "ring":
        with np.errstate(over="ignore", invalid="ignore"):  # at() names inf hops
            base = models.build_omega_le(models.BiophysicalRing(
                p["sites"], p["diffusion"], p["growth"], p["tilt"]))
        # the clean ring plus U(t) = u0 + t*u1 on the diagonal, added last:
        # M is base + diag(u0 + t*u1) bit for bit, signed zeros included,
        # which the benchmark's reference fingerprints pin
        u = MatrixTrajectory.polynomial(np.diag(p["fluctuations"]),
                                        np.diag(p["fluctuation_rate"]))
        return replace(u, value=lambda t: base + u.value(t))

    if p["type"] == "transfer":
        # the entries in table order: M11, M12, M21, M22
        tmodel = models.TransferMatrixModel(*p["entries"].values(),
                                            unimodular_tol=p["unimodular_tol"])

        def s_matrix(k):
            return models.scattering_data(tmodel, k).s_matrix

        # evaluates the model once, at k = 0; M22(0) = 0 takes the floor, 1
        try:
            scale = max(1.0, float(np.linalg.norm(core.as_square_matrix(s_matrix(0.0)))))
        except SpectralSingularity:
            scale = 1.0
        # central differences of S at steps scaled by ||S(0)||_F; both are
        # products with the scale: a difference quotient magnifies a
        # last-bit change of a step by up to 1/h2**2
        h1, h2 = 1e-4 * scale, 1e-3 * scale

        def first(k):
            return (s_matrix(k + h1) - s_matrix(k - h1)) / (2 * h1)

        def second(k):
            return (s_matrix(k + h2) - 2 * s_matrix(k) + s_matrix(k - h2)) / h2**2

        return MatrixTrajectory(2, s_matrix, first, second)

    # effective_hamiltonian: affine in the displacements l + t l_rate
    h, terms = p["H"], p["lindblad"]
    spec = models.EffectiveHamiltonianSpec(  # checks shapes and Hermiticity
        h, [item["L"] for item in terms], [item["l"] for item in terms])
    rate = replace(spec, h=np.zeros_like(h),
                   displacements=[item["l_rate"] for item in terms])
    # polynomial rejects an overflowing coefficient, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return MatrixTrajectory.polynomial(models.effective_hamiltonian(spec),
                                           models.effective_hamiltonian(rate))


def build_trajectory(cfg: ScenarioConfig) -> MatrixTrajectory:
    """Instantiate the scenario's model as a matrix trajectory; the tracked
    indices must lie within its size.  A model the package rejects while
    building it, or a warning raised as an error there (``-W error``), is
    an invalid scenario: ConfigInvalid("model: ...")."""
    try:
        trajectory = _trajectory(cfg.params)
    except (EigendynError, Warning) as exc:
        raise ConfigInvalid(f"model: {exc}") from exc
    for j in [] if cfg.tracked == "all" else cfg.tracked:
        if j >= trajectory.n:
            raise ConfigInvalid(f"tracked: index {j} outside 0..{trajectory.n - 1}")
    return trajectory


# ---------------------------------------------------------------------------
# run records

# flag names in bit order: bit b of a flag mask stands for names[b]
STEP_FLAGS = ("degenerate", "ambiguous-match", "pairing-failed", "jump")
VALUE_FLAGS = ("near-real", "singular-gap", "non-finite")
_DEGENERATE, _AMBIGUOUS, _PAIRING_FAILED, _JUMP = 1, 2, 4, 8
_NEAR_REAL, _SINGULAR_GAP, _NON_FINITE = 1, 2, 4
# One complex (S, m) value column of a record: its key in a tracked JSON
# entry, the stem of its CSV fields re_<stem> and im_<stem> (None: not in
# the CSV), and the rule of where a run holds it.  "finite": wherever the
# value is finite.  "intact": where the path has no value flag.  "paired":
# where the path has a conjugate partner and no near-real or non-finite
# flag.  "noisy": as "paired", in a run with a perturbation.
_Column = namedtuple("_Column", "key stem rule")
_COLUMNS = (
    _Column("velocity", "vel", "finite"),
    _Column("inertial", "inertial", "intact"),
    _Column("conjugate_term", "conj", "intact"),
    _Column("others", "others", "intact"),
    _Column("conjugate_force", None, "paired"),
    _Column("expected_force", None, "noisy"),
)


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
    unique; the complex (S, m) value columns of ``_COLUMNS``; ``present``
    (len(_COLUMNS), S, m), where each value column holds a value, in table
    order; the bitmasks ``step_flags`` (S,) over STEP_FLAGS and
    ``value_flags`` (S, m) over VALUE_FLAGS.  An absent value is NaN, but
    absence is read from ``present``, never from NaN.
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
    present: np.ndarray
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


def _numbers(values: list) -> list:
    """``values``, each a JSON number: an int or a float, never a bool, a
    string or null."""
    if set(map(type, values)) - {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise ValueError(f"{bad!r} is not a number")
    return values


def _complex(pairs: list, shape: tuple) -> np.ndarray:
    """(shape) complex array of a flat list of [re, im] lists of numbers,
    bit for bit."""
    if set(map(len, pairs)) - {2}:
        raise ValueError("expected [re, im] pairs")
    parts = _numbers(list(itertools.chain.from_iterable(pairs)))
    return np.array(parts, dtype=float).view(complex).reshape(shape)


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
# written column by column: each float is formatted once, and each [re, im]
# pair and each row is one template, which json.dumps lays out.  ``pad`` is
# the indentation of the line a value starts on.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(value, pad: int) -> str:
    # JSON strings hold no raw newline, so every newline starts a line
    return json.dumps(value, sort_keys=True, indent=1).replace(
        "\n", "\n" + " " * pad)


def _template(skeleton, pad: int) -> tuple:
    """A %-template of ``_dumps(skeleton, pad)``, whose string leaves are
    the slots "@0", "@1", ...: each slot is a %s, and the slot numbers
    are returned in text order."""
    parts = re.split(r'"@(\d+)"', _dumps(skeleton, pad))
    text = "%s".join(part.replace("%", "%%") for part in parts[::2])
    return text, list(map(int, parts[1::2]))


def _pair_texts(z, pad: int, present=None) -> list:
    """json's text of each [re, im] pair of ``z``, flattened; null where
    not ``present``, and those are never formatted."""
    template, _ = _template(["@0", "@1"], pad)
    z = np.ravel(z)
    out = np.full(z.shape, "null", dtype=object)
    keep = slice(None) if present is None else np.ravel(present)
    re_im = _float_texts(np.stack([z[keep].real, z[keep].imag]), float.__repr__,
                         _NONFINITE).reshape(2, -1).tolist()
    out[keep] = list(map(template.__mod__, zip(*re_im)))
    return out.tolist()


@functools.cache
def _flags_text(mask: int, names: tuple, pad: int) -> str:
    return _dumps(list(_flag_names(mask, names)), pad)


def _rows_json(record: RunRecord) -> list:
    """The items of the list under a record document's "rows" key: each
    row fills one template, made from a skeleton row whose leaves are
    slots, with one column of texts per slot."""
    n, m = record.eigenvalues.shape[1], len(record.tracked)
    size = record.value_flags.size
    columns = []

    def slot(texts: list) -> str:
        columns.append(texts)
        return f"@{len(columns) - 1}"

    eigenvalues = _pair_texts(record.eigenvalues, 4)
    permutation = list(map(str, record.permutation.ravel().tolist()))
    # one pass over the value columns: conjugate_force repeats
    # conjugate_term, and a repeated float is formatted once
    values = _pair_texts(np.stack([getattr(record, c.key) for c in _COLUMNS]), 5,
                         record.present)
    value_flags = [_flags_text(f, VALUE_FLAGS, 5)
                   for f in record.value_flags.ravel().tolist()]
    skeleton = {
        "eigenvalues": [slot(eigenvalues[j::n]) for j in range(n)],
        "flags": slot([_flags_text(f, STEP_FLAGS, 3)
                       for f in record.step_flags.tolist()]),
        "permutation": [slot(permutation[j::n]) for j in range(n)],
        "t": slot(_float_texts(record.t, float.__repr__, _NONFINITE).tolist()),
        "tracked": {str(j): {
            **{c.key: slot(values[i * size + p:(i + 1) * size:m])
               for i, c in enumerate(_COLUMNS)},
            "flags": slot(value_flags[p::m]),
        } for p, j in enumerate(record.tracked.tolist())},
    }
    template, order = _template(skeleton, 2)
    return [template % row for row in zip(*(columns[i] for i in order))]


def _row_blocks(record: RunRecord):
    """The record as records of consecutive steps, each holding about
    ``_BLOCK_ENTRIES`` complex values (a step holds n eigenvalues and six
    values per tracked path): an export formats one block at a time, so
    its memory does not grow with the number of steps."""
    width = record.eigenvalues.shape[1] + len(_COLUMNS) * len(record.tracked)
    size = max(1, _BLOCK_ENTRIES // max(1, width))
    steps = {name: value for name, value in vars(record).items()
             if isinstance(value, np.ndarray) and name not in ("tracked", "present")}
    for start in range(0, len(record.t), size):
        rows = slice(start, start + size)
        yield replace(record, **{name: value[rows] for name, value in steps.items()},
                      present=record.present[:, rows])


def _json_chunks(record: RunRecord):
    """The text of :func:`record_json` in pieces, one per row block."""
    events = [{"t_lo": e.t_lo, "t_hi": e.t_hi, "pair": list(e.pair),
               "min_abs_im": e.min_abs_im} for e in record.events]
    yield (f'{{\n "events": {_dumps(events, 1)},\n'
           f' "provenance": {_dumps(dict(record.provenance), 1)},\n'
           ' "rows": ')
    # the rows list as json.dumps writes it at indentation 1
    opened = False
    for block in _row_blocks(record):
        yield ",\n  " if opened else "[\n  "
        yield ",\n  ".join(_rows_json(block))
        opened = True
    yield "\n ]\n}" if opened else "[]\n}"


def record_json(record: RunRecord) -> str:
    """The JSON document of a record (keys ``rows``, ``events``,
    ``provenance``); absent values are null.  Keys are sorted and indented
    by one space per level: the bytes of ``json.dumps(document,
    sort_keys=True, indent=1)``."""
    return "".join(_json_chunks(record))


def record_from_dict(data: dict) -> RunRecord:
    """Inverse of :func:`record_json` read by ``json.loads``.  Raises
    RecordInvalid when ``data`` does not follow the record schema, when a
    time, eigenvalue, value or event field is not a number, when rows
    track different paths, when a tracked key or a permutation row is
    not one of n paths, when an event's pair is not two of them or
    (-1, -1), or when the provenance is not an object."""
    try:
        rows = data["rows"]
        keys = sorted(rows[0]["tracked"], key=int)
        tracked = [row["tracked"] for row in rows]
        # a row without one of row 0's keys fails below, so a row with as
        # many keys tracks the same paths
        if set(map(len, tracked)) != {len(keys)}:
            raise ValueError("rows track different paths")
        # every step's tracked entries, step by step: each column is read
        # in one pass over them
        cells = [entries[key] for entries in tracked for key in keys]
        values = [cell[c.key] for c in _COLUMNS for cell in cells]
        shape = (len(_COLUMNS), len(rows), len(keys))
        table = _complex([(np.nan, np.nan) if v is None else v for v in values],
                         shape)
        eigenvalues = [row["eigenvalues"] for row in rows]
        if len(set(map(len, eigenvalues))) != 1:
            raise ValueError("rows hold different numbers of eigenvalues")
        n = len(eigenvalues[0])
        if not set(keys) <= set(map(str, range(n))):
            raise ValueError(f"tracked keys {keys} are not indices 0..{n - 1}")
        perms = [row["permutation"] for row in rows]
        permutation = np.array(perms, dtype=int)
        if permutation.shape != (len(rows), n) or set(map(
                type, itertools.chain.from_iterable(perms))) - {int} or (
                np.sort(permutation) != np.arange(n)).any():
            raise ValueError(f"a permutation row is not one of 0..{n - 1}")
        events = [CollisionEvent(e["t_lo"], e["t_hi"], tuple(e["pair"]),
                                 e["min_abs_im"]) for e in data["events"]]
        _numbers([x for e in events for x in (e.t_lo, e.t_hi, e.min_abs_im)])
        for pair in (e.pair for e in events):
            # two paths, or the (-1, -1) of an ambiguous match
            if (set(map(type, pair)) - {int} or len(pair) != 2
                    or pair != (-1, -1) and not all(0 <= i < n for i in pair)):
                raise ValueError(f"event pair {list(pair)} is not two of "
                                 f"0..{n - 1} or [-1, -1]")
        provenance = data["provenance"]
        if not isinstance(provenance, dict):
            raise ValueError(f"provenance {provenance!r} is not an object")
        return RunRecord(
            t=np.array(_numbers([row["t"] for row in rows]), dtype=float),
            eigenvalues=_complex(list(itertools.chain.from_iterable(eigenvalues)),
                                 (len(rows), n)),
            permutation=permutation,
            tracked=np.array(keys, dtype=int),
            **{c.key: table[i] for i, c in enumerate(_COLUMNS)},
            present=np.fromiter((v is not None for v in values), bool).reshape(shape),
            step_flags=np.array([_flag_mask(tuple(row["flags"]), STEP_FLAGS)
                                 for row in rows], dtype=int),
            value_flags=np.array([_flag_mask(tuple(cell["flags"]), VALUE_FLAGS)
                                  for cell in cells], dtype=int).reshape(shape[1:]),
            events=events,
            provenance=dict(provenance),
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:  # OverflowError: an int beyond a float
        raise RecordInvalid(f"malformed run record: {exc!r}") from exc


# ---------------------------------------------------------------------------
# execution

# a run steps in blocks of about this many complex entries per (B, n, n)
# stack: the noise draw, LAPACK, the assignment and the BLAS products run
# per step, everything else once per block
_BLOCK_ENTRIES = 2**14


def _block_inputs(trajectory: MatrixTrajectory, proc, dt, ts, rows: slice, noise):
    """M, Mdot and Mddot at the times ``ts[rows]`` as (B, n, n) stacks,
    with the noise walk of step ``dt`` applied, and its state after them."""
    m, mdot, mddot = trajectory.at(ts[rows])
    if proc is not None:
        p = np.stack([proc.sample(trajectory.n, k)
                      for k in range(rows.start, rows.stop)])
        # the walk before each step and after the last (a draw moves M
        # from the next step on), summed in step order
        walk = np.cumsum(np.concatenate([noise[None], dt * p]), axis=0)
        m, mdot, noise = m + walk[:-1], mdot + p, walk[-1]
    return m, mdot, mddot, noise


def run_scenario(cfg: ScenarioConfig) -> RunRecord:
    """Execute a scenario: steps+1 path-matched spectra, the forces of the
    tracked paths, collision events.  Deterministic given (config, seed)."""
    trajectory = build_trajectory(cfg)
    n = trajectory.n
    ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)

    tracked = np.arange(n) if cfg.tracked == "all" else np.array(
        sorted(set(cfg.tracked)), dtype=int)
    proc = None if cfg.noise is None else stochastic.PerturbationProcess(**cfg.noise)

    shape = (len(ts), len(tracked))
    eigenvalues = np.empty((len(ts), n), dtype=complex)
    permutation = np.empty((len(ts), n), dtype=int)
    # the value columns in table order; absent values stay NaN
    values = np.full((len(_COLUMNS),) + shape, complex(np.nan, np.nan))
    present = np.zeros(values.shape, dtype=bool)
    step_flags = np.zeros(len(ts), dtype=int)
    value_flags = np.zeros(shape, dtype=int)

    block = max(1, _BLOCK_ENTRIES // n**2)
    prev = None  # the decomposition of the step before the block
    perm = np.arange(n)  # path -> raw index at that step
    noise = np.zeros((n, n), dtype=complex)
    for start in range(0, len(ts), block):
        rows = slice(start, min(start + block, len(ts)))
        m, mdot, mddot, noise = _block_inputs(
            trajectory, proc, (cfg.t1 - cfg.t0) / cfg.steps, ts, rows, noise)
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

        real_input = core.is_real(m) & core.is_real(mdot)
        mdot = np.where(real_input[:, None, None], mdot.real, mdot)
        # without a pairing every eigenvalue is its own partner: no
        # conjugate term is split off
        partner = np.tile(np.arange(n), (len(m), 1))
        failed = np.zeros(len(m), dtype=bool)
        if real_input.any():
            pairing = core.pair_conjugates(d[real_input])
            partner[real_input] = pairing.partner
            failed[real_input] = pairing.failed_steps

        raw = perms[:, tracked]
        # complex eigenvalues of a real matrix; near the axis the conjugate
        # denominator blows up, so the record holds flagged absences
        # instead of huge values
        paired = np.take_along_axis(partner, raw, axis=-1) != raw
        near_real = paired & (np.abs(np.take_along_axis(
            d.eigenvalues, raw, axis=-1).imag) < cfg.collision_threshold)
        # the terms of a near-real pair, or of a large model, may overflow:
        # a cell whose value is not finite is flagged below
        with np.errstate(over="ignore", invalid="ignore"):
            forces = dynamics.force_columns(d.left, d.right, d.eigenvalues, mdot,
                                            mddot, raw, partner)
            singular = ~near_real & (forces.singular >= 0)
            conj = paired & ~near_real
            rules = {"finite": np.ones_like(conj), "intact": ~near_real & ~singular,
                     "paired": conj, "noisy": conj & (proc is not None)}
            expected = (np.full(conj.shape, complex(np.nan, np.nan)) if proc is None
                        else stochastic.expected_force_columns(
                            d.left, d.right, d.eigenvalues, raw, proc.sigma2, proc.kind))
        terms = dict(vars(forces), conjugate_force=forces.conjugate_term,
                     expected_force=expected)
        block_values = np.stack([terms[c.key] for c in _COLUMNS])
        held = np.stack([rules[c.rule] for c in _COLUMNS])
        here = held & np.isfinite(block_values)
        non_finite = (held & ~here).any(axis=0)
        # a cell flagged non-finite keeps only its finite "finite" columns
        here[[c.rule != "finite" for c in _COLUMNS]] &= ~non_finite

        eigenvalues[rows] = np.take_along_axis(d.eigenvalues, perms, axis=-1)
        permutation[rows] = perms
        step_flags[rows] = (_DEGENERATE * d.degenerate + _AMBIGUOUS * ambiguous
                            + _PAIRING_FAILED * failed)
        value_flags[rows] = (_NEAR_REAL * near_real + _SINGULAR_GAP * singular
                             + _NON_FINITE * non_finite)
        present[:, rows] = here
        values[:, rows][here] = block_values[here]
        prev = d[-1]

    # a step whose largest path displacement exceeds 10x the step's median
    # displacement is an unmatched jump, typically near a collision
    disp = np.abs(np.diff(eigenvalues, axis=0))
    med = np.median(disp, axis=1)
    step_flags[1:][(med > 0) & (disp.max(axis=1) > 10 * med)] |= _JUMP

    record = RunRecord(
        t=ts, eigenvalues=eigenvalues, permutation=permutation, tracked=tracked,
        **{c.key: values[i] for i, c in enumerate(_COLUMNS)}, present=present,
        step_flags=step_flags, value_flags=value_flags, events=[],
        provenance={"config_hash": cfg.config_hash(), "seed": cfg.seed,
                    "version": __version__},
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
    found = {}  # the first event of each step and pair
    for k, j in np.argwhere(start).tolist():
        dist = np.abs(w[k] - w[k, j].conjugate())
        dist[j] = np.inf
        partner = int(np.argmin(dist)) if w.shape[1] > 1 else j
        found.setdefault((k, frozenset((j, partner))), CollisionEvent(
            t[max(k - 1, 0)], t[k], (j, partner), float(ims[k, j])))
    events = list(found.values()) + [
        CollisionEvent(t[max(k - 1, 0)], t[k], (-1, -1), float("nan"))
        for k in np.flatnonzero(record.flagged("ambiguous-match")).tolist()]
    events.sort(key=lambda e: (e.t_hi, e.pair))
    return events


# ---------------------------------------------------------------------------
# persistence

# The CSV's float fields are pairs re_<stem>, im_<stem>: the tracked
# eigenvalues ("lambda"), then the value columns with a stem, the first
# (the velocity) followed by the total ("acc_total") of the others, the
# acceleration split.
_STEMS = [c.stem for c in _COLUMNS if c.stem]
_CSV_HEADER = ["t", "j", *(f"{part}_{stem}" for stem in (
    "lambda", _STEMS[0], "acc_total", *_STEMS[1:]) for part in ("re", "im")), "flags"]
# one CSV line: no field ever needs quoting
_CSV_LINE = ",".join(["%s"] * len(_CSV_HEADER)) + "\r\n"


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
    first, *split = [getattr(record, c.key) for c in _COLUMNS if c.stem]
    parts = [part for z in (record.eigenvalues[:, record.tracked], first,
                            record.total, *split)
             for part in (z.real, z.imag)]
    floats = _float_texts(np.stack(parts), fmt).reshape(len(parts), -1).tolist()
    flags = [_csv_flags(step, value) for step, row in zip(
        record.step_flags.tolist(), record.value_flags.tolist()) for value in row]
    return [t, j, *floats, flags]


def _csv_chunks(record: RunRecord):
    """The CSV text in pieces: the header, then one piece per row block."""
    yield _CSV_LINE % tuple(_CSV_HEADER)
    for block in _row_blocks(record):
        yield "".join(map(_CSV_LINE.__mod__, zip(*_csv_columns(block))))


def _open_beside(path: Path, newline):
    """A new text file in ``path``'s directory, open for writing, and its
    path; created as a plain open() creates a file (0o666 less the
    umask), never over an existing one."""
    for attempt in itertools.count():
        temporary = path.with_name(f".{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            return temporary, open(temporary, "x", newline=newline)
        except FileExistsError:
            continue


def export(record: RunRecord, format: str, path) -> None:
    """Write a run record as CSV (one row per step and tracked index) or
    JSON (lossless, including events and provenance).  The text is
    formatted and written one row block at a time into a new file beside
    ``path``, which then replaces ``path``: a failed export leaves any
    earlier file there as it was."""
    if format == "json":
        chunks, newline = itertools.chain(_json_chunks(record), "\n"), None
    elif format == "csv":
        chunks, newline = _csv_chunks(record), ""
    else:
        raise UnsupportedFormat(f"unsupported export format {format!r}")
    temporary, fh = _open_beside(Path(path), newline)
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_record(path) -> RunRecord:
    """Inverse of JSON export.  Raises RecordInvalid for a file that
    cannot be read, is not JSON or does not follow the record schema."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise RecordInvalid(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise RecordInvalid(f"cannot read record file {path}: {exc}") from exc
    return record_from_dict(data)
