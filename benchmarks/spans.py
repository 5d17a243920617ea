"""Span tracing of eigendyn's public functions, from outside the program.

Only the traced pass imports this module.  :class:`Tracer` records one
span per wrapped call (name, start, end, parent span, op id) in memory;
:func:`patched` installs the wrappers and restores the originals on
exit.  A function is patched at every place it is looked up: each module
attribute that is bound to the same object (``stochastic`` binds
``pairwise_conjugate_summand`` by name, ``engine`` calls
``core.decompose`` through the module, ``eigendyn`` re-exports both).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

MODULES = ("eigendyn", "eigendyn.core", "eigendyn.dynamics", "eigendyn.stochastic",
           "eigendyn.models", "eigendyn.engine", "eigendyn.cli")


class Tracer:
    """In-memory span store.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.opid = array("i")
        self.op = 0
        self.counts: Counter = Counter()
        self._stack: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments.  ``after(counts, label, result, exc, args, kwargs)``
        updates ``counts`` when the call returns or raises."""

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(self.start)
            self.name.append(self._name_id(label))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.opid.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(self.clock())
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self.end[idx] = self.clock()
                self._stack.pop()
                self.counts[f"{label}.calls"] += 1
                if after is not None:
                    after(self.counts, label, result, exc, args, kwargs)

        return wrapper

    def self_times(self) -> dict:
        """Self seconds per span name: duration minus the part of the
        span's interval covered by its child spans."""
        children: dict = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out: Counter = Counter()
        for i in range(len(self.start)):
            s, e = self.start[i], self.end[i]
            covered, reach = 0.0, s
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                lo, hi = max(self.start[c], reach), min(self.end[c], e)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[self.names[self.name[i]]] += (e - s) - covered
        return dict(out)

    def write(self, path) -> None:
        """Write every span to an ``.npz``: one array per column, with
        ``name`` indexing ``names``."""
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 op=self.opid)


def _raised(error: str, suffix: str):
    def after(counts, label, result, exc, args, kwargs):
        if type(exc).__name__ == error:
            counts[f"{label}.{suffix}"] += 1
    return after


def _ambiguous(counts, label, result, exc, args, kwargs):
    if result is not None and result.ambiguous:
        counts[f"{label}.ambiguous"] += 1


def _nonzero_exit(counts, label, result, exc, args, kwargs):
    if exc is not None or result != 0:
        counts[f"{label}.nonzero_exit"] += 1


def _export_name(record, format, path):
    return f"engine.export.{format}"


def _export_bytes(counts, label, result, exc, args, kwargs):
    if exc is None:
        counts[f"{label}.bytes"] += Path(args[2]).stat().st_size


# (module, attribute, span name, counter hook); engine.export is named by
# its format argument, and engine.trajectory is installed by wrapping the
# callables of every trajectory engine.build_trajectory returns
TARGETS = (
    ("eigendyn.core", "decompose", "core.decompose", None),
    ("eigendyn.core", "match_paths", "core.match_paths", _ambiguous),
    ("eigendyn.core", "pair_conjugates", "core.pair_conjugates",
     _raised("PairingFailure", "failures")),
    ("eigendyn.dynamics", "eigen_velocity", "dynamics.eigen_velocity", None),
    ("eigendyn.dynamics", "eigen_acceleration", "dynamics.eigen_acceleration",
     _raised("SingularGap", "singular_gap")),
    ("eigendyn.dynamics", "conjugate_force", "dynamics.conjugate_force", None),
    ("eigendyn.dynamics", "pairwise_conjugate_summand",
     "stochastic.pairwise_conjugate_summand", None),
    ("eigendyn.stochastic", "monte_carlo_conjugate_force",
     "stochastic.monte_carlo_conjugate_force", None),
    ("eigendyn.stochastic", "expected_conjugate_force_iid",
     "stochastic.expected_conjugate_force_iid", None),
    ("eigendyn.models", "build_omega_le", "models.build_omega_le", None),
    ("eigendyn.models", "scattering_data", "models.scattering_data", None),
    ("eigendyn.models", "effective_hamiltonian", "models.effective_hamiltonian", None),
    ("eigendyn.engine", "run_scenario", "engine.run_scenario", None),
    ("eigendyn.engine", "detect_collisions", "engine.detect_collisions", None),
    ("eigendyn.engine", "export", _export_name, _export_bytes),
    ("eigendyn.engine", "load_record", "engine.load_record", None),
    ("eigendyn.cli", "main", "cli.main", _nonzero_exit),
)

# span names of the traced layers, for reporting zero counts too
LAYERS = tuple(t[2] for t in TARGETS if isinstance(t[2], str)) + (
    "engine.export.json", "engine.export.csv", "engine.trajectory",
    "stochastic.PerturbationProcess.sample")
# the counters the hooks above keep besides ``<layer>.calls``
COUNTERS = ("core.match_paths.ambiguous", "core.pair_conjugates.failures",
            "dynamics.eigen_acceleration.singular_gap", "cli.main.nonzero_exit",
            "engine.export.json.bytes", "engine.export.csv.bytes")


def binding_sites(obj) -> list:
    """Every (module, attribute) of the eigendyn modules bound to ``obj``."""
    sites = []
    for mod_name in MODULES:
        mod = importlib.import_module(mod_name)
        for attr, value in vars(mod).items():
            if value is obj:
                sites.append((mod, attr))
    return sites


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []

    def install(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, attr, name, after in TARGETS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = tracer.wrap(name, original, after)
            for owner, site in binding_sites(original):
                install(owner, site, wrapper)

        stochastic = importlib.import_module("eigendyn.stochastic")
        cls = stochastic.PerturbationProcess
        install(cls, "sample",
                tracer.wrap("stochastic.PerturbationProcess.sample", cls.sample))

        engine = importlib.import_module("eigendyn.engine")
        build = engine.build_trajectory

        def build_traced(*args, **kwargs):
            traj = build(*args, **kwargs)
            return dataclasses.replace(
                traj,
                value=tracer.wrap("engine.trajectory", traj.value),
                first_derivative=tracer.wrap("engine.trajectory",
                                             traj.first_derivative),
                second_derivative=tracer.wrap("engine.trajectory",
                                              traj.second_derivative),
            )

        for owner, site in binding_sites(build):
            install(owner, site, build_traced)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
