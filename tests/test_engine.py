import contextlib
import copy
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigendyn
from eigendyn import cli, core, dynamics, engine, models, stochastic
from eigendyn.engine import ScenarioConfig
from eigendyn.errors import (ConfigInvalid, PairingFailure, RecordInvalid,
                             UnsupportedFormat)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the value columns of a record, in table order
KEYS = [c.key for c in engine._COLUMNS]
CSV_HEADER = ["t", "j", "re_lambda", "im_lambda", "re_vel", "im_vel",
              "re_acc_total", "im_acc_total", "re_inertial", "im_inertial",
              "re_conj", "im_conj", "re_others", "im_others", "flags"]


def _present(record, key):
    """Where value column ``key`` of ``record`` holds a value: where it is
    finite."""
    return np.isfinite(getattr(record, key))


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("3", 3.0),
        ("-2.5", -2.5),
        ("1+2i", 1 + 2j),
        ("1-2i", 1 - 2j),
        ("1+2j", 1 + 2j),
        ("-0.5-0.25i", -0.5 - 0.25j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        ("1e-3+2e2i", 1e-3 + 200j),
        ("1\t+ 2i", 1 + 2j),
        (4, 4.0),
        (1.5j, 1.5j),
    ])
    def test_accepts(self, text, value):
        assert engine.parse_complex(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "++i", "1 + + 2i"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            engine.parse_complex(text)


class TestReadMatrixFile:
    def test_reads_with_comments(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# a 2x2 rotation generator\n0 1\n\n-1 0\n")
        np.testing.assert_array_equal(engine.read_matrix_file(p),
                                      [[0, 1], [-1, 0]])

    def test_reads_complex_entries(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1+2i 0\n0 1-2i\n")
        got = engine.read_matrix_file(p)
        np.testing.assert_array_equal(got, [[1 + 2j, 0], [0, 1 - 2j]])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n3\n")
        with pytest.raises(ConfigInvalid, match="ragged"):
            engine.read_matrix_file(p)

    def test_bad_token_reports_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\nx 4\n")
        with pytest.raises(ConfigInvalid, match=":2:"):
            engine.read_matrix_file(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("# only comments\n")
        with pytest.raises(ConfigInvalid, match="no matrix rows"):
            engine.read_matrix_file(p)


def _no_partner(d):
    """A stacked pairing that fails on every step."""
    w = d.eigenvalues
    return core.ConjugatePairing(np.broadcast_to(np.arange(d.n), w.shape).copy(),
                                 np.ones(w.shape[:-1], dtype=bool))


def base_config(**overrides):
    raw = {
        "model": {"type": "explicit",
                  "matrix": [[1.0, 0.0], [0.0, 2.0]]},
        "time": {"t0": 0.0, "t1": 1.0, "steps": 4},
        "seed": 0,
    }
    raw.update(overrides)
    return raw


class TestScenarioConfig:
    def test_minimal_valid(self):
        cfg = ScenarioConfig.from_dict(base_config())
        assert cfg.steps == 4
        assert cfg.tracked == "all"
        assert cfg.output_formats == ("json",)

    @pytest.mark.parametrize("mutate,msg", [
        ({"model": None}, "model"),
        ({"model": {"type": "warp"}}, "unknown type"),
        ({"time": {"t0": 1.0, "t1": 0.0, "steps": 3}}, "t1 must be > t0"),
        ({"time": {"t0": 0.0, "t1": 1.0, "steps": 0}}, "steps"),
        ({"time": None}, "time"),
        ({"collision_threshold": 0.0}, "collision_threshold"),
        ({"tracked": [0, -1]}, "tracked"),
        ({"perturbation": {"kind": "banana"}}, "kind"),
        ({"perturbation": {"sigma2": -1.0}}, "sigma2"),
        ({"output": {"formats": ["xml"]}}, "format"),
        ({"output": {"dir": 5}}, "output.dir"),
        ({"model": {"type": "explicit", "matrix": [[1.0, 0.0], [2.0]]}},
         "model.matrix: bad inline matrix"),
    ])
    def test_invalid_rejected(self, mutate, msg):
        with pytest.raises(ConfigInvalid, match=msg):
            ScenarioConfig.from_dict(base_config(**mutate))

    @pytest.mark.parametrize("mutate", [
        {"collision_threshold": "abc"},
        {"collision_threshold": float("nan")},
        {"seed": "x"},
        {"perturbation": {"sigma2": "a"}},
        {"perturbation": {"sigma2": float("nan")}},
        {"perturbation": {"seed": 1.5}},
        {"output": []},
        {"time": {"t0": 0.0, "t1": float("inf"), "steps": 4}},
        {"time": {"t0": 0.0, "t1": 1.0, "steps": 2.7}},
        {"time": {"t0": 0.0, "t1": 1.0, "steps": True}},
        {"tracked": [True]},
        {"time": {"t0": 0.0, "t1": True, "steps": 4}},
        {"collision_threshold": True},
        {"seed": -1},
        {"perturbation": {"seed": -3}},
    ], ids=repr)
    def test_bad_scalar_rejected(self, tmp_path, mutate):
        raw = base_config(**mutate)
        with pytest.raises(ConfigInvalid):
            ScenarioConfig.from_dict(raw)
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(raw))
        argv = ["run", "--scenario", str(p), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("mutate,key", [
        ({"colision_threshold": 0.5}, "colision_threshold"),
        ({"time": {"t0": 0.0, "t1": 1.0, "steps": 4, "step": 2}}, "time.step"),
        ({"perturbation": {"sigma": 1.0}}, "perturbation.sigma"),
        ({"output": {"format": ["csv"]}}, "output.format"),
        ({"model": {"type": "ring", "sites": 4, "difusion": 2.0}},
         "model.difusion"),
        ({"model": {"type": "explicit", "matrix": [[1.0]], "H": [[1.0]]}},
         "model.H"),
        ({"model": {"type": "transfer", "entries": {"M11": ["1"], "M13": ["1"]}}},
         "model.entries.M13"),
        ({"model": {"type": "effective_hamiltonian", "H": [[1.0]],
                    "lindblad": [{"L": [[1.0]], "rate": "1"}]}},
         r"model.lindblad\[0\].rate"),
    ], ids=repr)
    def test_unknown_key_rejected(self, mutate, key):
        with pytest.raises(ConfigInvalid, match=f"^{key}: unknown key"):
            ScenarioConfig.from_dict(base_config(**mutate))

    def test_hash_stable_and_sensitive(self):
        a = ScenarioConfig.from_dict(base_config()).config_hash()
        b = ScenarioConfig.from_dict(base_config()).config_hash()
        c = ScenarioConfig.from_dict(base_config(seed=1)).config_hash()
        assert a == b
        assert a != c

    def test_from_file(self, tmp_path, monkeypatch):
        # matrix files are read beside the scenario, whatever the working
        # directory
        (tmp_path / "m.txt").write_text("1 0\n0 2\n")
        (tmp_path / "scn.json").write_text(json.dumps(
            base_config(model={"type": "explicit", "matrix": "m.txt"})))
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        cfg = ScenarioConfig.from_file(Path("..") / "scn.json")
        np.testing.assert_array_equal(cfg.params["matrix"], [[1, 0], [0, 2]])

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ConfigInvalid, match=":2:"):
            ScenarioConfig.from_file(p)

    def test_root_not_an_object(self):
        with pytest.raises(ConfigInvalid, match="root must be an object"):
            ScenarioConfig.from_dict([])

    @pytest.mark.parametrize("content,msg", [
        (None, "not found"),
        ("dir", "cannot read scenario file"),  # OSError
        (b"\xff\xfe{", "cannot read scenario file"),  # UnicodeDecodeError
        (b"[1, 2]", "root must be an object"),
    ])
    def test_unreadable_file_is_config_invalid(self, tmp_path, content, msg):
        p = tmp_path / "scn.json"
        if content == "dir":
            p.mkdir()
        elif content is not None:
            p.write_bytes(content)
        with pytest.raises(ConfigInvalid, match=msg):
            ScenarioConfig.from_file(p)


class TestBuildTrajectory:
    def test_explicit_polynomial(self):
        raw = base_config()
        raw["model"]["velocity"] = [[0.0, 1.0], [0.0, 0.0]]
        cfg = ScenarioConfig.from_dict(raw)
        traj = engine.build_trajectory(cfg)
        np.testing.assert_array_equal(traj.value(2.0),
                                      [[1.0, 2.0], [0.0, 2.0]])
        np.testing.assert_array_equal(traj.first_derivative(2.0),
                                      [[0.0, 1.0], [0.0, 0.0]])

    def test_explicit_from_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("1 0\n0 2\n")
        (tmp_path / "b.txt").write_text("0 1\n0 0\n")
        raw = base_config(model={"type": "explicit", "matrix": "a.txt",
                                 "velocity": "b.txt"})
        cfg = ScenarioConfig.from_dict(raw, base_dir=tmp_path)
        traj = engine.build_trajectory(cfg)
        np.testing.assert_array_equal(traj.value(1.0), [[1, 1], [0, 2]])

    def test_ring(self):
        raw = base_config(model={"type": "ring", "sites": 5,
                                 "diffusion": 0.5, "tilt": 0.3})
        traj = engine.build_trajectory(ScenarioConfig.from_dict(raw))
        assert traj.n == 5
        m = np.asarray(traj.value(0.0))
        assert m[0, 1] == pytest.approx(0.5 * np.exp(0.3))
        assert m[0, 4] == pytest.approx(0.5 * np.exp(-0.3))

    def test_ring_fluctuation_rate(self):
        raw = base_config(model={"type": "ring", "sites": 4, "diffusion": 1.0,
                                 "fluctuation_rate": [1.0, 0.0, 0.0, 0.0]})
        traj = engine.build_trajectory(ScenarioConfig.from_dict(raw))
        m0 = np.asarray(traj.value(0.0))
        m1 = np.asarray(traj.value(0.5))
        assert m1[0, 0] - m0[0, 0] == pytest.approx(0.5)
        np.testing.assert_array_equal(np.asarray(traj.first_derivative(0.0)),
                                      np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_transfer(self):
        raw = base_config(model={
            "type": "transfer",
            "entries": {"M11": ["2", "1"], "M12": ["1"],
                        "M21": ["1", "1"], "M22": ["1"]},
        })
        traj = engine.build_trajectory(ScenarioConfig.from_dict(raw))
        assert traj.n == 2
        s = np.asarray(traj.value(0.0))
        np.testing.assert_allclose(s, [[1.0, 1.0], [-1.0, 1.0]], atol=1e-12)

    def test_effective_hamiltonian(self):
        raw = base_config(model={
            "type": "effective_hamiltonian",
            "H": [[0.0, 0.0], [0.0, 1.0]],
            "lindblad": [{"L": [[0.0, 1.0], [0.0, 0.0]],
                          "l": "0.5", "l_rate": "0.1"}],
        })
        traj = engine.build_trajectory(ScenarioConfig.from_dict(raw))
        m = np.asarray(traj.value(0.0))
        want = np.diag([0.0, 1.0]) + 0.5j * 0.5 * np.array(
            [[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(m, want, atol=1e-15)

    @pytest.mark.parametrize("model", [
        {"type": "ring", "sites": 4, "fluctuations": [float("nan"), 0, 0, 0]},
        {"type": "ring", "sites": 4, "fluctuation_rate": [0, "x", 0, 0]},
        {"type": "ring", "sites": 4, "fluctuations": [0, 0, 0]},
        {"type": "ring", "sites": 4.9},
        {"type": "ring", "sites": True},
        {"type": "ring", "sites": 0},
        {"type": "ring"},
        {"type": "ring", "sites": 4, "diffusion": float("inf")},
        {"type": "ring", "sites": 4, "growth": "fast"},
        {"type": "ring", "sites": 4, "tilt": float("nan")},
        {"type": "transfer", "entries": {k: ["1"] for k in
                                         ("M11", "M12", "M21", "M22")},
         "unimodular_tol": 0.0},
        {"type": "transfer", "entries": {k: ["1"] for k in
                                         ("M11", "M12", "M21", "M22")},
         "unimodular_tol": float("nan")},
        {"type": "effective_hamiltonian", "H": [[1.0]], "lindblad": 5},
        {"type": "ring", "sites": 4, "tilt": True},
        {"type": "explicit", "matrix": "missing.txt"},
        {"type": "explicit", "matrix": ""},
        {"type": "explicit", "matrix": ["1"]},
        {"type": "explicit", "matrix": [[True]]},
        {"type": "transfer", "entries": {"M11": [], "M12": ["1"], "M21": ["0"],
                                         "M22": ["1"]}},
        {"type": "transfer", "entries": {"M11": ["1"], "M12": [], "M21": ["0.5"],
                                         "M22": ["1"]}},
        {"type": "transfer", "entries": {"M11": ["1"], "M12": ["nan"],
                                         "M21": ["0"], "M22": ["1"]}},
        {"type": "transfer", "entries": {"M11": "1", "M12": ["1"], "M21": ["0"],
                                         "M22": ["1"]}},
        {"type": "effective_hamiltonian", "H": [[1.0]],
         "lindblad": [{"L": [[1.0]], "l": float("nan")}]},
        {"type": "effective_hamiltonian", "H": [[1.0]],
         "lindblad": [{"L": [[1.0]], "l_rate": float("inf")}]},
        {"type": "effective_hamiltonian", "H": [[1.0]],
         "lindblad": [{"L": [[0.0, 1.0], [0.0, 0.0]]}]},
        {"type": "effective_hamiltonian", "H": [[1.0, 2.0]]},
    ], ids=repr)
    def test_bad_model_parameter(self, tmp_path, model):
        raw = base_config(model=model)
        with pytest.raises(ConfigInvalid):
            engine.build_trajectory(ScenarioConfig.from_dict(raw))
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(raw))
        assert cli.main(["validate", "--scenario", str(p)]) == 2
        argv = ["run", "--scenario", str(p), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2

    def test_transfer_branch_is_unknown_key(self, tmp_path):
        # the key selected nothing and is no longer accepted
        raw = base_config(model={
            "type": "transfer", "branch": 0.5,
            "entries": {k: ["1"] for k in ("M11", "M12", "M21", "M22")}})
        with pytest.raises(ConfigInvalid, match="^model.branch: unknown key"):
            ScenarioConfig.from_dict(raw)
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(raw))
        assert cli.main(["validate", "--scenario", str(p)]) == 2
        argv = ["run", "--scenario", str(p), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2

    def test_missing_transfer_entry(self):
        raw = base_config(model={"type": "transfer",
                                 "entries": {"M11": ["1"]}})
        with pytest.raises(ConfigInvalid, match="M12"):
            engine.build_trajectory(ScenarioConfig.from_dict(raw))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,message", [
        ({"type": "explicit", "matrix": [[0, 1], [-1, 0]], "velocity": [[1]]},
         "polynomial coefficients must share shape"),
        # det M(0) = 2
        ({"type": "transfer", "entries": {"M11": ["2"], "M12": ["0"],
                                          "M21": ["0"], "M22": ["1"]}},
         r"\|det M\(k=0\.0\) - 1\|"),
        ({"type": "effective_hamiltonian", "H": [[0, 1], [1, 0]],
          "lindblad": [{"L": [[1]]}]}, "Lindblad operator dimension mismatch"),
        # conj(l) L overflows
        ({"type": "effective_hamiltonian", "H": [[0, 1], [1, 0]],
          "lindblad": [{"L": [[0, 1e308], [0, 0]], "l": 4}]}, "NaN/Inf"),
    ], ids=["velocity-shape", "transfer-det", "lindblad-shape", "eh-overflow"])
    def test_model_build_error_is_a_model_config_error(self, tmp_path, capsys,
                                                        model, message):
        raw = base_config(model=model, time={"t0": 0.5, "t1": 1.0, "steps": 4})
        with pytest.raises(ConfigInvalid, match=f"^model: .*{message}"):
            engine.build_trajectory(ScenarioConfig.from_dict(raw))
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(raw))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")],
                     ["oracle"]):
            assert cli.main(argv + ["--scenario", str(p)]) == cli.EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith("error: model: ") and err.count("\n") == 1, err


_ENTRY_NAMES = ("M11", "M12", "M21", "M22")
# cubic off-diagonal entries, which enter the S-matrix; det M = 1 for
# every k with M11 = (1 + M12 M21) / M22
_M12, _M21 = (1.0, 0.5, 0.25, 0.125), (0.3, 0.6, -0.2, 0.1)
_CUBIC_ENTRIES = {
    "M11": [repr(float(c) / 1.2) for c in
            np.polynomial.polynomial.polyadd(
                [1.0], np.polynomial.polynomial.polymul(_M12, _M21))],
    "M12": [repr(c) for c in _M12], "M21": [repr(c) for c in _M21],
    "M22": ["1.2"]}


def _model_case(case):
    """A scenario of each model type, with every derivative nonzero where
    the type allows it."""
    rng = np.random.default_rng(11)
    if case == "explicit":
        model = {"type": "explicit", "matrix": _complex_rows(rng, 3),
                 "velocity": _complex_rows(rng, 3),
                 "acceleration": _complex_rows(rng, 3)}
    elif case == "ring":
        model = {"type": "ring", "sites": 6, "diffusion": 0.8, "growth": 0.2,
                 "tilt": 0.3, "fluctuations": rng.normal(size=6).tolist(),
                 "fluctuation_rate": rng.normal(size=6).tolist()}
    elif case == "ring-clean-diagonal":
        # the clean diagonal growth - 2 diffusion is exactly 0, and over
        # t in [-1, 1] u0 + t*u1 is -0.0 at some sites and times
        model = {"type": "ring", "sites": 6, "diffusion": 0.8, "growth": 1.6,
                 "tilt": 0.3,
                 "fluctuations": [-0.0, -0.0, 0.0, *rng.normal(size=3).tolist()],
                 "fluctuation_rate": [0.0, -1.0, 0.5, *rng.normal(size=3).tolist()]}
        return base_config(model=model, time={"t0": -1.0, "t1": 1.0, "steps": 8})
    elif case == "transfer":
        # cubic entries at 101 wavenumbers, which an array evaluates as
        # each one alone
        model = {"type": "transfer", "entries": _CUBIC_ENTRIES}
        return base_config(model=model, time={"t0": 0.5, "t1": 2.0, "steps": 100})
    else:
        model = {"type": "effective_hamiltonian", "H": _complex_rows(rng, 4),
                 "lindblad": [{"L": _complex_rows(rng, 4), "l": "0.3+0.1i",
                               "l_rate": "-0.2+0.4i"},
                              {"L": _complex_rows(rng, 4), "l": "-0.7i",
                               "l_rate": "1.1-0.3i"}]}
    return base_config(model=model, time={"t0": 0.5, "t1": 2.0, "steps": 8})


def _reference_model(cfg):
    """M, Mdot and Mddot of a scenario at one time, by the per-time
    formulas of each model type."""
    model = cfg.model
    kind = model["type"]
    if kind == "explicit":
        a, b, c = (np.array([[engine.parse_complex(x) for x in row]
                             for row in model[key]])
                   for key in ("matrix", "velocity", "acceleration"))
        return lambda t: (a + t * b + t * t * c, b + 2 * t * c, 2 * c)
    if kind == "ring":
        n = model["sites"]
        base = models.build_omega_le(models.BiophysicalRing(
            n=n, diffusion=model["diffusion"], growth=model["growth"],
            tilt=model["tilt"]))
        u0, u1 = (np.array(model[key])
                  for key in ("fluctuations", "fluctuation_rate"))
        return lambda t: (base + np.diag(u0 + t * u1), np.diag(u1),
                          np.zeros((n, n)))
    if kind == "transfer":
        coeffs = {key: [engine.parse_complex(c) for c in model["entries"][key]]
                  for key in _ENTRY_NAMES}

        def s_matrix(k):
            # each entry by Horner's rule, from the highest power down
            m = np.array([functools.reduce(lambda acc, c: acc * k + c,
                                           reversed(coeffs[key]))
                          for key in _ENTRY_NAMES], dtype=complex)
            m11, m12, m21, m22 = m
            return np.array([[complex(1.0 / m22), complex(m12 / m22)],
                             [complex(-m21 / m22), complex(1.0 / m22)]])

        scale = max(1.0, float(np.linalg.norm(s_matrix(0.0))))
        h1, h2 = 1e-4 * scale, 1e-3 * scale
        return lambda t: (
            s_matrix(t), (s_matrix(t + h1) - s_matrix(t - h1)) / (2 * h1),
            (s_matrix(t + h2) - 2 * s_matrix(t) + s_matrix(t - h2)) / h2**2)
    assert kind == "effective_hamiltonian"
    h = np.array([[engine.parse_complex(x) for x in row] for row in model["H"]])
    terms = [(np.array([[engine.parse_complex(x) for x in row]
                        for row in item["L"]]),
              engine.parse_complex(item["l"]),
              engine.parse_complex(item["l_rate"]))
             for item in model["lindblad"]]

    def displaced(h, ls):
        acc = np.zeros_like(h)
        for (op, _, _), l in zip(terms, ls):
            acc = acc + np.conjugate(l) * op - l * op.conj().T
        return h + 0.5j * acc

    # affine in the displacements l0 + t*l1: A + t*B with A the value at
    # l0 and B the displacement part at l1
    a = displaced(h, [l0 for _, l0, _ in terms])
    b = displaced(np.zeros_like(h), [l1 for _, _, l1 in terms])
    c = np.zeros_like(h)
    return lambda t: (a + t * b + t * t * c, b + 2 * t * c, 2 * c)


def _warns_not_hermitian(case):
    """The effective-Hamiltonian cases draw a random H, which is not
    Hermitian: building their model warns."""
    if case != "effective-hamiltonian":
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="not Hermitian")


class TestModelReference:
    @pytest.mark.parametrize("case", ["explicit", "ring", "ring-clean-diagonal",
                                      "transfer", "effective-hamiltonian"])
    def test_callables_match_per_time_formulas(self, case):
        cfg = ScenarioConfig.from_dict(_model_case(case))
        with _warns_not_hermitian(case):
            traj = engine.build_trajectory(cfg)
        reference = _reference_model(cfg)
        ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)
        for t in [*ts, 0.75]:
            got = (traj.value(t), traj.first_derivative(t),
                   traj.second_derivative(t))
            for g, w in zip(got, reference(t)):
                assert np.shape(g) == (traj.n, traj.n)
                assert (np.asarray(g, dtype=complex).tobytes()
                        == np.asarray(w, dtype=complex).tobytes())
        # an array of times gives the per-time matrices, bit for bit, with
        # the array's shape in front
        for times in (ts, ts[2:5].reshape(3, 1), ts[:1]):
            for f in (traj.value, traj.first_derivative, traj.second_derivative):
                got = np.asarray(f(times), dtype=complex)
                want = np.array([f(t) for t in times.ravel()], dtype=complex)
                assert got.shape == times.shape + (traj.n, traj.n)
                assert got.tobytes() == want.tobytes()


# shipped scenarios plus one of each model type none of them uses
FUZZ_BASES = {
    name: json.loads((SCENARIOS / f"{name}.json").read_text())
    for name in ("ring", "collision", "noisy")
}
FUZZ_BASES["transfer"] = base_config(model={
    "type": "transfer", "unimodular_tol": 1e-9,
    "entries": {"M11": ["1.5", "0.5"], "M12": ["1"], "M21": ["0.5", "0.5"],
                "M22": ["1"]},
}, time={"t0": 0.5, "t1": 2.0, "steps": 4})
FUZZ_BASES["effective_hamiltonian"] = base_config(model={
    "type": "effective_hamiltonian", "H": [[0.0, "1+1i"], ["1-1i", 2.0]],
    "lindblad": [{"L": [[0.0, 1.0], [0.0, 0.0]], "l": "0.5", "l_rate": "0.1i"}],
})
FUZZ_VALUES = [float("nan"), float("inf"), -float("inf"), True, False, None,
               [], [1.0], [float("nan")], [[1.0]], ["x"], "x", "", "1", 0, -1,
               2.5, {}]
DROP = object()


def _fuzz_sections(raw: dict) -> list:
    """(section, keys it may hold or holds) for each object in ``raw``."""
    keys = {name: set(table) for name, table in engine.SCHEMA.items()}
    out = [(raw, keys[""] | set(raw))]
    out += [(raw[name], keys[name] | set(raw[name]))
            for name in ("time", "perturbation", "output")
            if isinstance(raw.get(name), dict)]
    model = raw.get("model")
    if not isinstance(model, dict):
        return out
    kind = model.get("type")
    allowed = keys[f"model.{kind}"] if kind in engine._MODEL_TYPES else set()
    out.append((model, allowed | set(model) | {"type"}))
    entries, lindblad = model.get("entries"), model.get("lindblad")
    if isinstance(entries, dict):
        out.append((entries, keys["model.entries"] | set(entries)))
    if isinstance(lindblad, list):
        out += [(item, keys["model.lindblad"] | set(item))
                for item in lindblad if isinstance(item, dict)]
    return out


class TestScenarioFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_only_config_invalid_escapes(self, data):
        raw = copy.deepcopy(FUZZ_BASES[data.draw(st.sampled_from(sorted(FUZZ_BASES)))])
        for _ in range(data.draw(st.integers(1, 3))):
            sections = _fuzz_sections(raw)
            section, keys = sections[data.draw(st.integers(0, len(sections) - 1))]
            key = data.draw(st.sampled_from(sorted(keys)))
            value = data.draw(st.sampled_from(FUZZ_VALUES + [DROP]))
            if value is DROP:
                section.pop(key, None)
            else:
                section[key] = copy.deepcopy(value)
        try:
            cfg = ScenarioConfig.from_dict(raw, base_dir=SCENARIOS)
            trajectory = engine.build_trajectory(cfg)
        except ConfigInvalid:
            return
        # what `eigendyn validate` and a short run do next may fail only as
        # a package error
        try:
            core.decompose(np.asarray(trajectory.value(cfg.t0), dtype=complex))
            engine.run_scenario(dataclasses.replace(cfg, steps=min(cfg.steps, 2)))
        except eigendyn.errors.EigendynError:
            pass


# config_hash of each base as the key-set parser computed it: the hash,
# and so every record's provenance, does not depend on how keys are parsed
PINNED_HASHES = {
    "ring": "787412f37a2a91d360d52725cb5ad8a4aa4fd905881b69cc6a5c57fb8df18ab6",
    # its matrices are files: the hash holds their entries beside their paths
    "collision": "1f9ed5066f9bb5dcee29783807bc814d5a98bf1665779970052d7e6197f07717",
    "noisy": "0256ee81bb5251a1ac037f4be896502472c39388fd3cfcf079b54f7f0e0aeb51",
    "transfer": "1ca1ff469d59106dd875ab22c58d8f5b356cc8469b79c4c754a74fc9b9438c0a",
    "effective_hamiltonian":
        "f4be2945fe65ec4bb3d71410afa26eed2b1968638e0c17ea27ec20ba24f19680",
}


class TestSchema:
    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_config_hash_pinned(self, name):
        cfg = ScenarioConfig.from_dict(copy.deepcopy(FUZZ_BASES[name]),
                                       base_dir=SCENARIOS)
        assert cfg.config_hash() == PINNED_HASHES[name]
        if (SCENARIOS / f"{name}.json").exists():
            shipped = ScenarioConfig.from_file(SCENARIOS / f"{name}.json")
            assert shipped.config_hash() == PINNED_HASHES[name]

    @pytest.mark.parametrize("scenario,matrix,old,new", [
        ("collision.json", "collision_m.txt", "0 1", "0 2"),
        ("collision.json", "collision_v.txt", "1 0", "2 0"),
        ("eh.json", "h.txt", " 2", " 3"), ("eh.json", "l.txt", "0 1", "0 2")],
        ids=["collision-matrix", "collision-velocity", "eh-H", "eh-L"])
    def test_config_hash_reads_matrix_files(self, tmp_path, scenario, matrix,
                                            old, new):
        files = {name: (SCENARIOS / name).read_text() for name in
                 ("collision.json", "collision_m.txt", "collision_v.txt")}
        files.update({"h.txt": "0 1+1i\n1-1i 2\n", "l.txt": "0 1\n0 0\n",
                      "eh.json": json.dumps(base_config(model={
                          "type": "effective_hamiltonian", "H": "h.txt",
                          "lindblad": [{"L": "l.txt"}, {"L": "l.txt", "l": 1}]}))})
        hashes = []
        for copy_ in ("a", "b", "c"):
            (tmp_path / copy_).mkdir()
            for name, text in files.items():
                (tmp_path / copy_ / name).write_text(text)
            if copy_ == "c":  # one entry of one file differs
                path = tmp_path / copy_ / matrix
                path.write_text(path.read_text().replace(old, new, 1))
            hashes.append(ScenarioConfig.from_file(tmp_path / copy_ / scenario)
                          .config_hash())
        # the same contents in a fresh copy hash alike, an edited file not
        assert hashes[0] == hashes[1] != hashes[2]

    def test_defaults_fill_absent_keys(self):
        cfg = ScenarioConfig.from_dict(base_config(
            model={"type": "ring", "sites": 4}, seed=9, perturbation={}))
        assert cfg.params["sites"] == 4
        assert (cfg.params["diffusion"], cfg.params["growth"],
                cfg.params["tilt"]) == (1.0, 0.0, 0.0)
        for key in ("fluctuations", "fluctuation_rate"):
            np.testing.assert_array_equal(cfg.params[key], np.zeros(4))
        # the noise seed defaults to the run's seed
        assert cfg.noise == {"kind": "diagonal", "sigma2": 1.0, "seed": 9}
        assert (cfg.collision_threshold, cfg.tracked) == (1e-6, "all")
        assert (cfg.output_dir, cfg.output_formats) == ("out", ("json",))
        # the sections as written are what the hash reads
        assert cfg.model == {"type": "ring", "sites": 4}
        assert cfg.perturbation == {}

    def test_typed_values(self, tmp_path):
        (tmp_path / "h.txt").write_text("0 1+1i\n1-1i 2\n")
        cfg = ScenarioConfig.from_dict(base_config(
            model={"type": "effective_hamiltonian", "H": "h.txt",
                   "lindblad": [{"L": [[0, 1], [0, 0]], "l_rate": "0.1i"}]},
            time={"t0": 0, "t1": "2", "steps": 4.0},
            perturbation={"kind": "full", "sigma2": "0.5", "seed": "3"}),
            base_dir=tmp_path)
        assert (cfg.t0, cfg.t1, cfg.steps) == (0.0, 2.0, 4)
        assert type(cfg.steps) is int
        np.testing.assert_array_equal(cfg.params["H"], [[0, 1 + 1j], [1 - 1j, 2]])
        [term] = cfg.params["lindblad"]
        assert (term["l"], term["l_rate"]) == (0j, 0.1j)
        assert cfg.noise == {"kind": "full", "sigma2": 0.5, "seed": 3}

    def test_null_is_absent_only_for_the_perturbation(self):
        cfg = ScenarioConfig.from_dict(base_config(perturbation=None))
        assert cfg.noise is None and cfg.perturbation is None
        raw = base_config()
        raw["model"]["velocity"] = None
        with pytest.raises(ConfigInvalid, match="^model.velocity: "):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("mutate,message", [
        ({"model": {"type": "ring", "sites": 2}},
         "model.sites: sites must be >= 3, got 2"),
        ({"model": {"type": "ring", "sites": 4, "diffusion": 0}},
         "model.diffusion: diffusion must be > 0, got 0.0"),
        ({"model": {"type": "ring", "sites": 4, "fluctuations": [0, 0, 0]}},
         r"model.fluctuations: expected a list of 4 numbers \(one per site\)"),
        ({"model": {"type": "effective_hamiltonian", "H": [[1.0]],
                    "lindblad": [{"l": "1"}]}}, r"model.lindblad\[0\].L: required"),
        ({"model": {"type": "transfer", "entries": {
            "M11": ["1"], "M12": ["1", "x"], "M21": ["0"], "M22": ["1"]}}},
         r"model.entries.M12\[1\]: "),
        ({"time": {"t0": 0.0, "t1": 1.0}}, "time.steps: required"),
        ({"time": {"t0": 0.0, "t1": 1.0, "steps": 2**62}},
         "time.steps: steps must be < "),
        ({"seed": -1}, "seed: expected a non-negative integer, got -1"),
        # t1 > t0, but the step underflows or overflows, with and
        # without a noise walk
        ({"time": {"t0": 0.0, "t1": 5e-324, "steps": 2}, "perturbation": {}},
         r"time: the step \(t1 - t0\) / steps must be finite and > 0, "
         r"got 0\.0$"),
        ({"time": {"t0": -1e308, "t1": 1e308, "steps": 2}, "perturbation": {}},
         r"time: the step \(t1 - t0\) / steps .* got inf$"),
        ({"time": {"t0": 0.0, "t1": 5e-324, "steps": 4}},
         r"time: the step \(t1 - t0\) / steps .* got 0\.0$"),
        ({"time": {"t0": -1e308, "t1": 1e308, "steps": 4}},
         r"time: the step \(t1 - t0\) / steps .* got inf$"),
        ({"output": {"formats": ["json", "xml"]}},
         r"output.formats\[1\]: unknown format 'xml'"),
    ], ids=repr)
    def test_message_names_the_key(self, mutate, message):
        with pytest.raises(ConfigInvalid, match=f"^{message}"):
            ScenarioConfig.from_dict(base_config(**mutate))

    @pytest.mark.parametrize("tracked", [[0, 5], [5]])
    def test_tracked_index_outside_the_model(self, tracked):
        cfg = ScenarioConfig.from_dict(base_config(tracked=tracked))
        with pytest.raises(ConfigInvalid, match=r"^tracked: index 5 outside 0\.\.1$"):
            engine.build_trajectory(cfg)
        with pytest.raises(ConfigInvalid, match="^tracked: "):
            engine.run_scenario(cfg)


class TestRunScenario:
    def test_static_diagonal_no_events(self):
        cfg = ScenarioConfig.from_dict(base_config())
        record = engine.run_scenario(cfg)
        assert len(record.t) == 5
        assert record.events == []
        np.testing.assert_array_equal(record.eigenvalues, [[1.0, 2.0]] * 5)
        assert (record.velocity == 0).all()
        assert (record.total == 0).all()

    def test_collision_bracketed(self):
        # M(t) = [[0, 1], [t-1, 0]] has eigenvalues +-i sqrt(1-t): the
        # conjugate pair hits the real axis at t = 1
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                   "velocity": [[0.0, 0.0], [1.0, 0.0]]},
            time={"t0": 0.0, "t1": 1.2, "steps": 60},
            collision_threshold=1e-2,
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        pair_events = [e for e in record.events if e.pair != (-1, -1)]
        assert pair_events
        e = pair_events[0]
        assert e.t_lo <= 1.0 + 0.021
        assert e.t_hi >= 1.0 - 0.021
        assert e.t_hi - e.t_lo == pytest.approx(1.2 / 60)
        assert set(e.pair) == {0, 1}

    def test_paths_follow_trajectory(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                   "velocity": [[0.0, 0.0], [1.0, 0.0]]},
            time={"t0": 0.0, "t1": 0.5, "steps": 50},
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        for j in (0, 1):
            path = record.eigenvalues[:, j]
            want = path[0].imag / abs(path[0].imag) * 1j * np.sqrt(
                1.0 - record.t)
            np.testing.assert_allclose(path, want, atol=1e-10)

    def test_trace_conservation(self):
        raw = base_config(
            model={"type": "ring", "sites": 6, "diffusion": 0.8,
                   "growth": 0.2, "tilt": 0.4,
                   "fluctuation_rate": [0.1, 0.0, -0.1, 0.0, 0.2, 0.0]},
            time={"t0": 0.0, "t1": 1.0, "steps": 10},
        )
        cfg = ScenarioConfig.from_dict(raw)
        traj = engine.build_trajectory(cfg)
        record = engine.run_scenario(cfg)
        for t, w in zip(record.t, record.eigenvalues):
            tr = np.trace(np.asarray(traj.value(t)))
            assert abs(w.sum() - tr) <= 1e-9

    def test_stochastic_run_deterministic(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            perturbation={"kind": "diagonal", "sigma2": 0.5},
            seed=42,
        )
        r1 = engine.run_scenario(ScenarioConfig.from_dict(raw))
        r2 = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert (json.loads(engine.record_json(r1))
                == json.loads(engine.record_json(r2)))

    def test_stochastic_expected_force_present(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            perturbation={"kind": "diagonal", "sigma2": 0.5},
            seed=7,
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert _present(record, "expected_force")[0, 0]
        assert record.expected_force[0, 0].imag != 0.0

    def test_tracked_subset(self, tmp_path):
        # sorted and unique in both exports
        for tracked, want in (([1], [1]), ([2, 0, 0], [0, 2])):
            raw = base_config(model={"type": "explicit",
                                     "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                                [0.0, 0.0, 3.0]]},
                              tracked=tracked)
            record = engine.run_scenario(ScenarioConfig.from_dict(raw))
            engine.export(record, "csv", tmp_path / "record.csv")
            engine.export(record, "json", tmp_path / "record.json")
            with (tmp_path / "record.csv").open() as fh:
                js = [int(row["j"]) for row in csv.DictReader(fh)]
            assert js == want * 5
            data = json.loads((tmp_path / "record.json").read_text())
            for row in data["rows"]:
                assert list(row["tracked"]) == [str(j) for j in want]

    def test_jump_flagged(self):
        # the third eigenvalue moves 100x faster than the other two
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0],
                                            [0.0, 0.0, 3.0]],
                                 "velocity": [[0.01, 0.0, 0.0], [0.0, 0.01, 0.0],
                                              [0.0, 0.0, 1.0]]})
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        flags = [row["flags"]
                 for row in json.loads(engine.record_json(record))["rows"]]
        assert flags == [[], ["jump"], ["jump"], ["jump"], ["jump"]]

    @pytest.mark.parametrize("matrix,want", [
        ([[0.0, 1.0], [-1e-8, 0.0]], [(0.0, 0.0, (0, 1))]),
        ([[1.0, 0.0], [0.0, 2.0]], []),  # real from the start
    ])
    def test_first_step_rule(self, matrix, want):
        raw = base_config(model={"type": "explicit", "matrix": matrix},
                          collision_threshold=1e-2)
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert [(e.t_lo, e.t_hi, e.pair) for e in record.events] == want

    def test_near_real_flagged_not_exploded(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                   "velocity": [[0.0, 0.0], [1.0, 0.0]]},
            time={"t0": 0.999999, "t1": 1.000001, "steps": 2},
            collision_threshold=1e-2,
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        flagged = record.flagged("near-real")
        assert flagged.any()
        assert np.isnan(record.total[flagged]).all()
        assert not _present(record, "conjugate_force")[flagged].any()

    def test_singular_gap_flagged(self):
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                 "velocity": [[1.0, 2.0], [3.0, 4.0]]})
        # M(0) = I is doubly degenerate; the pair splits for t > 0
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert record.flagged("degenerate")[0]
        assert record.flagged("singular-gap")[0].all()
        assert not record.flagged("near-real")[0].any()
        assert np.isnan(record.total[0]).all()
        # velocities are still recorded and sum to tr Mdot
        assert record.velocity[0].sum() == pytest.approx(5.0)

    def test_pairing_failure_flagged(self, monkeypatch):
        monkeypatch.setattr(core, "pair_conjugates", _no_partner)
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert record.flagged("pairing-failed").all()
        assert not _present(record, "conjugate_force").any()
        assert (record.conjugate_term == 0).all()

    def test_pairing_bug_propagates(self, monkeypatch):
        def broken(d):
            raise TypeError("not a pairing failure")

        monkeypatch.setattr(core, "pair_conjugates", broken)
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
        with pytest.raises(TypeError):
            engine.run_scenario(ScenarioConfig.from_dict(raw))

    def test_time_rescaling_is_bitwise(self):
        # M(t) = A + t B + t^2 C on [t0, t1] and A + s 2B + s^2 4C on
        # [t0/2, t1/2] are the same matrices at s = t/2, bit for bit: the
        # spectrum and its bookkeeping agree, the velocity doubles and
        # every acceleration term quadruples
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            a, b, c = rng.standard_normal((3, n, n))
            t0 = float(rng.uniform(-1.0, 1.0))
            t1 = t0 + float(rng.uniform(0.5, 2.0))
            one, half = [engine.run_scenario(ScenarioConfig.from_dict(base_config(
                model={"type": "explicit", "matrix": a.tolist(),
                       "velocity": (k * b).tolist(),
                       "acceleration": (k * k * c).tolist()},
                time={"t0": t0 / k, "t1": t1 / k, "steps": 30})))
                for k in (1, 2)]
            assert np.array_equal(_bits(half.eigenvalues),
                                  _bits(one.eigenvalues)), seed
            assert np.array_equal(_bits(half.t), _bits(one.t / 2)), seed
            for name in ("permutation", "step_flags", "value_flags"):
                assert np.array_equal(getattr(half, name), getattr(one, name)), (
                    seed, name)
            for name, scale in (("velocity", 2), ("inertial", 4),
                                ("conjugate_term", 4), ("others", 4),
                                ("conjugate_force", 4)):
                cells = _present(one, name)
                assert np.array_equal(_present(half, name), cells), (seed, name)
                assert np.array_equal(_bits(getattr(half, name)[cells]),
                                      _bits(scale * getattr(one, name)[cells])), (
                    seed, name)


# the overflowing effective Hamiltonian of ROADMAP aim 3: its forces are
# not finite on every row
OVERFLOWING_EH = {
    "model": {"type": "effective_hamiltonian", "H": [[0, "1+1i"], ["1-1i", 2]],
              "lindblad": [{"L": [[0, 1e308], [0, 0]], "l": 0.5, "l_rate": "0.1i"}]},
    "time": {"t0": 0, "t1": 1, "steps": 4},
}


def _scaled_collision(k):
    """scenarios/collision.json with its matrices scaled by 10**k, inline."""
    raw = json.loads((SCENARIOS / "collision.json").read_text())
    for key in ("matrix", "velocity"):
        m = engine.read_matrix_file(SCENARIOS / raw["model"][key])
        raw["model"][key] = (m.real * 10.0**k).tolist()
    return raw


class TestNonFiniteValues:
    """A value that is not finite after the kernel is a flagged absence."""

    @pytest.mark.parametrize("raw,flagged,no_velocity", [
        (_scaled_collision(0), 0, 0),
        # at 10**154 products of two entries overflow: 4 conjugate terms,
        # 42 others and 4 conjugate forces
        (_scaled_collision(154), 46, 0),
        (_scaled_collision(200), 120, 0),
        # here the velocity itself overflows in 12 cells
        (_scaled_collision(308), 120, 12),
        (OVERFLOWING_EH, 10, 0),  # both paths on all 5 rows
    ], ids=["collision", "collision-e154", "collision-e200", "collision-e308",
            "overflowing-eh"])
    def test_every_present_value_is_finite(self, tmp_path, raw, flagged,
                                           no_velocity):
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        for name in KEYS:
            # an absent cell is NaN in both parts, never an infinity
            absent = getattr(record, name)[~_present(record, name)]
            assert np.isnan(absent.real).all() and np.isnan(absent.imag).all()
        non_finite = record.flagged("non-finite")
        assert non_finite.sum() == flagged
        # as a near-real cell, it holds no acceleration split and no forces
        for name in KEYS[1:]:
            assert not _present(record, name)[non_finite].any(), name
        assert (~_present(record, "velocity")).sum() == no_velocity
        data = json.loads(engine.record_json(record))
        rows = json.dumps(data["rows"])
        assert "Infinity" not in rows and "NaN" not in rows
        _assert_same_record(engine.record_from_dict(data), record)
        # a null in the JSON is a nan field in the CSV line of the same
        # step and path, and a present value never reads nan there
        engine.export(record, "csv", tmp_path / "record.csv")
        with (tmp_path / "record.csv").open() as fh:
            lines = list(csv.DictReader(fh))
        cells = [(j, row["tracked"][str(j)]) for row in data["rows"]
                 for j in record.tracked.tolist()]
        assert len(lines) == len(cells)
        for line, (j, cell) in zip(lines, cells):
            assert int(line["j"]) == j
            for c in (c for c in engine._COLUMNS if c.stem):
                fields = {line[f"re_{c.stem}"], line[f"im_{c.stem}"]}
                if cell[c.key] is None:
                    assert fields == {"nan"}, (line, c.key)
                else:
                    assert "nan" not in fields, (line, c.key)


class TestPersistence:
    def run_sample(self, **overrides):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                   "velocity": [[0.1, 0.0], [0.0, -0.1]]},
            time={"t0": 0.0, "t1": 1.0, "steps": 3},
        )
        raw.update(overrides)
        return engine.run_scenario(ScenarioConfig.from_dict(raw))

    def test_csv_shape(self, tmp_path):
        record = self.run_sample()
        target = tmp_path / "record.csv"
        engine.export(record, "csv", target)
        with target.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4 * 2  # header + (steps+1) * tracked

    def test_csv_roundtrips_doubles(self, tmp_path):
        record = self.run_sample()
        target = tmp_path / "record.csv"
        engine.export(record, "csv", target)
        with target.open() as fh:
            next(fh)
            first = next(fh).split(",")
        lam = record.eigenvalues[0, 0]
        assert float(first[2]) == lam.real
        assert float(first[3]) == lam.imag

    def test_json_roundtrip_identical(self, tmp_path):
        record = self.run_sample()
        target = tmp_path / "record.json"
        engine.export(record, "json", target)
        loaded = engine.load_record(target)
        assert (json.loads(engine.record_json(loaded))
                == json.loads(engine.record_json(record)))

    @pytest.mark.parametrize("case", ["noisy-collision", "degenerate-start",
                                      "pairing-failed"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_export_load_export_bytes(self, tmp_path, monkeypatch, case, fmt):
        if case == "noisy-collision":
            # near-real steps, expected forces and an ambiguous match
            raw = base_config(
                model={"type": "explicit",
                       "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                       "velocity": [[0.0, 0.0], [1.0, 0.0]]},
                time={"t0": 0.0, "t1": 1.2, "steps": 12},
                collision_threshold=0.3,
                perturbation={"kind": "diagonal", "sigma2": 0.5},
            )
            want = {"near-real", "ambiguous-match"}
        elif case == "degenerate-start":
            raw = base_config(model={"type": "explicit",
                                     "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                     "velocity": [[1.0, 2.0], [3.0, 4.0]]})
            want = {"degenerate", "singular-gap", "ambiguous-match"}
        else:
            monkeypatch.setattr(core, "pair_conjugates", _no_partner)
            raw = base_config(model={"type": "explicit",
                                     "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
            want = {"pairing-failed"}
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        data = json.loads(engine.record_json(record))
        seen = {f for row in data["rows"] for f in row["flags"]}
        seen |= {f for row in data["rows"] for tv in row["tracked"].values()
                 for f in tv["flags"]}
        assert want <= seen
        if case == "noisy-collision":
            assert any(tv["expected_force"] is not None
                       for row in data["rows"] for tv in row["tracked"].values())
        if "ambiguous-match" in want:
            assert any(np.isnan(e.min_abs_im) for e in record.events)
        first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        engine.export(record, "json", tmp_path / "record.json")
        engine.export(record, fmt, first)
        engine.export(engine.load_record(tmp_path / "record.json"), fmt, second)
        assert first.read_bytes() == second.read_bytes()

    def test_null_loads_and_a_nan_value_is_rejected(self):
        # a value is present exactly where it is finite: null reads as NaN
        # and writes back as null, and a NaN pair has no meaning
        data = json.loads(engine.record_json(self.run_sample()))
        data["rows"][2]["tracked"]["1"]["conjugate_force"] = None
        loaded = engine.record_from_dict(data)
        assert np.isnan(loaded.conjugate_force[2, 1])
        again = json.loads(engine.record_json(loaded))
        assert json.dumps(again, sort_keys=True) == json.dumps(data, sort_keys=True)
        data["rows"][1]["tracked"]["0"]["inertial"] = [float("nan"), float("nan")]
        with pytest.raises(RecordInvalid, match=r"rows\[1\]\.tracked\[0\]\.inertial"):
            engine.record_from_dict(data)

    def test_event_min_abs_im(self):
        # an event of two paths holds a finite min_abs_im, an ambiguous
        # match's (-1, -1) event holds NaN
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-2.5e-15, 0.0]]},
                          time={"t0": 0.0, "t1": 1.0, "steps": 1})
        data = json.loads(engine.record_json(
            engine.run_scenario(ScenarioConfig.from_dict(raw))))
        assert [e["pair"] for e in data["events"]] == [[0, 1]]
        data["events"].append(dict(data["events"][0], pair=[-1, -1],
                                   min_abs_im=float("nan")))
        assert np.isnan(engine.record_from_dict(data).events[1].min_abs_im)
        data["events"][0]["min_abs_im"] = float("nan")
        with pytest.raises(RecordInvalid, match=r"events\[0\]"):
            engine.record_from_dict(data)

    @pytest.mark.parametrize("edit,names", [
        (lambda data: data["rows"][1]["flags"].append("warp"), "warp"),
        (lambda data: data["rows"][1]["tracked"]["0"]["flags"].append("warp"),
         "warp"),
        (lambda data: data["rows"][1].pop("eigenvalues"), "eigenvalues"),
        (lambda data: data["rows"][1]["eigenvalues"].append([0.0]),
         "eigenvalues"),
        # a value, a time and an event bracket must be finite
        (lambda data: data["rows"][1]["tracked"]["0"].update(
            inertial=[float("nan"), 0.0]), r"rows\[1\]\.tracked\[0\]\.inertial"),
        (lambda data: data["rows"][2]["tracked"]["1"].update(
            velocity=[0.0, float("inf")]), r"rows\[2\]\.tracked\[1\]\.velocity"),
        (lambda data: data["rows"][3]["tracked"]["0"].update(
            conjugate_term=[float("-inf"), 1.0]),
         r"rows\[3\]\.tracked\[0\]\.conjugate_term"),
        (lambda data: data["rows"][2].update(t=float("nan")), r"rows\[2\]\.t "),
        (lambda data: data["rows"][1].update(t=float("inf")), r"rows\[1\]\.t "),
        (lambda data: _event(t_lo=float("nan"))(data), r"events\[\d+\]"),
        (lambda data: _event(t_hi=float("-inf"))(data), r"events\[\d+\]"),
    ], ids=["step-flag", "value-flag", "no-eigenvalues", "short-eigenvalue",
            "nan-re", "inf-im", "-inf-re", "nan-t", "inf-t", "nan-t_lo",
            "-inf-t_hi"])
    def test_malformed_record_rejected(self, tmp_path, edit, names):
        data = json.loads(engine.record_json(self.run_sample()))
        edit(data)
        target = tmp_path / "record.json"
        target.write_text(json.dumps(data))
        with pytest.raises(RecordInvalid, match=names):
            engine.load_record(target)

    @pytest.mark.parametrize("case,msg", [
        ("not-utf-8", "cannot read record file"),
        ("missing", "cannot read record file"),
        ("directory", "cannot read record file"),
        ("not-json", "record.json:2: "),
    ])
    def test_unreadable_record_is_record_invalid(self, tmp_path, case, msg):
        target = tmp_path / "record.json"
        if case == "not-utf-8":
            target.write_bytes(b"\xff\xfe{")
        elif case == "directory":
            target.mkdir()
        elif case == "not-json":
            target.write_text("{\n  broken\n}")
        with pytest.raises(RecordInvalid, match=msg):
            engine.load_record(target)

    def test_export_passes_a_stale_temporary(self, tmp_path):
        # a temporary of this process's name left behind is neither
        # overwritten nor removed: the export takes the next name
        stale = tmp_path / f".record.json.{os.getpid()}.0.tmp"
        stale.write_text("stale")
        engine.export(self.run_sample(), "json", tmp_path / "record.json")
        assert stale.read_text() == "stale"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "record.json"]
        engine.load_record(tmp_path / "record.json")

    def test_json_export_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        engine.export(self.run_sample(), "json", a)
        engine.export(self.run_sample(), "json", b)
        assert a.read_text() == b.read_text()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(UnsupportedFormat):
            engine.export(self.run_sample(), "yaml", tmp_path / "r.yaml")

    def test_provenance_recorded(self):
        record = self.run_sample(seed=5)
        assert record.provenance["seed"] == 5
        assert len(record.provenance["config_hash"]) == 64
        assert record.provenance["version"] == eigendyn.__version__ == "0.1.0"


def _reference_json(record) -> str:
    """The record document built as nested dicts and encoded by the
    standard library: the reference for the bytes of JSON export."""
    def pairs(z, present=None):
        out = np.stack([z.real, z.imag], axis=-1).tolist()
        if present is not None:
            for k, c in np.argwhere(~present).tolist():
                out[k][c] = None
        return out

    def names(mask, flags):
        return [f for b, f in enumerate(flags) if mask >> b & 1]

    columns = [pairs(getattr(record, name), _present(record, name))
               for name in KEYS]
    keys = [str(j) for j in record.tracked.tolist()]
    value_flags = record.value_flags.tolist()
    rows = [{
        "t": t,
        "eigenvalues": eigenvalues,
        "permutation": permutation,
        "flags": names(flags, engine.STEP_FLAGS),
        "tracked": {
            key: dict(zip(KEYS, values),
                      flags=names(f, engine.VALUE_FLAGS))
            for key, values, f in zip(keys, zip(*(col[k] for col in columns)),
                                      value_flags[k])
        },
    } for k, (t, eigenvalues, permutation, flags) in enumerate(zip(
        record.t.tolist(), pairs(record.eigenvalues),
        record.permutation.tolist(), record.step_flags.tolist(),
    ))]
    data = {
        "rows": rows,
        "events": [
            {"t_lo": e.t_lo, "t_hi": e.t_hi, "pair": list(e.pair),
             "min_abs_im": e.min_abs_im}
            for e in record.events
        ],
        "provenance": dict(record.provenance),
    }
    return json.dumps(data, sort_keys=True, indent=1)


def _reference_csv(record, path) -> None:
    """The CSV export written row by row with ``csv.writer``: the
    reference for the bytes of CSV export."""
    m = len(record.tracked)
    flags = [";".join(engine._flag_names(s, engine.STEP_FLAGS)
                      + engine._flag_names(f, engine.VALUE_FLAGS))
             for s, row in zip(record.step_flags.tolist(),
                               record.value_flags.tolist()) for f in row]

    def fmt(a):
        return [f"{x:.17g}" for x in np.ravel(a).tolist()]

    columns = [fmt(np.repeat(record.t, m)),
               np.tile(record.tracked, len(record.t)).tolist()]
    for z in (record.eigenvalues[:, record.tracked], record.velocity,
              record.total, record.inertial, record.conjugate_term,
              record.others):
        columns += [fmt(z.real), fmt(z.imag)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(*columns, flags))


def _reference_from_dict(data):
    """``record_from_dict`` built row by row and cell by cell: the
    reference for reading a record back."""
    def number(x):
        if type(x) not in (int, float):
            raise RecordInvalid(f"{x!r} is not a number")
        return x

    def pairs(cells, shape):
        for pair in itertools.chain.from_iterable(cells):
            for x in pair:
                number(x)
        return np.array(cells, dtype=float).reshape(*shape, 2).view(complex)[..., 0]

    def mask(flags, names):
        unknown = [f for f in flags if f not in names]
        if unknown:
            raise RecordInvalid(f"unknown flags {unknown}")
        return sum(1 << names.index(f) for f in set(flags))

    try:
        rows = data["rows"]
        keys = sorted(rows[0]["tracked"], key=int)
        cells = [[row["tracked"][key] for key in keys] for row in rows]
        shape = (len(rows), len(keys))
        values = {name: pairs([[(np.nan, np.nan) if c[name] is None else c[name]
                                for c in r] for r in cells], shape)
                  for name in KEYS}
        # a value written is finite; null stands for an absent one
        for name in KEYS:
            for k, r in enumerate(cells):
                for c in r:
                    if c[name] is not None and not all(map(math.isfinite, c[name])):
                        raise RecordInvalid(f"{name} at row {k} is not finite")
        for k, row in enumerate(rows):
            if not math.isfinite(number(row["t"])):
                raise RecordInvalid(f"t at row {k} is not finite")
        n = len(rows[0]["eigenvalues"])
        for key in keys:
            if key not in [str(j) for j in range(n)]:
                raise RecordInvalid(f"tracked key {key!r} is not a path index")
        for row in rows:
            if sorted(row["tracked"], key=int) != keys:
                raise RecordInvalid(f"{row['tracked']} tracks other paths")
            if (sorted(row["permutation"]) != list(range(n))
                    or any(type(i) is not int for i in row["permutation"])):
                raise RecordInvalid(f"{row['permutation']} is not a permutation")
        for e in data["events"]:
            for x in (e["t_lo"], e["t_hi"], e["min_abs_im"]):
                number(x)
            pair = e["pair"]
            if (len(pair) != 2 or any(type(i) is not int for i in pair)
                    or pair != [-1, -1] and not all(0 <= i < n for i in pair)):
                raise RecordInvalid(f"{pair} is not a pair of paths")
            # the min_abs_im of an ambiguous match's (-1, -1) is NaN
            finite = ["t_lo", "t_hi"] + ["min_abs_im"] * (pair != [-1, -1])
            if not all(math.isfinite(e[key]) for key in finite):
                raise RecordInvalid(f"event {e} is not finite")
        if type(data["provenance"]) is not dict:
            raise RecordInvalid(f"{data['provenance']!r} is not an object")
        return engine.RunRecord(
            t=np.array([number(row["t"]) for row in rows], dtype=float),
            eigenvalues=pairs([row["eigenvalues"] for row in rows],
                              (len(rows), -1)),
            permutation=np.array([row["permutation"] for row in rows], dtype=int),
            tracked=np.array(keys, dtype=int),
            step_flags=np.array([mask(row["flags"], engine.STEP_FLAGS)
                                 for row in rows], dtype=int),
            value_flags=np.array([[mask(c["flags"], engine.VALUE_FLAGS)
                                   for c in r] for r in cells],
                                 dtype=int).reshape(shape),
            events=[engine.CollisionEvent(e["t_lo"], e["t_hi"], tuple(e["pair"]),
                                          e["min_abs_im"]) for e in data["events"]],
            provenance=dict(data["provenance"]),
            **values,
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise RecordInvalid(f"malformed run record: {exc!r}") from exc


def _record_case(case, monkeypatch):
    """A run record that exercises one corner of the JSON layout."""
    two = {"type": "explicit", "matrix": [[0.0, 1.0], [-1.0, 0.0]]}
    twelve = {"type": "ring", "sites": 12, "tilt": 0.3,
              "fluctuation_rate": [0.1, 0.0] * 6}
    if case in ("ring", "collision", "noisy"):
        return engine.run_scenario(
            ScenarioConfig.from_file(SCENARIOS / f"{case}.json"))
    if case == "twelve-tracked":
        # keys "10" and "11" sort before "2"
        raw = base_config(model=twelve, time={"t0": 0.0, "t1": 1.0, "steps": 3})
    elif case in ("two-blocks", "two-blocks-and-a-row"):
        # export writes whole row blocks: exactly two, and one row past them
        rows = 2 * _BLOCK_ROWS_TWELVE + (case == "two-blocks-and-a-row")
        raw = base_config(model=twelve,
                          time={"t0": 0.0, "t1": 2.0, "steps": rows - 1},
                          perturbation={"kind": "diagonal", "sigma2": 0.01})
    elif case == "none-tracked":
        raw = base_config(tracked=[])
    elif case == "noisy-collision":
        # near-real nulls, expected forces and an ambiguous-match event
        # with NaN min_abs_im
        raw = base_config(
            model=dict(two, velocity=[[0.0, 0.0], [1.0, 0.0]]),
            time={"t0": 0.0, "t1": 1.2, "steps": 12},
            collision_threshold=0.3,
            perturbation={"kind": "full", "sigma2": 0.5},
        )
    elif case == "singular-gap":
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                 "velocity": [[1.0, 2.0], [3.0, 4.0]]})
    elif case == "pairing-failed":
        monkeypatch.setattr(core, "pair_conjugates", _no_partner)
        raw = base_config(model=two)
    else:
        # NaN and infinities in the eigenvalues, which zgeev may return on
        # finite input, beside nulls, and signed zeros
        assert case == "nan-inf-zero"
        record = _record_case("singular-gap", monkeypatch)
        eigenvalues = record.eigenvalues.copy()
        eigenvalues[0, 0] = complex(-0.0, -0.0)
        eigenvalues[1] = [complex(np.nan, np.inf), complex(-np.inf, -0.0)]
        return dataclasses.replace(record, eigenvalues=eigenvalues,
                                   t=np.where(record.t == 0, -0.0, record.t))
    return engine.run_scenario(ScenarioConfig.from_dict(raw))


_RECORD_CASES = ("ring", "collision", "noisy", "twelve-tracked", "none-tracked",
                 "noisy-collision", "singular-gap", "pairing-failed",
                 "nan-inf-zero", "two-blocks", "two-blocks-and-a-row")
# the steps of one export row block of a 12-site record tracking every
# path: about 2**14 complex values, 12 eigenvalues and six values per
# tracked path a step
_BLOCK_ROWS_TWELVE = engine._BLOCK_ENTRIES // (12 + 6 * 12)


# floats whose texts json spells in its own way, beside ordinary ones
_SPECIAL_FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, 0.1,
                   -2.5)


@st.composite
def _records(draw):
    """A run record built column by column, not run: n from 1 to 12, any
    tracked subset (so "10" may sort before "2"), any flags, and floats
    that include -0.0, and NaN and infinities where the schema keeps them:
    in eigenvalues, in absent values and in the min_abs_im of a (-1, -1)
    event."""
    n, rows = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    tracked = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=int)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def floats(*shape, finite=False):
        pool = np.concatenate([_SPECIAL_FLOATS, rng.standard_normal(8)])
        return rng.choice(pool[np.isfinite(pool) | (not finite)], shape)

    def complexes(*shape):  # not re + 1j * im: 1j * inf has a NaN real part
        return floats(*shape, 2).view(complex)[..., 0]

    shape = (rows, len(tracked))
    # pairs of paths (with n = 12, "11" sorts before "2"), or the
    # (-1, -1) of an ambiguous match
    events = [engine.CollisionEvent(*floats(2, finite=True).tolist(), pair,
                                    float(floats(finite=pair != (-1, -1))))
              for pair in draw(st.lists(st.sampled_from(
                  [(-1, -1), (0, min(1, n - 1)), (n - 1, min(2, n - 1))]),
                  max_size=2))]
    return engine.RunRecord(
        t=floats(rows, finite=True), eigenvalues=complexes(rows, n),
        permutation=np.array([rng.permutation(n) for _ in range(rows)]),
        tracked=tracked,
        # a value that is not finite is absent
        **{name: complexes(*shape) for name in KEYS},
        step_flags=rng.integers(0, 2**len(engine.STEP_FLAGS), rows),
        value_flags=rng.integers(0, 2**len(engine.VALUE_FLAGS), shape),
        events=events,
        # a slot-like string and a % stay text
        provenance={"config_hash": "@0",
                    "note": draw(st.text(max_size=8)) + "%s"},
    )


def _bits(x):
    """The bits of a float or complex array; every NaN reads as one."""
    x = np.ascontiguousarray(x).view(float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def _rename_tracked(old, new):
    def edit(data):
        for row in data["rows"]:
            row["tracked"][new] = row["tracked"].pop(old)
    return edit


def _event(**fields):
    def edit(data):
        data["events"].append(dict({"t_lo": 0.25, "t_hi": 0.5, "pair": [0, 1],
                                    "min_abs_im": 1e-3}, **fields))
    return edit


# records whose tracked keys, permutation rows or event pairs are not of
# n = 2 paths, whose rows track different paths, which hold a time, an
# eigenvalue, a value or an event field that is not a number, a time, a
# value, a bracket or a pair's min_abs_im that is not finite, or whose
# provenance is not an object
_BROKEN_INVARIANTS = [
    _rename_tracked("0", "7"), _rename_tracked("0", "2"),
    _rename_tracked("0", "-1"), _rename_tracked("1", "01"),
    _rename_tracked("1", "+1"), _rename_tracked("1", " 1"),
    lambda data: data["rows"][1].update(permutation=[0, 0]),
    lambda data: data["rows"][1].update(permutation=[1, 2]),
    lambda data: data["rows"][1].update(permutation=[0]),
    lambda data: data["rows"][1].update(permutation=[0, 1, 2]),
    lambda data: data["rows"][1].update(permutation=[-1, 0]),
    lambda data: data["rows"][1].update(permutation=[1.5, 0.25]),
    lambda data: data["rows"][1].update(permutation=["1", "0"]),
    lambda data: data["rows"][1].update(permutation=[True, False]),
    lambda data: data["rows"][2]["tracked"].update({"7": {}}),
    lambda data: data["rows"][2].update(t="0.5"),
    lambda data: data["rows"][2].update(t=True),
    lambda data: data["rows"][2].update(t=None),
    lambda data: data["rows"][2].update(t=10**400),
    lambda data: data["rows"][1]["eigenvalues"].__setitem__(0, ["1", "2"]),
    lambda data: data["rows"][2]["tracked"]["0"].update(velocity=[True, 2]),
    lambda data: data["rows"][2]["tracked"]["0"].update(velocity=[None, 2]),
    _event(t_lo="a"), _event(t_hi=None), _event(min_abs_im=False),
    _event(pair=["0", 1]),
    _event(pair=[0, 1, 5]), _event(pair=[7, 9]), _event(pair=[-3, 1]),
    _event(pair=[0.0, 1.0]), _event(pair=[-1, 0]), _event(pair=[-1.0, -1.0]),
    _event(pair=[True, False]), _event(pair=[]),
    lambda data: data["rows"][2].update(t=float("nan")),
    lambda data: data["rows"][2].update(t=float("-inf")),
    lambda data: data["rows"][2]["tracked"]["0"].update(
        velocity=[float("nan"), 0.0]),
    lambda data: data["rows"][2]["tracked"]["1"].update(
        others=[0.0, float("inf")]),
    _event(t_lo=float("nan")), _event(t_hi=float("inf")),
    _event(min_abs_im=float("nan")),
    lambda data: data.update(provenance=[["config_hash", "x"]]),
]


class TestRecordJson:
    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_writer_is_json_dumps(self, record):
        text = engine.record_json(record)
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, indent=1)
        got = engine.record_from_dict(data)
        for name in ("permutation", "tracked", "step_flags", "value_flags"):
            np.testing.assert_array_equal(getattr(got, name),
                                          getattr(record, name), name)
        for name in ("t", "eigenvalues"):
            np.testing.assert_array_equal(_bits(getattr(got, name)),
                                          _bits(getattr(record, name)), name)
        for name in KEYS:
            mask = _present(record, name)
            np.testing.assert_array_equal(_present(got, name), mask, name)
            np.testing.assert_array_equal(_bits(getattr(got, name)[mask]),
                                          _bits(getattr(record, name)[mask]), name)
        assert [repr(e) for e in got.events] == [repr(e) for e in record.events]
        assert got.provenance == record.provenance

    @pytest.mark.parametrize("case,shows", [
        ("ring", ['"events": [\n  {']),
        ("collision", ['"pair": [']),
        ("noisy", ['"expected_force": [']),
        ("twelve-tracked", ['"11": {\n', '"2": {\n']),
        ("none-tracked", ['"tracked": {}']),
        ("noisy-collision", ['"near-real"', '"ambiguous-match"',
                             '"min_abs_im": NaN', '"expected_force": [',
                             '"expected_force": null']),
        ("singular-gap", ['"singular-gap"', '"inertial": null']),
        ("pairing-failed", ['"pairing-failed"', '"conjugate_force": null']),
        ("nan-inf-zero", ["NaN,", "Infinity\n", "-Infinity,", "-0.0,",
                          '"t": -0.0', "null"]),
        ("two-blocks", ['"11": {\n', '"expected_force": [']),
        ("two-blocks-and-a-row", ['"11": {\n', '"expected_force": [']),
    ])
    def test_export_bytes_match_reference(self, tmp_path, monkeypatch, case,
                                          shows):
        record = _record_case(case, monkeypatch)
        want = _reference_json(record) + "\n"
        for text in shows:
            assert text in want
        target = tmp_path / "record.json"
        engine.export(record, "json", target)
        assert target.read_bytes() == want.encode()
        assert engine.record_json(record) + "\n" == want

    @pytest.mark.parametrize("case,blocks", [("twelve-tracked", 1),
                                             ("two-blocks", 2),
                                             ("two-blocks-and-a-row", 3)])
    def test_long_cases_span_row_blocks(self, monkeypatch, case, blocks):
        record = _record_case(case, monkeypatch)
        assert len(list(engine._row_blocks(record))) == blocks

    @pytest.mark.parametrize("fmt,formats", [("json", "_rows_json"),
                                             ("csv", "_csv_columns")])
    def test_failed_export_keeps_the_earlier_file(self, tmp_path, monkeypatch,
                                                  fmt, formats):
        target = tmp_path / f"record.{fmt}"
        engine.export(_record_case("ring", monkeypatch), fmt, target)
        earlier = target.read_bytes()
        # the second row block fails after the first was written
        calls = []
        original = getattr(engine, formats)

        def fail_second(block):
            calls.append(len(block.t))
            if len(calls) == 2:
                raise MemoryError
            return original(block)

        monkeypatch.setattr(engine, formats, fail_second)
        with pytest.raises(MemoryError):
            engine.export(_record_case("two-blocks", monkeypatch), fmt, target)
        assert calls == [_BLOCK_ROWS_TWELVE] * 2
        assert target.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_export_mode_follows_the_umask(self, tmp_path, monkeypatch, fmt):
        umask = os.umask(0o027)
        try:
            engine.export(_record_case("twelve-tracked", monkeypatch), fmt,
                          tmp_path / f"record.{fmt}")
        finally:
            os.umask(umask)
        mode = (tmp_path / f"record.{fmt}").stat().st_mode
        assert stat.S_IMODE(mode) == 0o640

    def test_export_memory_does_not_grow_with_steps(self, tmp_path):
        # a 64-site ring tracking every path, over 100 and 400 steps
        rng = np.random.default_rng(0)
        model = {"type": "ring", "sites": 64, "growth": 0.1, "tilt": 0.03,
                 "fluctuations": rng.normal(0.0, 0.3, 64).tolist(),
                 "fluctuation_rate": rng.normal(0.0, 0.2, 64).tolist()}
        records = [engine.run_scenario(ScenarioConfig.from_dict(base_config(
            model=model, time={"t0": 0.0, "t1": 1.0, "steps": steps})))
            for steps in (100, 400)]
        for fmt in ("json", "csv"):
            peaks = []
            for record in records:
                tracemalloc.start()
                try:
                    engine.export(record, fmt, tmp_path / f"record.{fmt}")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # the long record's file is 12.4 MB (JSON) and 5.8 MB (CSV)
            assert (tmp_path / f"record.{fmt}").stat().st_size > 5e6
            assert peaks[1] < 8e6, (fmt, peaks)
            assert peaks[1] <= 1.25 * peaks[0], (fmt, peaks)

    @pytest.mark.parametrize("case", _RECORD_CASES)
    def test_csv_bytes_match_reference(self, tmp_path, monkeypatch, case):
        record = _record_case(case, monkeypatch)
        engine.export(record, "csv", tmp_path / "got.csv")
        _reference_csv(record, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("case", _RECORD_CASES)
    def test_read_back_matches_reference(self, monkeypatch, case):
        data = json.loads(engine.record_json(_record_case(case, monkeypatch)))
        got, want = engine.record_from_dict(data), _reference_from_dict(data)
        _assert_same_record(got, want)
        assert got.provenance == want.provenance

    @pytest.mark.parametrize("edit", [
        lambda data: data["rows"][1]["flags"].append("warp"),
        lambda data: data["rows"][1]["tracked"]["0"]["flags"].append("warp"),
        lambda data: data["rows"][1]["tracked"]["1"].update(flags="near-real"),
        lambda data: data["rows"][1]["tracked"]["1"].update(flags=None),
        lambda data: data["rows"][1].update(flags=[["degenerate"]]),
        lambda data: data["rows"][1].pop("eigenvalues"),
        lambda data: data["rows"][1]["eigenvalues"].append([0.0]),
        lambda data: data["rows"][1]["eigenvalues"][0].append(0.0),
        lambda data: (data["rows"][1]["eigenvalues"].append([0.0, 0.0]),
                      data["rows"][2]["eigenvalues"].pop()),
        lambda data: data["rows"][1]["eigenvalues"].append([[0.0, 1.0], 0.0]),
        lambda data: data["rows"][2]["tracked"]["0"].update(
            velocity=[[1.0, 2.0], [3.0, 4.0]]),
        lambda data: data["rows"][2]["tracked"]["0"].update(velocity=["1", 2]),
        lambda data: data["rows"][2]["tracked"]["0"].update(velocity=[None, 2]),
        lambda data: data["rows"][2]["tracked"]["0"].update(velocity=1.0),
        lambda data: data["rows"][2]["tracked"].pop("1"),
        lambda data: data["rows"][2]["tracked"]["1"].pop("others"),
        lambda data: data["rows"][2]["tracked"]["0"].update(velocity=[1.0]),
        lambda data: data["rows"][2]["tracked"]["0"].update(velocity="x"),
        lambda data: data["rows"][2]["tracked"]["0"].update(inertial=[]),
        lambda data: data["rows"][2]["tracked"]["0"].update(others=None),
        lambda data: data["rows"][2].update(t="0.5"),
        lambda data: data["rows"][2].update(t=None),
        lambda data: data["rows"][2]["tracked"].update({"7": {}}),
        lambda data: data["rows"].clear(),
        lambda data: data.update(rows={}),
        lambda data: data.pop("events"),
    ])
    def test_malformed_like_reference(self, edit):
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                                 "velocity": [[0.1, 0.0], [0.0, -0.1]]},
                          time={"t0": 0.0, "t1": 1.0, "steps": 3})
        data = json.loads(engine.record_json(
            engine.run_scenario(ScenarioConfig.from_dict(raw))))
        edit(data)
        try:
            want = _reference_from_dict(data)
        except RecordInvalid:
            with pytest.raises(RecordInvalid):
                engine.record_from_dict(data)
        else:
            _assert_same_record(engine.record_from_dict(data), want)


class TestRecordInvariants:
    def sample(self):
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
                          time={"t0": 0.0, "t1": 1.0, "steps": 3})
        return json.loads(engine.record_json(
            engine.run_scenario(ScenarioConfig.from_dict(raw))))

    @pytest.mark.parametrize("edit", _BROKEN_INVARIANTS)
    def test_rejected_like_reference(self, edit):
        data = self.sample()
        edit(data)
        with pytest.raises(RecordInvalid):
            engine.record_from_dict(data)
        with pytest.raises(RecordInvalid):
            _reference_from_dict(data)


def _per_step_run(cfg):
    """``engine.run_scenario`` as a loop over single steps: the reference
    the blocked engine must reproduce bit for bit."""
    trajectory = engine.build_trajectory(cfg)
    n = trajectory.n
    ts = np.linspace(cfg.t0, cfg.t1, cfg.steps + 1)
    dt = (cfg.t1 - cfg.t0) / cfg.steps
    tracked = np.arange(n) if cfg.tracked == "all" else np.array(
        sorted(set(cfg.tracked)), dtype=int)
    proc = None
    if cfg.perturbation is not None:
        proc = stochastic.PerturbationProcess(
            kind=cfg.perturbation.get("kind", "diagonal"),
            sigma2=float(cfg.perturbation.get("sigma2", 1.0)),
            seed=int(cfg.perturbation.get("seed", cfg.seed)))
    shape = (len(ts), len(tracked))
    eigenvalues = np.empty((len(ts), n), dtype=complex)
    permutation = np.empty((len(ts), n), dtype=int)
    values = {name: np.full(shape, complex(np.nan, np.nan)) for name in KEYS}
    step_flags = np.zeros(len(ts), dtype=int)
    value_flags = np.zeros(shape, dtype=int)
    prev_decomp, prev_perm, noise = None, np.arange(n), None
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
            noise = noise + dt * p
        d = core.decompose(m)
        step_flags[k] = engine._DEGENERATE if d.degenerate else 0
        if prev_decomp is None:
            perm = np.arange(n)
        else:
            match = core.match_paths(prev_decomp, d)
            perm = match.permutation[prev_perm]
            if match.ambiguous:
                step_flags[k] |= engine._AMBIGUOUS
        pairing = None
        if core.is_real(m) and core.is_real(mdot):
            mdot = mdot.real
            try:
                pairing = core.pair_conjugates(d)
            except PairingFailure:
                step_flags[k] |= engine._PAIRING_FAILED
        raw = perm[tracked]
        partner = np.arange(n) if pairing is None else pairing.partner
        paired = partner[raw] != raw
        near_real = paired & (np.abs(d.eigenvalues[raw].imag)
                              < cfg.collision_threshold)
        with np.errstate(over="ignore", invalid="ignore"):
            forces = dynamics.force_columns(d.left, d.right, d.eigenvalues,
                                            mdot, mddot, raw, partner)
        singular = ~near_real & (forces.singular >= 0)
        eigenvalues[k] = d.eigenvalues[perm]
        permutation[k] = perm
        value_flags[k] = (engine._NEAR_REAL * near_real
                          + engine._SINGULAR_GAP * singular)
        for c, j in enumerate(raw.tolist()):
            # what the cell would hold, and whether any of it is not finite
            intact = not (near_real[c] or singular[c])
            conj = paired[c] and not near_real[c]
            cell = {"velocity": forces.velocity[c]}
            if intact:
                cell.update(inertial=forces.inertial[c], others=forces.others[c],
                            conjugate_term=forces.conjugate_term[c])
            if conj:
                cell["conjugate_force"] = forces.conjugate_term[c]
            if conj and proc is not None:
                with np.errstate(over="ignore", invalid="ignore"):
                    cell["expected_force"] = stochastic.expected_conjugate_force_iid(
                        d, proc.sigma2, j, kind=proc.kind)
            if not all(np.isfinite(list(cell.values()))):
                value_flags[k, c] |= engine._NON_FINITE
                # only a finite velocity is kept
                cell = {name: z for name, z in cell.items()
                        if name == "velocity" and np.isfinite(z)}
            for name, z in cell.items():
                values[name][k, c] = z
        prev_decomp, prev_perm = d, perm
    disp = np.abs(np.diff(eigenvalues, axis=0))
    med = np.median(disp, axis=1)
    step_flags[1:][(med > 0) & (disp.max(axis=1) > 10 * med)] |= engine._JUMP
    record = engine.RunRecord(
        t=ts, eigenvalues=eigenvalues, permutation=permutation, tracked=tracked,
        step_flags=step_flags, value_flags=value_flags, events=[],
        provenance={}, **values)
    return dataclasses.replace(record, events=engine.detect_collisions(
        record, cfg.collision_threshold))


def _complex_rows(rng, n):
    return [[f"{z.real:.17g}{z.imag:+.17g}i" for z in row]
            for row in rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))]


def _blocked_case(case):
    """The raw scenario of one case of the blocked-engine comparison."""
    if case in ("ring", "collision", "noisy"):
        return json.loads((SCENARIOS / f"{case}.json").read_text())
    ring = {"type": "ring", "sites": 8, "diffusion": 0.8, "growth": 0.2,
            "tilt": 0.3, "fluctuation_rate": [0.05, 0.0, -0.05, 0.1] * 2}
    if case == "ring-noisy":
        return base_config(model=ring, tracked="all",
                           time={"t0": 0.0, "t1": 1.0, "steps": 40},
                           perturbation={"kind": "full", "sigma2": 0.05})
    if case == "ring-tracked":
        return base_config(model=dict(ring, sites=12, fluctuation_rate=[0.1] * 12),
                           tracked=[1, 4, 11],
                           time={"t0": 0.0, "t1": 1.0, "steps": 40},
                           perturbation={"kind": "diagonal", "sigma2": 0.05})
    if case == "transfer":
        return base_config(model={
            "type": "transfer",
            # det M = 1 for every k: M11 = (1 + M12 M21) / M22
            "entries": {"M11": [repr(1.3 / 1.2), "0.5"], "M12": ["1"],
                        "M21": ["0.3", "0.6"], "M22": ["1.2"]}},
            tracked="all", time={"t0": 0.5, "t1": 2.0, "steps": 40})
    assert case == "effective-hamiltonian"
    rng = np.random.default_rng(5)
    return base_config(model={
        "type": "effective_hamiltonian",
        "H": _complex_rows(rng, 4),
        "lindblad": [{"L": _complex_rows(rng, 4), "l": "0.3+0.1i",
                      "l_rate": "-0.2+0.4i"}]},
        tracked="all", time={"t0": 0.0, "t1": 1.0, "steps": 40})


def _assert_same_record(got, want):
    for field in dataclasses.fields(engine.RunRecord):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
    # repr: NaN min_abs_im compares equal, and every float is exact
    assert repr(got.events) == repr(want.events)


class TestTrackedSubset:
    """A tracked path's values, presence and flags are the bits it gets
    when every path is tracked."""

    @pytest.mark.parametrize("tracked", [[1, 4, 11], [4]])
    @pytest.mark.parametrize("case", ["ring-noisy", "explicit"])
    def test_same_bits_as_all(self, case, tracked):
        if case == "ring-noisy":
            raw = _blocked_case("ring-tracked")
        else:
            # n = 24 with nonzero Mdot and Mddot
            rng = np.random.default_rng(3)
            m, b, c = rng.standard_normal((3, 24, 24)).tolist()
            raw = base_config(model={"type": "explicit", "matrix": m,
                                     "velocity": b, "acceleration": c},
                              time={"t0": 0.0, "t1": 1.0, "steps": 30})
        part = engine.run_scenario(ScenarioConfig.from_dict(dict(raw, tracked=tracked)))
        full = engine.run_scenario(ScenarioConfig.from_dict(dict(raw, tracked="all")))
        np.testing.assert_array_equal(part.tracked, tracked)
        for key in KEYS:
            assert (getattr(part, key).tobytes()
                    == getattr(full, key)[:, part.tracked].tobytes()), key
        assert (part.value_flags.tobytes()
                == full.value_flags[:, part.tracked].tobytes())


class TestBlockedEngine:
    """The blocked engine against the per-step loop, bit for bit."""

    @pytest.mark.parametrize("case", [
        "ring", "collision", "noisy", "ring-noisy", "ring-tracked", "transfer",
        "effective-hamiltonian"])
    # 2**14 entries is one block per run here.  4, 8 and 28 give blocks
    # of 1, 2 and 7 steps at n = 2 and of one step at n >= 6; 192 gives
    # 48 steps at n = 2, 12 at n = 4, 3 at n = 8 and 1 at n = 12
    @pytest.mark.parametrize("entries", [2**14, 4, 8, 28, 64 * 3])
    def test_matches_per_step_loop(self, monkeypatch, case, entries):
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", entries)
        cfg = ScenarioConfig.from_dict(_blocked_case(case), base_dir=SCENARIOS)
        with _warns_not_hermitian(case):
            _assert_same_record(engine.run_scenario(cfg), _per_step_run(cfg))

    def test_one_pairing_failure_in_a_block(self, monkeypatch):
        # the fifth step's pairing fails inside a block of 51 steps: only
        # that step is flagged, and only its conjugate forces are absent
        pair = core.pair_conjugates

        def fail_fifth(d):
            if d.eigenvalues.ndim == 1:  # the per-step loop
                calls.append(1)
                if len(calls) == 5:
                    raise PairingFailure("no conjugate partner")
                return pair(d)
            p = pair(d)
            partner, failed = p.partner.copy(), p.failed_steps.copy()
            partner[4], failed[4] = np.arange(d.n), True
            return core.ConjugatePairing(partner, failed)

        monkeypatch.setattr(core, "pair_conjugates", fail_fifth)
        cfg = ScenarioConfig.from_file(SCENARIOS / "ring.json")
        calls = []
        record = engine.run_scenario(cfg)
        calls = []
        _assert_same_record(record, _per_step_run(cfg))
        np.testing.assert_array_equal(np.flatnonzero(record.flagged("pairing-failed")), [4])
        assert not _present(record, "conjugate_force")[4].any()
        assert _present(record, "conjugate_force")[[3, 5]].any()
