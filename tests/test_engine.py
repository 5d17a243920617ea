import csv
import json

import numpy as np
import pytest

import eigendyn
from eigendyn import core, engine
from eigendyn.engine import ScenarioConfig
from eigendyn.errors import ConfigInvalid, PairingFailure, UnsupportedFormat


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
    ])
    def test_invalid_rejected(self, mutate, msg):
        with pytest.raises(ConfigInvalid, match=msg):
            ScenarioConfig.from_dict(base_config(**mutate))

    def test_hash_stable_and_sensitive(self):
        a = ScenarioConfig.from_dict(base_config()).config_hash()
        b = ScenarioConfig.from_dict(base_config()).config_hash()
        c = ScenarioConfig.from_dict(base_config(seed=1)).config_hash()
        assert a == b
        assert a != c

    def test_from_file(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(base_config()))
        cfg = ScenarioConfig.from_file(p)
        assert cfg.base_dir == tmp_path

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ConfigInvalid, match=":2:"):
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

    def test_missing_transfer_entry(self):
        raw = base_config(model={"type": "transfer",
                                 "entries": {"M11": ["1"]}})
        with pytest.raises(ConfigInvalid, match="M12"):
            engine.build_trajectory(ScenarioConfig.from_dict(raw))


class TestRunScenario:
    def test_static_diagonal_no_events(self):
        cfg = ScenarioConfig.from_dict(base_config())
        record = engine.run_scenario(cfg)
        assert len(record.rows) == 5
        assert record.events == []
        for row in record.rows:
            np.testing.assert_array_equal(row.eigenvalues, [1.0, 2.0])
            for tv in row.tracked.values():
                assert tv.velocity == 0
                assert tv.breakdown.total == 0

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
            path = record.eigenvalue_path(j)
            want = path[0].imag / abs(path[0].imag) * 1j * np.sqrt(
                1.0 - record.times)
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
        for row in record.rows:
            tr = np.trace(np.asarray(traj.value(row.t)))
            assert abs(row.eigenvalues.sum() - tr) <= 1e-9

    def test_stochastic_run_deterministic(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            perturbation={"kind": "diagonal", "sigma2": 0.5},
            seed=42,
        )
        r1 = engine.run_scenario(ScenarioConfig.from_dict(raw))
        r2 = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert engine.record_to_dict(r1) == engine.record_to_dict(r2)

    def test_stochastic_expected_force_present(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]]},
            perturbation={"kind": "diagonal", "sigma2": 0.5},
            seed=7,
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        tv = record.rows[0].tracked[0]
        assert tv.expected_force is not None
        assert tv.expected_force.imag != 0.0

    def test_tracked_subset(self):
        raw = base_config(tracked=[1])
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        assert list(record.rows[0].tracked) == [1]

    def test_near_real_flagged_not_exploded(self):
        raw = base_config(
            model={"type": "explicit",
                   "matrix": [[0.0, 1.0], [-1.0, 0.0]],
                   "velocity": [[0.0, 0.0], [1.0, 0.0]]},
            time={"t0": 0.999999, "t1": 1.000001, "steps": 2},
            collision_threshold=1e-2,
        )
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        flagged = [tv for row in record.rows for tv in row.tracked.values()
                   if "near-real" in tv.flags]
        assert flagged
        assert all(tv.breakdown is None for tv in flagged)

    def test_singular_gap_flagged(self):
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                 "velocity": [[1.0, 2.0], [3.0, 4.0]]})
        # M(0) = I is doubly degenerate; the pair splits for t > 0
        row = engine.run_scenario(ScenarioConfig.from_dict(raw)).rows[0]
        assert "degenerate" in row.flags
        for tv in row.tracked.values():
            assert tv.flags == ("singular-gap",)
            assert tv.breakdown is None
        # velocities are still recorded and sum to tr Mdot
        assert sum(tv.velocity for tv in row.tracked.values()) == pytest.approx(5.0)

    def test_pairing_failure_flagged(self, monkeypatch):
        def no_partner(d, tol):
            raise PairingFailure("no conjugate partner")

        monkeypatch.setattr(core, "pair_conjugates", no_partner)
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
        record = engine.run_scenario(ScenarioConfig.from_dict(raw))
        for row in record.rows:
            assert "pairing-failed" in row.flags
            for tv in row.tracked.values():
                assert tv.conjugate_force is None
                assert tv.breakdown.conjugate_term == 0

    def test_pairing_bug_propagates(self, monkeypatch):
        def broken(d, tol):
            raise TypeError("not a pairing failure")

        monkeypatch.setattr(core, "pair_conjugates", broken)
        raw = base_config(model={"type": "explicit",
                                 "matrix": [[0.0, 1.0], [-1.0, 0.0]]})
        with pytest.raises(TypeError):
            engine.run_scenario(ScenarioConfig.from_dict(raw))


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
        assert rows[0] == engine._CSV_COLUMNS
        assert len(rows) == 1 + 4 * 2  # header + (steps+1) * tracked

    def test_csv_roundtrips_doubles(self, tmp_path):
        record = self.run_sample()
        target = tmp_path / "record.csv"
        engine.export(record, "csv", target)
        with target.open() as fh:
            next(fh)
            first = next(fh).split(",")
        lam = record.rows[0].eigenvalues[0]
        assert float(first[2]) == lam.real
        assert float(first[3]) == lam.imag

    def test_json_roundtrip_identical(self, tmp_path):
        record = self.run_sample()
        target = tmp_path / "record.json"
        engine.export(record, "json", target)
        loaded = engine.load_record(target)
        assert engine.record_to_dict(loaded) == engine.record_to_dict(record)

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
