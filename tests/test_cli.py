import csv
import dataclasses
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from eigendyn import cli, dynamics, engine

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def ring_scenario(tmp_path):
    target = tmp_path / "ring.json"
    shutil.copy(SCENARIOS / "ring.json", target)
    return target


@pytest.fixture
def collision_scenario(tmp_path):
    for name in ("collision.json", "collision_m.txt", "collision_v.txt"):
        shutil.copy(SCENARIOS / name, tmp_path / name)
    return tmp_path / "collision.json"


class TestValidate:
    def test_ok(self, ring_scenario, capsys):
        code = cli.main(["validate", "--scenario", str(ring_scenario)])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("OK")

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_INVALID
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_missing_file_in_run_and_oracle(self, tmp_path, capsys, command):
        argv = [command, "--scenario", str(tmp_path / "nope.json")]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: scenario file not found: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{"])
    def test_unreadable_scenario(self, tmp_path, capsys, content):
        target = tmp_path / "scn.json"
        if content is None:
            target.mkdir()
        else:
            target.write_bytes(content)
        code = cli.main(["validate", "--scenario", str(target)])
        assert code == cli.EXIT_INVALID
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_corrupted_matrix_file(self, collision_scenario, capsys):
        (collision_scenario.parent / "collision_m.txt").write_text("1 2\nbad\n")
        code = cli.main(["validate", "--scenario", str(collision_scenario)])
        assert code == cli.EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("item,named", [
        ("sites=2", "model.sites: "),
        ("sites", "--set expects key=value, got 'sites'"),
    ])
    def test_bad_override_key(self, ring_scenario, capsys, item, named):
        code = cli.main(["validate", "--scenario", str(ring_scenario),
                         "--set", item])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {named}")


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_defective_model_without_numpy_warnings(self, tmp_path, capsys):
        # S(k) = [[1, 1e308 k], [0, 1]]: decompose's left scaling divides
        # by vanishing overlaps
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps({
            "model": {"type": "transfer",
                      "entries": {"M11": ["1"], "M12": ["0", "1e308"],
                                  "M21": ["0"], "M22": ["1"]}},
            "time": {"t0": 0.5, "t1": 4, "steps": 4}}))
        assert cli.main(["validate", "--scenario", str(scenario)]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""


class TestRun:
    def test_writes_outputs(self, ring_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert (out / "record.json").exists()
        assert (out / "record.csv").exists()
        assert "rows=51" in capsys.readouterr().out

    def test_seed_override_reproducible(self, tmp_path, capsys):
        scenario = tmp_path / "noisy.json"
        shutil.copy(SCENARIOS / "noisy.json", scenario)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli.main(["run", "--scenario", str(scenario),
                             "--seed", "7", "--format", "json",
                             "--out", str(out)])
            assert code == cli.EXIT_OK
            outs.append((out / "record.json").read_text())
        assert outs[0] == outs[1]

    def test_seed_changes_noise(self, tmp_path):
        scenario = tmp_path / "noisy.json"
        shutil.copy(SCENARIOS / "noisy.json", scenario)
        texts = []
        for seed in ("7", "8"):
            out = tmp_path / f"s{seed}"
            cli.main(["run", "--scenario", str(scenario), "--seed", seed,
                      "--format", "json", "--out", str(out)])
            texts.append((out / "record.json").read_text())
        a = json.loads(texts[0])
        b = json.loads(texts[1])
        assert a["rows"][1]["eigenvalues"] != b["rows"][1]["eigenvalues"]

    def test_collision_event_reported(self, collision_scenario, tmp_path,
                                      capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", str(collision_scenario),
                         "--format", "json", "--out", str(out)])
        assert code == cli.EXIT_OK
        data = json.loads((out / "record.json").read_text())
        pair_events = [e for e in data["events"] if e["pair"] != [-1, -1]]
        assert pair_events
        assert pair_events[0]["t_lo"] <= 1.02
        assert pair_events[0]["t_hi"] >= 0.98

    def test_printed_hash_reads_matrix_files(self, collision_scenario,
                                              tmp_path, capsys):
        # the run's printed hash, not only config_hash, changes with a file
        matrix = collision_scenario.parent / "collision_m.txt"
        original = matrix.read_text()
        edited = original.replace("\n0 1\n", "\n0 2\n")
        assert edited != original
        hashes = []
        for text in (original, edited):
            matrix.write_text(text)
            code = cli.main(["run", "--scenario", str(collision_scenario),
                             "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_OK
            hashes.append(capsys.readouterr().out.split("hash=")[1])
        assert hashes[0] != hashes[1]

    def test_misspelt_bare_override(self, ring_scenario, tmp_path, capsys):
        # a bare key lands in the model section, where it is unknown
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--out", str(tmp_path / "out"),
                         "--set", "colision_threshold=0.5"])
        assert code == cli.EXIT_INVALID
        assert "model.colision_threshold: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["file", "file/sub", "dir-at-target"])
    def test_unwritable_output(self, ring_scenario, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        (tmp_path / "dir-at-target" / "record.json").mkdir(parents=True)
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--set", "time.steps=2", "--out", str(tmp_path / out)])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("error: ")
        # an export that fails removes its temporary file
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "dir-at-target", "file", "record.json", "ring.json"]

    def test_non_string_output_dir(self, ring_scenario, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--set", "output.dir=5"])
        assert code == cli.EXIT_INVALID
        assert "output.dir" in capsys.readouterr().err
        assert not (tmp_path / "5").exists()

    def test_override_not_json_is_a_string(self, ring_scenario, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--set", "time.steps=2", "--set", "output.dir=out"])
        assert code == cli.EXIT_OK
        assert (tmp_path / "out" / "record.json").exists()

    def test_set_override(self, ring_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--set", "time.steps=10", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "rows=11" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_repeated_format_exits_2(self, ring_scenario, tmp_path, capsys,
                                     command):
        out = tmp_path / "out"
        argv = {"validate": ["validate"], "run": ["run", "--out", str(out)],
                "sweep": ["sweep", "tilt=0:0.5:1", "--out", str(out)]}[command]
        code = cli.main([*argv, "--scenario", str(ring_scenario),
                         "--set", 'output.formats=["csv","json","csv"]'])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: output.formats: ") and err.count("\n") == 1
        assert not out.exists()

    def test_no_format_writes_nothing(self, ring_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", str(ring_scenario),
                         "--set", "output.formats=[]", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert list(out.iterdir()) == []


class TestOutOfRange:
    @pytest.mark.parametrize("edit,named", [
        ({"tracked": [0, 5]}, "tracked: index 5 outside 0..1"),
        ({"tracked": [5]}, "tracked: index 5 outside 0..1"),
        # the (steps + 1,) complex column of one path would exceed numpy's
        # largest array: rejected before anything is allocated
        ({"time": {"t0": 0.0, "t1": 0.5, "steps": 2**62}},
         "time.steps: steps must be < "),
        # so would an (n, n) complex matrix of the ring
        ({"model": {"type": "ring", "sites": 2**62}}, "model.sites: sites must be <= "),
        ({"model": {"type": "ring", "sites": 10**30}}, "model.sites: sites must be <= "),
    ], ids=repr)
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, edit, named,
                                    command):
        raw = json.loads((SCENARIOS / "noisy.json").read_text())
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps({**raw, **edit}))
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,named", [
        ({"tracked": [0, 5]}, "tracked: index 5 outside 0..1"),
        ({"time": {"t0": 0.0, "t1": 0.5, "steps": 2**62}},
         "time.steps: steps must be < "),
        ({"model": {"type": "ring", "sites": 2**62}}, "model.sites: sites must be <= "),
    ], ids=repr)
    def test_oracle_exits_2_naming_the_key(self, tmp_path, capsys, edit, named):
        raw = json.loads((SCENARIOS / "noisy.json").read_text())
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps({**raw, **edit}))
        assert cli.main(["oracle", "--scenario", str(scenario)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1

    # the step (t1 - t0) / steps of a run without noise overflows or
    # underflows: rejected before numpy spaces the times
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("time,got", [
        ({"t0": -1e308, "t1": 1e308, "steps": 4}, "inf"),
        ({"t0": 0.0, "t1": 5e-324, "steps": 4}, "0.0"),
    ], ids=repr)
    @pytest.mark.parametrize("command", ["validate", "run", "oracle"])
    def test_step_out_of_range_exits_2(self, tmp_path, capsys, time, got,
                                       command):
        scenario = tmp_path / "ring.json"
        scenario.write_text(json.dumps(
            {"model": {"type": "ring", "sites": 4}, "time": time}))
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: time: the step (t1 - t0) / steps must be finite and > 0, "
            f"got {got}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error,line", [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
    ])
    def test_memory_error_exits_3(self, ring_scenario, tmp_path, capsys,
                                  monkeypatch, error, line):
        def no_memory(cfg):
            raise error

        monkeypatch.setattr(cli.engine, "build_trajectory", no_memory)
        for command in ("validate", "oracle"):
            argv = [command, "--scenario", str(ring_scenario)]
            assert cli.main(argv) == cli.EXIT_RUNTIME
            assert capsys.readouterr().err == f"error: {line}\n"
        monkeypatch.setattr(cli.engine, "run_scenario", no_memory)
        argv = ["run", "--scenario", str(ring_scenario), "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {line}\n"
        argv = ["sweep", "tilt=0:1:0", "--scenario", str(ring_scenario),
                "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: tilt=0: {line}\n"


# values that overflow to inf: M(t) of the first from t = 2, M of the
# ring from t = 1, and Mddot of the third everywhere
NON_FINITE = {
    "matrix": {"model": {"type": "explicit", "matrix": [[1e308, 0], [0, 1]],
                         "velocity": [[1e308, 0], [0, 0]]},
               "time": {"t0": 0, "t1": 10, "steps": 4}},
    "ring": {"model": {"type": "ring", "sites": 4,
                       "fluctuations": [1e308, 0, 0, 0],
                       "fluctuation_rate": [1e308, 0, 0, 0]},
             "time": {"t0": 1, "t1": 2, "steps": 4}},
    "acceleration": {"model": {"type": "explicit", "matrix": [[0, 1], [-1, 0]],
                               "acceleration": [[1e308, 0], [0, 0]]},
                     "time": {"t0": 0, "t1": 0.5, "steps": 4}},
}


class TestNonFiniteModel:
    # the overflow is reported once, by the error line: numpy's overflow
    # warnings would fail the command here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case,command,code,named", [
        ("matrix", "run", cli.EXIT_RUNTIME, "M(t=2.5)"),
        ("matrix", "oracle", cli.EXIT_RUNTIME, "M(t=2.0)"),
        ("ring", "validate", cli.EXIT_INVALID, "M(t=1.0)"),
        ("ring", "run", cli.EXIT_RUNTIME, "M(t=1.0)"),
        ("ring", "oracle", cli.EXIT_RUNTIME, "M(t=1.2)"),
        ("acceleration", "run", cli.EXIT_RUNTIME, "Mddot(t=0.0)"),
        ("acceleration", "validate", cli.EXIT_INVALID, "Mddot(t=0.0)"),
        ("acceleration", "oracle", cli.EXIT_RUNTIME, "Mddot(t=0.1)"),
    ])
    def test_named_error_not_traceback(self, tmp_path, capsys, case, command,
                                       code, named):
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps(NON_FINITE[case]))
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == code
        assert capsys.readouterr().err == f"error: {named} has NaN/Inf entries\n"
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("command,code,named", [
        ("validate", cli.EXIT_INVALID, "M(t=0.0)"),
        ("run", cli.EXIT_RUNTIME, "M(t=0.0)"),
        ("oracle", cli.EXIT_RUNTIME, "M(t=0.2)"),
    ])
    def test_overflowing_tilt(self, tmp_path, capsys, action, command, code,
                              named):
        # the ring's hops D e^(+-800) overflow while the model is built:
        # the same one line whether numpy's warnings are shown or raised
        # (python -W error)
        scenario = tmp_path / "scn.json"
        scenario.write_text(json.dumps({
            "model": {"type": "ring", "sites": 4, "tilt": 800},
            "time": {"t0": 0, "t1": 1, "steps": 4}}))
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert cli.main(argv) == code
        assert capsys.readouterr().err == f"error: {named} has NaN/Inf entries\n"
        assert not (tmp_path / "out").exists()


# an effective Hamiltonian whose H is not Hermitian: the model warns
NON_HERMITIAN_EH = {
    "model": {"type": "effective_hamiltonian",
              "H": [["1-0.5i", 0.3], [0.3, "-1-0.2i"]]},
    "time": {"t0": 0, "t1": 1, "steps": 4},
}


class TestWarnings:
    @staticmethod
    def _argv(tmp_path, command):
        scenario = tmp_path / "eh.json"
        scenario.write_text(json.dumps(NON_HERMITIAN_EH))
        argv = [command, "--scenario", str(scenario)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        return argv

    @pytest.mark.filterwarnings("default::UserWarning")
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_one_line(self, tmp_path, capsys, command):
        # the command still succeeds
        shown = warnings.showwarning
        assert cli.main(self._argv(tmp_path, command)) == cli.EXIT_OK
        assert warnings.showwarning is shown
        assert capsys.readouterr().err == "warning: H is not Hermitian to tolerance\n"

    @pytest.mark.parametrize("command", ["validate", "run", "oracle"])
    def test_as_error_exits_2(self, tmp_path, capsys, command):
        # python -W error: the warning the model raises is an invalid model
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(self._argv(tmp_path, command))
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: model: H is not Hermitian to tolerance\n")
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_tilt_sweep_creates_subdirs(self, ring_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "tilt=0:0.1:1",
                         "--scenario", str(ring_scenario),
                         "--set", "time.steps=5",
                         "--format", "csv", "--out", str(out)])
        assert code == cli.EXIT_OK
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(subdirs) == 11
        assert "tilt=0" in subdirs and "tilt=1" in subdirs
        assert (out / "tilt=0.5" / "record.csv").exists()

    def test_unwritable_output(self, ring_scenario, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = cli.main(["sweep", "tilt=0:0.5:1",
                         "--scenario", str(ring_scenario),
                         "--set", "time.steps=2", "--out", str(tmp_path / "file")])
        assert code == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert all(line.startswith("error: tilt=") for line in err)

    @pytest.mark.parametrize("spec", [
        "tilt=0:1", "tilt=a:0.1:1", "tilt=0:b:1", "tilt=0:0.1:",
        "tilt=0:nan:1", "tilt=nan:0.1:1", "tilt=0:1e308:inf",
        "tilt=-inf:1:0", "tilt=-1e308:1e-308:1e308", "tilt=0:0:1",
        "tilt=1:0.5:0",
    ])
    def test_bad_range_spec(self, ring_scenario, tmp_path, capsys, spec):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", spec, "--scenario", str(ring_scenario),
                         "--out", str(out)])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_invalid_value_names_its_run(self, ring_scenario, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "time.steps=0:1:2", "--scenario",
                         str(ring_scenario), "--out", str(out)])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: time.steps=0: time.steps: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_values_passed_exactly(self, ring_scenario, tmp_path, capsys,
                                   monkeypatch):
        seen = []
        run = cli.engine.run_scenario
        monkeypatch.setattr(cli.engine, "run_scenario",
                            lambda cfg: seen.append(cfg.model["tilt"]) or run(cfg))
        code = cli.main(["sweep", "tilt=0:0.1:0.3", "--scenario",
                         str(ring_scenario), "--set", "time.steps=2",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        # 0.1 * 3 is 0.30000000000000004; its run is still named at :g
        assert seen == [0.0, 0.1, 0.2, 0.1 * 3]
        assert (tmp_path / "tilt=0.3" / "record.json").exists()

    def test_values_sharing_a_directory_rejected(self, ring_scenario, tmp_path,
                                                 capsys):
        code = cli.main(["sweep", "tilt=0.5:0.0000001:0.5000002", "--scenario",
                         str(ring_scenario), "--out", str(tmp_path / "sweep")])
        assert code == cli.EXIT_INVALID
        assert "tilt=0.5" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_invalid_later_value_writes_nothing(self, ring_scenario, tmp_path,
                                                capsys):
        # every value's scenario is checked before the first run writes
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "time.steps=2:-1:0", "--scenario",
                         str(ring_scenario), "--out", str(out)])
        assert code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: time.steps=0: time.steps: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_model_invalid_at_build_names_its_run(self, tmp_path, capsys):
        # tracked index 5 is valid config; the 4-site model built by the run
        # rejects it, after the earlier runs wrote their records
        scenario = json.loads((SCENARIOS / "ring.json").read_text())
        del scenario["model"]["fluctuation_rate"]
        scenario.update(tracked=[0, 5], time={"t0": 0, "t1": 1, "steps": 2})
        (tmp_path / "scn.json").write_text(json.dumps(scenario))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "sites=8:-2:4", "--scenario",
                         str(tmp_path / "scn.json"), "--out", str(out)])
        assert code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["sites=8: rows=3 events=1",
                                             "sites=6: rows=3 events=2"]
        assert captured.err == "error: sites=4: tracked: index 5 outside 0..3\n"
        assert sorted(p.name for p in out.iterdir()) == ["sites=6", "sites=8"]

    def test_run_flags_reach_every_run(self, ring_scenario, tmp_path, capsys,
                                       monkeypatch):
        seen = []
        run = cli.engine.run_scenario
        monkeypatch.setattr(cli.engine, "run_scenario", lambda cfg: seen.append(
            (cfg.model["tilt"], cfg.seed, cfg.output_formats, cfg.output_dir,
             cfg.steps)) or run(cfg))
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "tilt=0:0.5:1", "--scenario",
                         str(ring_scenario), "--seed", "3", "--format", "csv",
                         "--set", "time.steps=2", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert seen == [(tilt, 3, ("csv",), str(out / f"tilt={tilt:g}"), 2)
                        for tilt in (0.0, 0.5, 1.0)]
        assert sorted(p.name for p in (out / "tilt=0.5").iterdir()) == ["record.csv"]


# an effective Hamiltonian whose force terms overflow on every row
OVERFLOWING_EH = {
    "model": {"type": "effective_hamiltonian", "H": [[0, "1+1i"], ["1-1i", 2]],
              "lindblad": [{"L": [[0, 1e308], [0, 0]], "l": 0.5, "l_rate": "0.1i"}]},
    "time": {"t0": 0, "t1": 1, "steps": 4},
}

# lambda = 2 + t: a zero acceleration, which the second difference meets
# only to its round-off
LINEAR_1X1 = {
    "model": {"type": "explicit", "matrix": [[2]], "velocity": [[1]]},
    "time": {"t0": 0, "t1": 0.5, "steps": 4},
}


class TestTransferSingularAtZero:
    """Transfer models with M22(0) = 0: S(0) does not exist, so the
    difference steps take the unit scale, and they run on a range that
    excludes k = 0."""

    ENTRIES = {
        "unimodular-in-k": {"M11": ["1"], "M12": ["1"], "M21": ["-1", "1"],
                            "M22": ["0", "1"]},
        "constant-det": {"M11": ["0"], "M12": ["1"], "M21": ["-1"],
                         "M22": ["0", "1"]},
    }

    def scenario(self, tmp_path, entries, t0):
        p = tmp_path / "transfer.json"
        p.write_text(json.dumps({
            "model": {"type": "transfer", "entries": self.ENTRIES[entries]},
            "time": {"t0": t0, "t1": 0.9, "steps": 40}}))
        return str(p)

    @pytest.mark.parametrize("entries", list(ENTRIES))
    def test_runs_away_from_zero(self, tmp_path, capsys, entries):
        p = self.scenario(tmp_path, entries, 0.5)
        for argv in (["validate"], ["oracle"],
                     ["run", "--out", str(tmp_path / "out")]):
            assert cli.main([*argv, "--scenario", p]) == cli.EXIT_OK, argv
        rows = json.loads((tmp_path / "out" / "record.json").read_text())["rows"]
        assert len(rows) == 41
        assert not any(row["flags"] for row in rows)

    @pytest.mark.parametrize("entries", list(ENTRIES))
    def test_range_from_zero_names_the_singularity(self, tmp_path, capsys,
                                                   entries):
        p = self.scenario(tmp_path, entries, 0)
        assert cli.main(["validate", "--scenario", p]) == cli.EXIT_INVALID
        assert cli.main(["run", "--scenario", p,
                         "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: M22(k=0.0) = 0j: spectral singularity"] * 2


class TestOracle:
    def test_zero_acceleration_passes(self, tmp_path, capsys):
        p = tmp_path / "linear.json"
        p.write_text(json.dumps(LINEAR_1X1))
        assert cli.main(["oracle", "--scenario", str(p)]) == cli.EXIT_OK

    def test_resolvable_acceleration_error_fails(self, tmp_path, capsys,
                                                 monkeypatch):
        build = engine.build_trajectory

        def off(cfg):
            traj = build(cfg)
            return dataclasses.replace(
                traj, second_derivative=lambda t: traj.second_derivative(t) + 1e-3)

        monkeypatch.setattr(engine, "build_trajectory", off)
        p = tmp_path / "linear.json"
        p.write_text(json.dumps(LINEAR_1X1))
        assert cli.main(["oracle", "--scenario", str(p)]) == cli.EXIT_TOLERANCE

    def test_ring_passes(self, ring_scenario, capsys):
        code = cli.main(["oracle", "--scenario", str(ring_scenario),
                         "--set", "fluctuation_rate=[0,0,0,0,0,0,0,0]"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "max velocity rel err" in out

    def test_collision_family_passes(self, collision_scenario, capsys):
        code = cli.main(["oracle", "--scenario", str(collision_scenario),
                         "--set", "time.t1=0.9"])
        assert code == cli.EXIT_OK

    def test_invalid_scenario(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{}")
        code = cli.main(["oracle", "--scenario", str(p)])
        assert code == cli.EXIT_INVALID

    def test_impossible_tolerance(self, ring_scenario, capsys):
        code = cli.main(["oracle", "--scenario", str(ring_scenario),
                         "--tolerance", "1e-300"])
        assert code == cli.EXIT_TOLERANCE

    @pytest.mark.parametrize("tolerance,got", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("0", "0.0"),
        ("-1", "-1.0")])
    def test_tolerance_not_finite_and_positive(self, ring_scenario, capsys,
                                               tolerance, got):
        # rejected before any check runs, not reported as a violation
        code = cli.main(["oracle", "--scenario", str(ring_scenario),
                         f"--tolerance={tolerance}"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr() == (
            "", f"error: --tolerance must be a finite number > 0, got {got}\n")

    def test_nan_error_is_a_violation(self, ring_scenario, capsys, monkeypatch):
        force_columns = dynamics.force_columns

        def nan_inertial(*args, **kwargs):
            out = force_columns(*args, **kwargs)
            return dataclasses.replace(out, inertial=np.full_like(out.inertial, np.nan))

        monkeypatch.setattr(dynamics, "force_columns", nan_inertial)
        code = cli.main(["oracle", "--scenario", str(ring_scenario)])
        assert code == cli.EXIT_TOLERANCE
        assert "max acceleration rel err: nan" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_model_fails_without_numpy_warnings(self, tmp_path, capsys):
        p = tmp_path / "eh.json"
        p.write_text(json.dumps(OVERFLOWING_EH))
        code = cli.main(["oracle", "--scenario", str(p)])
        assert code == cli.EXIT_TOLERANCE
        assert capsys.readouterr().err == "error: oracle tolerance violated\n"

    def test_run_flags_what_oracle_fails(self, tmp_path, capsys):
        # a run records the overflowed force terms as flagged absences
        p, out = tmp_path / "eh.json", tmp_path / "out"
        p.write_text(json.dumps(OVERFLOWING_EH))
        code = cli.main(["run", "--scenario", str(p), "--out", str(out),
                         "--set", 'output.formats=["json","csv"]'])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        text = (out / "record.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        cells = [cell for row in json.loads(text)["rows"]
                 for cell in row["tracked"].values()]
        assert len(cells) == 10
        for cell in cells:
            assert cell["flags"] == ["non-finite"]
            assert cell["velocity"] is not None
            assert cell["others"] is None and cell["inertial"] is None
        with (out / "record.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {row["flags"] for row in rows} == {"non-finite"}
        assert {row["re_others"] for row in rows} == {"nan"}
