"""Tests for configuration serialisation and the CLI config flags."""

import json
from pathlib import Path

import pytest

from repro.coyote.cli import main as cli_main
from repro.coyote.config import SimulationConfig


class TestSerialisation:
    def test_round_trip(self):
        config = SimulationConfig.for_cores(
            16, l2_mode="private", mapping_policy="page-to-bank",
            vlen_bits=1024, l3_enable=True, **{"noc.kind": "mesh"})
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_round_trip_torus(self):
        config = SimulationConfig.for_cores(
            16, **{"noc.kind": "torus", "noc.routing": "adaptive",
                   "noc.link_capacity": 2, "noc.columns": 2})
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.noc.wrap

    def test_save_load(self, tmp_path):
        config = SimulationConfig.for_cores(8, mem_latency=250)
        path = config.save(tmp_path / "config.json")
        loaded = SimulationConfig.load(path)
        assert loaded == config
        assert loaded.memhier.mem_latency == 250

    def test_file_is_readable_json(self, tmp_path):
        config = SimulationConfig.for_cores(4)
        path = config.save(tmp_path / "config.json")
        data = json.loads(path.read_text())
        assert data["memhier"]["cores_per_tile"] == 4

    def test_unknown_key_rejected(self):
        data = SimulationConfig.for_cores(1).to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(data)

    def test_invalid_values_rejected_on_load(self):
        data = SimulationConfig.for_cores(1).to_dict()
        data["vlen_bits"] = 100
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(data)


class TestCliConfigFlags:
    def test_save_then_load(self, tmp_path, capsys):
        path = str(tmp_path / "c.json")
        assert cli_main(["--kernel", "vector-axpy", "--cores", "2",
                         "--size", "16", "--save-config", path]) == 0
        assert cli_main(["--kernel", "vector-axpy", "--size", "16",
                         "--config", path]) == 0
        out = capsys.readouterr().out
        assert "cores                : 2" in out

    def test_cores_beside_config_is_refused(self, tmp_path, capsys):
        """The file sets the core count: --cores beside it is exit 2
        before anything runs, not silently ignored."""
        path = str(tmp_path / "c.json")
        SimulationConfig.for_cores(4).save(path)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--kernel", "vector-axpy", "--size", "16",
                      "--cores", "8", "--config", path])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--cores cannot apply" in captured.err
        assert "cores                :" not in captured.out


FAULT_PLAN = str(Path(__file__).resolve().parents[2] / "examples"
                 / "fault_plan.json")


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A paused run with every output on, so a resume may write each."""
    directory = tmp_path_factory.mktemp("resume")
    path = directory / "matmul.ckpt"
    assert cli_main(["--kernel", "scalar-matmul", "--cores", "2", "--size",
                     "6", "--metrics-out", str(directory / "m.json"),
                     "--chrome-trace", str(directory / "t.json"),
                     "--trace", str(directory / "t"), "--pause-at", "300",
                     "--checkpoint-out", str(path)]) == 0
    return path


class TestResumeRefusesWhatItWouldIgnore:
    """A checkpoint carries its configuration: a flag that would set it
    beside ``--resume`` is exit 2 before anything runs, not silently
    ignored.  The output flags stay allowed."""

    @pytest.mark.parametrize("flags", [
        ["--cores", "4"], ["--mem-latency", "400"], ["--no-translate"],
        ["--noc-topology", "mesh"], ["--inject", FAULT_PLAN]],
        ids=lambda flags: flags[0])
    def test_a_config_flag_beside_resume_is_refused(self, checkpoint,
                                                    flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--resume", str(checkpoint), *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"{flags[0]} cannot apply" in captured.err
        assert captured.out == ""

    def test_output_flags_beside_resume_run(self, checkpoint, tmp_path,
                                            capsys):
        metrics = tmp_path / "m.json"
        assert cli_main(["--resume", str(checkpoint),
                         "--metrics-out", str(metrics),
                         "--chrome-trace", str(tmp_path / "t.json"),
                         "--trace", str(tmp_path / "t")]) == 0
        assert "output verified      : True" in capsys.readouterr().out
        assert json.loads(metrics.read_text())["cycles"] > 300
