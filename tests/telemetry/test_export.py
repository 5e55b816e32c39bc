"""Tests for machine-readable export: results.to_dict, the CLI
telemetry flags, config round-trips and sweep integration."""

import json

import pytest

from repro.api import Simulation, SimulationConfig, Sweep, TelemetryConfig
from repro.coyote.cli import main as cli_main
from repro.kernels import scalar_matmul, scalar_spmv


@pytest.fixture(scope="module")
def plain_results():
    workload = scalar_matmul(size=8, num_cores=2)
    simulation = Simulation(SimulationConfig.for_cores(2),
                            workload.program)
    return simulation.run()


class TestResultsToDict:
    def test_json_serialisable(self, plain_results):
        data = plain_results.to_dict()
        rebuilt = json.loads(json.dumps(data))
        assert rebuilt["cycles"] == plain_results.cycles
        assert rebuilt["instructions"] == plain_results.instructions

    def test_core_entries(self, plain_results):
        data = plain_results.to_dict()
        assert len(data["cores"]) == 2
        core = data["cores"][0]
        assert core["core_id"] == 0
        assert core["l1d"]["reads"] >= 0
        assert core["exit_code"] == 0

    def test_hierarchy_flattened(self, plain_results):
        data = plain_results.to_dict()
        assert data["hierarchy"]["memhier.requests_completed"] \
            == plain_results.hierarchy_value("memhier.requests_completed")

    def test_console_optional(self, plain_results):
        assert "console" in plain_results.to_dict()
        assert "console" not in \
            plain_results.to_dict(include_console=False)

    def test_telemetry_sections_absent_when_disabled(self, plain_results):
        data = plain_results.to_dict()
        assert "timeseries" not in data
        assert "latency_histograms" not in data
        assert "host_profile" not in data


class TestHierarchyValueIndex:
    def test_lookup_matches_linear_scan(self, plain_results):
        for sample in plain_results.hierarchy_samples:
            assert plain_results.hierarchy_value(sample.full_name) \
                == sample.value

    def test_unknown_name_raises(self, plain_results):
        with pytest.raises(KeyError):
            plain_results.hierarchy_value("no.such.counter")

    def test_bank_utilisation_uses_index(self, plain_results):
        utilisation = plain_results.bank_utilisation()
        assert utilisation
        for bank, requests in utilisation.items():
            assert plain_results.hierarchy_value(
                f"memhier.tile0.{bank}.requests") == requests


class TestCliMetricsOut:
    def test_writes_full_document(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8", "--metrics-out", str(path)]) == 0
        data = json.loads(path.read_text())
        # The full to_dict payload...
        for key in ("cycles", "instructions", "ipc", "cores",
                    "hierarchy", "activity", "exit_codes"):
            assert key in data
        # ... plus the time series and telemetry sections.
        assert data["timeseries"]["sample_interval"] > 0
        assert data["timeseries"]["ipc"]
        assert data["latency_histograms"]
        assert data["host_profile"]["spike_seconds"] > 0
        phases = data["host_profile"]["phases"]
        assert list(phases) == ["kernel_build_s", "simulation_build_s",
                                "run_s"] and min(phases.values()) > 0
        assert "metrics written" in capsys.readouterr().out

    def test_translator_counters(self, tmp_path):
        """Translate-time counters ride in host_profile; no vector
        mnemonic with a semantics row ends a block."""
        path = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "vector-matmul", "--cores", "2",
                         "--size", "16", "--metrics-out", str(path)]) == 0
        translator = json.loads(path.read_text())["host_profile"][
            "translator"]
        assert translator["blocks_compiled"] + translator["factory_hits"] \
            == sum(translator["by_shape"].values()) > 0
        assert translator["enders"]
        assert not [mnemonic for mnemonic in translator["enders"]
                    if mnemonic.startswith("v")]

    def test_compile_seconds_is_paid_once_per_process(self, tmp_path):
        """Time spent generating and compiling blocks: positive on a
        cold run, exactly zero when every block was a factory hit."""
        from repro.spike.translate import _FACTORY_CACHE
        saved = dict(_FACTORY_CACHE)
        _FACTORY_CACHE.clear()
        try:
            runs = []
            for name in ("cold.json", "warm.json"):
                path = tmp_path / name
                assert cli_main(["--kernel", "scalar-matmul", "--cores",
                                 "2", "--size", "8", "--metrics-out",
                                 str(path)]) == 0
                data = json.loads(path.read_text())
                assert "compile_seconds" not in data   # host-side only
                runs.append(data["host_profile"]["translator"])
        finally:
            _FACTORY_CACHE.update(saved)
        cold, warm = runs
        assert cold["blocks_compiled"] > 0 and cold["compile_seconds"] > 0
        assert warm["factory_hits"] \
            == cold["blocks_compiled"] + cold["factory_hits"]
        assert (warm["blocks_compiled"], warm["compile_seconds"]) \
            == (0, 0.0)

    def test_no_translate_has_no_translator_section(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8", "--no-translate",
                         "--metrics-out", str(path)]) == 0
        assert json.loads(path.read_text())["host_profile"][
            "translator"] is None

    def test_resume_of_a_checkpoint_written_without_telemetry(
            self, tmp_path, capsys):
        """A resumed run takes its telemetry from the checkpoint: one
        written by a plain run has no host profile to add to."""
        ckpt = tmp_path / "plain.ckpt"
        path = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "vector-matmul", "--cores", "2",
                         "--size", "16", "--pause-at", "2000",
                         "--checkpoint-out", str(ckpt)]) == 0
        assert cli_main(["--resume", str(ckpt),
                         "--metrics-out", str(path)]) == 0
        assert "output verified      : True" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["cycles"] > 2000
        assert set(data["host_profile"]) == {"translator", "phases"}
        assert data["host_profile"]["translator"]["blocks_compiled"] \
            + data["host_profile"]["translator"]["factory_hits"] > 0

    def test_sample_interval_flag_respected(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8", "--metrics-out", str(path),
                         "--sample-interval", "100"]) == 0
        data = json.loads(path.read_text())
        assert data["timeseries"]["sample_interval"] == 100

    def test_chrome_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8", "--chrome-trace",
                         str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert "chrome trace written" in capsys.readouterr().out

    def test_progress_prints_breakdown(self, capsys):
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8", "--progress"]) == 0
        assert "host wall-time breakdown" in capsys.readouterr().out

    def test_plain_run_unaffected(self, capsys):
        assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "8"]) == 0
        out = capsys.readouterr().out
        assert "metrics written" not in out
        assert "host wall-time breakdown" not in out

    def test_negative_sample_interval_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                      "--size", "8", "--sample-interval", "-5"])
        assert excinfo.value.code == 2
        assert "--sample-interval" in capsys.readouterr().err

    def test_missing_output_directory_fails_before_the_run(
            self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                      "--size", "8",
                      "--metrics-out", str(tmp_path / "no" / "m.json")])
        assert excinfo.value.code == 2
        assert "output directory" in capsys.readouterr().err

    def test_config_file_telemetry_survives_cli_layering(self, tmp_path):
        """--metrics-out must not clobber a --config sampling grid with
        the implied default interval."""
        config = SimulationConfig.for_cores(
            2, telemetry=TelemetryConfig(sample_interval=250))
        config_path = config.save(tmp_path / "config.json")
        metrics = tmp_path / "metrics.json"
        assert cli_main(["--kernel", "scalar-matmul", "--size", "8",
                         "--config", str(config_path),
                         "--metrics-out", str(metrics)]) == 0
        data = json.loads(metrics.read_text())
        assert data["timeseries"]["sample_interval"] == 250


class TestConfigRoundTrip:
    def test_telemetry_survives_save_load(self, tmp_path):
        config = SimulationConfig.for_cores(
            2, telemetry=TelemetryConfig(sample_interval=500,
                                         histograms=True))
        path = config.save(tmp_path / "config.json")
        loaded = SimulationConfig.load(path)
        assert loaded == config
        assert loaded.telemetry.sample_interval == 500
        assert loaded.telemetry.histograms

    def test_old_configs_without_telemetry_still_load(self, tmp_path):
        data = SimulationConfig.for_cores(2).to_dict()
        del data["telemetry"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        loaded = SimulationConfig.load(path)
        assert loaded.telemetry == TelemetryConfig()

    def test_invalid_telemetry_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(
                2, telemetry=TelemetryConfig(sample_interval=-1))


class TestFailureDiagnostics:
    @staticmethod
    def make_results(exit_codes, num_cores=2):
        from repro.coyote.stats import CoreStats, SimulationResults
        from repro.spike.l1cache import L1Stats
        cores = [CoreStats(core_id=i, instructions=5, raw_stall_cycles=0,
                           fetch_stall_cycles=0,
                           halt_cycle=10 if i in exit_codes else None,
                           exit_code=exit_codes.get(i),
                           l1i=L1Stats(), l1d=L1Stats())
                 for i in range(num_cores)]
        return SimulationResults(cycles=10, instructions=10,
                                 wall_seconds=0.1, cores=cores,
                                 hierarchy_samples=[], console="",
                                 exit_codes=exit_codes)

    def test_nonzero_exit_cores_named(self, capsys):
        from repro.coyote.cli import _report_failure
        workload = scalar_matmul(size=4, num_cores=2)
        _report_failure(workload,
                        self.make_results({0: 0, 1: 3}))
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "core 1 exited with code 3" in err
        assert "core 0" not in err

    def test_missing_cores_named(self, capsys):
        from repro.coyote.cli import _report_failure
        workload = scalar_matmul(size=4, num_cores=2)
        _report_failure(workload, self.make_results({0: 0}))
        err = capsys.readouterr().err
        assert "cores [1] never reached exit" in err

    def test_verify_mismatch_explained(self, capsys):
        from repro.coyote.cli import _report_failure
        workload = scalar_matmul(size=4, num_cores=2)
        _report_failure(workload, self.make_results({0: 0, 1: 0}))
        err = capsys.readouterr().err
        assert "verify mismatch" in err


class TestSweepIntegration:
    def test_sweep_points_carry_time_series(self):
        sweep = Sweep(base_cores=2,
                      axes={"mem_latency": [50, 200]},
                      telemetry=TelemetryConfig(sample_interval=100))
        table = sweep.run(
            lambda: scalar_spmv(num_rows=16, nnz_per_row=4, num_cores=2))
        assert len(table.points) == 2
        for point in table.points:
            timeseries = point.results.timeseries
            assert timeseries is not None
            assert timeseries.intervals()
            assert timeseries.total_delta("cores.instructions") \
                == sum(core.instructions for core in point.results.cores)
