"""Tests for the Simulation facade and CLI."""

from pathlib import Path

import pytest

from repro.api import Simulation, SimulationConfig, SimulationError
from repro.coyote.cli import main as cli_main
from repro.kernels import scalar_matmul, vector_axpy


class TestSimulationFacade:
    def test_run_returns_results(self):
        workload = vector_axpy(length=32, num_cores=2)
        simulation = Simulation(SimulationConfig.for_cores(2),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_run_is_idempotent(self):
        workload = vector_axpy(length=32, num_cores=1)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        first = simulation.run()
        second = simulation.run()
        assert first is second

    def test_results_before_run_raises(self):
        workload = vector_axpy(length=32, num_cores=1)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        with pytest.raises(SimulationError):
            _ = simulation.results

    def test_trace_requires_enabling(self):
        workload = vector_axpy(length=32, num_cores=1)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.write_trace("/tmp/nope")

    def test_trace_writes_files(self, tmp_path):
        workload = vector_axpy(length=32, num_cores=1)
        config = SimulationConfig.for_cores(1, trace_misses=True)
        simulation = Simulation(config, workload.program)
        simulation.run()
        prv, pcf = simulation.write_trace(tmp_path / "trace")
        assert Path(prv).exists() and Path(pcf).exists()
        assert len(simulation.trace.records) > 0

    def test_summary_renders(self):
        workload = scalar_matmul(size=4, num_cores=1)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        results = simulation.run()
        summary = results.summary()
        assert "cycles" in summary and "MIPS" in summary
        assert "exit codes" in summary

    def test_hierarchy_report_renders(self):
        workload = scalar_matmul(size=4, num_cores=1)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        results = simulation.run()
        report = results.hierarchy_report()
        assert "bank0" in report


class TestCli:
    def test_cli_runs_kernel(self, capsys):
        exit_code = cli_main(["--kernel", "vector-axpy", "--cores", "2",
                              "--size", "32"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "output verified      : True" in captured.out

    def test_cli_hierarchy_stats(self, capsys):
        exit_code = cli_main(["--kernel", "vector-axpy", "--cores", "1",
                              "--size", "16", "--hierarchy-stats"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "modelled hierarchy" in captured.out

    def test_cli_trace(self, tmp_path, capsys):
        base = str(tmp_path / "trace")
        exit_code = cli_main(["--kernel", "vector-axpy", "--cores", "1",
                              "--size", "16", "--trace", base])
        assert exit_code == 0
        assert (tmp_path / "trace.prv").exists()

    def test_cli_config_flags(self, capsys):
        exit_code = cli_main(["--kernel", "scalar-spmv", "--cores", "8",
                              "--size", "32", "--l2-mode", "private",
                              "--mapping", "page-to-bank",
                              "--noc-topology", "mesh"])
        assert exit_code == 0
