"""Tests for the host-side profiler and progress heartbeat."""

import logging

import pytest

import pickle

from repro.api import Simulation, SimulationConfig, TelemetryConfig
from repro.coyote import orchestrator as orchestrator_module
from repro.kernels import scalar_matmul
from repro.telemetry.profiler import HostProfiler

_SECTIONS = ("spike_seconds", "sparta_seconds", "stats_seconds",
             "other_seconds")


class _Clock:
    """An injected ``perf_counter``: ``epoch`` plus, per call, ``tick``
    seconds, plus ``per_cycle`` seconds a simulated cycle of
    ``scheduler`` (when one is attached)."""

    def __init__(self, epoch=0.0, tick=0.0, per_cycle=0.0):
        self.epoch, self.tick, self.per_cycle = epoch, tick, per_cycle
        self.scheduler = None
        self.calls = 0

    def perf_counter(self):
        self.calls += 1
        cycle = self.scheduler.current_cycle if self.scheduler else 0
        return self.epoch + self.calls * self.tick + cycle * self.per_cycle


def _matmul(**telemetry):
    config = SimulationConfig.for_cores(
        2, telemetry=TelemetryConfig(**telemetry))
    return Simulation(config, scalar_matmul(size=8, num_cores=2).program)


class TestHostProfiler:
    def test_sections_accumulate(self):
        profiler = HostProfiler()
        profiler.spike_seconds += 0.5
        profiler.sparta_seconds += 0.25
        data = profiler.to_dict()
        assert data["spike_seconds"] == pytest.approx(0.5)
        assert data["sparta_seconds"] == pytest.approx(0.25)
        assert data["wall_seconds"] >= 0.0

    def test_format_report_mentions_all_sections(self):
        report = HostProfiler().format_report()
        for section in ("spike", "sparta", "stats", "other", "total"):
            assert section in report

    def test_heartbeat_fires_on_boundary(self, caplog):
        profiler = HostProfiler(progress_cycles=100)
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            assert not profiler.maybe_heartbeat(50, 10, 5, 0.5)
            assert profiler.maybe_heartbeat(100, 20, 10, 1.0)
            assert not profiler.maybe_heartbeat(150, 30, 15, 1.5)
            assert profiler.maybe_heartbeat(230, 40, 20, 2.3)
        messages = [record.message for record in caplog.records]
        assert len(messages) == 2
        assert all("progress" in message for message in messages)
        assert "cycle=100" in messages[0]

    def test_heartbeat_realigns_after_jump(self):
        profiler = HostProfiler(progress_cycles=100)
        assert profiler.maybe_heartbeat(730, 0, 0, 1.0)
        assert not profiler.maybe_heartbeat(799, 0, 0, 1.1)
        assert profiler.maybe_heartbeat(800, 0, 0, 1.2)

    def test_the_breakdown_partitions_the_wall_it_is_handed(self):
        profiler = HostProfiler()
        profiler.spike_seconds, profiler.sparta_seconds = 0.5, 0.25
        profiler.stats_seconds, profiler.wall_seconds = 0.125, 1.0
        data = profiler.to_dict()
        assert data["wall_seconds"] == 1.0
        assert data["other_seconds"] == 0.125
        assert sum(data[key] for key in _SECTIONS) == data["wall_seconds"]

    def test_a_beat_rates_from_the_last_restart(self, caplog):
        profiler = HostProfiler(progress_cycles=100)
        assert profiler.maybe_heartbeat(100, 50, 10, 1.0)
        # A resumed run restarts the rates at its own start.
        profiler.restart(1.25, 150, 70, 20)
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            assert profiler.maybe_heartbeat(200, 120, 30, 1.5)
        assert "cycle=200 inst=120 | 200 cycles/s 40 events/s " \
            "0.000 MIPS" in caplog.records[-1].message


class TestEndToEnd:
    def test_host_profile_in_results(self):
        config = SimulationConfig.for_cores(
            2, telemetry=TelemetryConfig(host_profile=True))
        workload = scalar_matmul(size=8, num_cores=2)
        results = Simulation(config, workload.program).run()
        profile = results.host_profile
        assert profile is not None
        assert profile["spike_seconds"] > 0.0
        assert profile["sparta_seconds"] > 0.0
        # Sections must not exceed the total wall time they partition.
        measured = (profile["spike_seconds"] + profile["sparta_seconds"]
                    + profile["stats_seconds"])
        assert measured <= profile["wall_seconds"]

    def test_progress_heartbeat_logged(self, caplog):
        config = SimulationConfig.for_cores(
            2, telemetry=TelemetryConfig(progress=True,
                                         progress_cycles=500))
        workload = scalar_matmul(size=8, num_cores=2)
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            results = Simulation(config, workload.program).run()
        assert results.cycles > 500
        assert any("progress" in record.message
                   for record in caplog.records)


class TestOneWallClock:
    """The host profile and the heartbeat read the run's wall clock:
    its ``run`` segments summed, whichever process ran them."""

    def test_a_checkpoint_on_disk_adds_no_wall_time(self, monkeypatch):
        clock = _Clock(tick=1e-3)
        monkeypatch.setattr(orchestrator_module, "time", clock)
        paused = _matmul(host_profile=True)
        assert paused.run(pause_at=800) is None
        resumed = pickle.loads(pickle.dumps(paused))
        clock.epoch += 3600.0    # an hour on disk, then a new process
        results = resumed.run()
        profile = results.host_profile
        assert profile["wall_seconds"] < 3600.0
        assert profile["wall_seconds"] >= results.wall_seconds
        assert all(profile[key] >= 0.0 for key in _SECTIONS)
        assert sum(profile[key] for key in _SECTIONS) \
            == pytest.approx(profile["wall_seconds"], rel=1e-12)
        assert resumed.telemetry.profiler.format_report().endswith(
            f"{profile['wall_seconds']:8.3f} s")

    def test_the_first_beat_after_a_resume_is_this_process_rate(
            self, monkeypatch, caplog):
        # A microsecond a cycle before the pause; afterwards two, on a
        # clock whose epoch is another process's.
        clock = _Clock(per_cycle=1e-6)
        monkeypatch.setattr(orchestrator_module, "time", clock)
        paused = _matmul(progress=True, progress_cycles=500)
        clock.scheduler = paused.orchestrator.scheduler
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            assert paused.run(pause_at=700) is None
        assert "1000000 cycles/s" in caplog.records[-1].message
        resumed = pickle.loads(pickle.dumps(paused))
        clock.epoch, clock.per_cycle = 1e6, 2e-6
        clock.scheduler = resumed.orchestrator.scheduler
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.telemetry"):
            assert resumed.run().cycles > 1000
        assert "| 500000 cycles/s " in caplog.records[0].message
