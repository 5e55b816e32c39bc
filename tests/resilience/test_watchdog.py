"""Forward-progress watchdog and deadlock diagnostics."""

import pytest

from repro.api import (
    DeadlockError,
    FaultSpec,
    ResilienceConfig,
    Simulation,
    SimulationConfig,
)
from repro.coyote.errors import SimulationError
from repro.kernels import instantiate
from repro.resilience.watchdog import (
    SOFT_WEDGE_FACTOR,
    Watchdog,
    build_snapshot,
)

# Drops every L2-bank response in the window: some core's completion is
# destroyed, so the run provably wedges.
DROP_PLAN = [FaultSpec(target="l2bank", kind="drop", start=300, end=500,
                       probability=0.5)]


def _wedged_simulation(watchdog_cycles=2000):
    workload = instantiate("scalar-matmul", num_cores=4, size=8)
    config = SimulationConfig.for_cores(4)
    config.resilience = ResilienceConfig(
        faults=list(DROP_PLAN), fault_seed=42,
        watchdog_cycles=watchdog_cycles)
    return Simulation(config, workload.program)


def _paused_simulation():
    workload = instantiate("scalar-matmul", num_cores=4, size=8)
    config = SimulationConfig.for_cores(4)
    simulation = Simulation(config, workload.program)
    assert simulation.run(pause_at=400) is None
    return simulation


class TestDeadlockDetection:
    def test_dropped_response_raises_deadlock_error(self):
        simulation = _wedged_simulation()
        with pytest.raises(DeadlockError) as exc_info:
            simulation.run()
        error = exc_info.value
        # The acceptance criterion: the error names the stuck cores and
        # the orphaned in-flight request.
        assert "stuck cores" in str(error)
        assert "orphaned in-flight request" in str(error)
        assert "miss" in str(error) and "core" in str(error)

    def test_deadlock_error_is_simulation_error(self):
        simulation = _wedged_simulation()
        with pytest.raises(SimulationError):
            simulation.run()

    def test_snapshot_structure(self):
        simulation = _wedged_simulation()
        with pytest.raises(DeadlockError) as exc_info:
            simulation.run()
        snapshot = exc_info.value.snapshot
        for key in ("reason", "cycle", "scheduler", "cores",
                    "pending_misses", "in_flight", "orphaned_misses",
                    "banks", "memory_controllers",
                    "hierarchy_outstanding"):
            assert key in snapshot, key
        assert snapshot["scheduler"]["pending_events"] == 0
        assert snapshot["orphaned_misses"], \
            "a dropped response must leave an orphaned scoreboard entry"
        stalled = [core for core in snapshot["cores"]
                   if core["state"] not in ("active", "halted")]
        assert stalled
        for core in stalled:
            assert core["stalled_for"] >= 0
            assert isinstance(core["pc"], int)

    def test_orphans_named_in_message_match_snapshot(self):
        simulation = _wedged_simulation()
        with pytest.raises(DeadlockError) as exc_info:
            simulation.run()
        error = exc_info.value
        for miss in error.snapshot["orphaned_misses"]:
            assert f"miss {miss['miss_id']} of core {miss['core_id']}" \
                in str(error)


class TestWatchdogUnit:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            Watchdog(0, None)

    def test_hard_wedge_trips_after_interval(self):
        simulation = _paused_simulation()
        watchdog = Watchdog(100, simulation.orchestrator)
        watchdog.observe(1000, 50, 10)
        watchdog.observe(1050, 50, 10)  # no progress, window not full
        with pytest.raises(DeadlockError, match="no instruction retired "
                                                "and no event fired"):
            watchdog.observe(1100, 50, 10)

    def test_progress_resets_the_window(self):
        simulation = _paused_simulation()
        watchdog = Watchdog(100, simulation.orchestrator)
        watchdog.observe(1000, 50, 10)
        watchdog.observe(1099, 51, 10)   # an instruction retired
        watchdog.observe(2000, 52, 10)   # window restarts from 1099
        watchdog.observe(2099, 52, 11)   # an event fired: still alive
        with pytest.raises(DeadlockError):
            watchdog.observe(2300, 52, 11)

    def test_soft_wedge_trips_on_event_storm(self):
        simulation = _paused_simulation()
        watchdog = Watchdog(100, simulation.orchestrator)
        cycle, events = 1000, 10
        watchdog.observe(cycle, 50, events)
        with pytest.raises(DeadlockError, match="soft-wedge"):
            # Events keep firing (never hard-wedged) but nothing
            # retires for SOFT_WEDGE_FACTOR * interval cycles.
            for _ in range(SOFT_WEDGE_FACTOR * 2):
                cycle += 99
                events += 1
                watchdog.observe(cycle, 50, events)

    def test_snapshot_of_healthy_simulation(self):
        simulation = _paused_simulation()
        snapshot = build_snapshot(simulation.orchestrator, "inspection")
        assert snapshot["reason"] == "inspection"
        assert snapshot["cycle"] == 400
        assert not snapshot["orphaned_misses"]
        assert len(snapshot["cores"]) == 4


class TestNocSnapshot:
    """The interconnect's congestion state rides every snapshot."""

    def test_crossbar_snapshot_reports_port_wires(self):
        simulation = _paused_simulation()
        noc = build_snapshot(simulation.orchestrator, "probe")["noc"]
        assert noc["topology"] == "crossbar"
        assert noc["ports"]  # traffic flowed by cycle 400
        assert all(isinstance(count, int)
                   for count in noc["ports"].values())

    def test_mesh_snapshot_reports_congestion_and_backlog(self):
        workload = instantiate("scalar-matmul", num_cores=4, size=8)
        config = SimulationConfig.for_cores(
            4, **{"noc.kind": "mesh", "noc.columns": 2,
                  "noc.link_capacity": 1})
        simulation = Simulation(config, workload.program)
        assert simulation.run(pause_at=400) is None
        snapshot = build_snapshot(simulation.orchestrator, "probe")
        noc = snapshot["noc"]
        assert noc["topology"] == "mesh"
        assert noc["injected"] >= noc["delivered"] >= 0
        assert noc["injected"] > 0
        assert noc["links"] and noc["routers"]
        # Live queue state: only links whose frontier is ahead of the
        # pause cycle appear, each with a positive backlog.
        for depth in noc["busy_links"].values():
            assert depth["backlog_cycles"] > 0
            assert depth["slots_used"] >= 1
        # The whole snapshot must stay JSON-safe: it is what the CLI
        # prints and campaign tooling persists on a deadlock.
        import json
        json.dumps(noc)

    def test_mesh_deadlock_snapshot_carries_noc_state(self):
        workload = instantiate("scalar-matmul", num_cores=4, size=8)
        config = SimulationConfig.for_cores(4, **{"noc.kind": "mesh",
                                                  "noc.columns": 2})
        config.resilience = ResilienceConfig(
            faults=list(DROP_PLAN), fault_seed=42,
            watchdog_cycles=2000)
        simulation = Simulation(config, workload.program)
        with pytest.raises(DeadlockError) as exc_info:
            simulation.run()
        noc = exc_info.value.snapshot["noc"]
        assert noc["topology"] == "mesh"
        assert noc["injected"] > 0
