"""Tests for the per-cycle activity profile."""

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import scalar_matmul, stream_triad


def run(workload, cores, **overrides):
    simulation = Simulation(
        SimulationConfig.for_cores(cores, **overrides),
        workload.program)
    return simulation.run()


class TestActivityProfile:
    def test_activity_sums_to_cycles(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4)
        assert sum(results.activity.values()) == results.cycles

    def test_counts_bounded_by_cores(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4)
        assert all(0 <= count <= 4 for count in results.activity)

    def test_average_consistent_with_histogram(self):
        workload = scalar_matmul(size=8, num_cores=2)
        results = run(workload, 2)
        assert 0.0 < results.average_active_cores() <= 2.0

    def test_activity_sums_through_fast_forward(self):
        """Fully-stalled (fast-forwarded) periods land in activity[0]
        and the histogram still sums to the total cycle count."""
        results = run(stream_triad(length=256, num_cores=1), 1,
                      mem_latency=800)
        assert results.activity.get(0, 0) > 0
        assert sum(results.activity.values()) == results.cycles

    def test_activity_sums_through_drain(self):
        """Requests in flight when the last core halts drain at the end;
        those cycles are accounted as zero-active cycles."""
        results = run(stream_triad(length=256, num_cores=2), 2,
                      mem_latency=400)
        halt = max(core.halt_cycle for core in results.cores)
        assert results.cycles > halt  # a drain period existed
        assert sum(results.activity.values()) == results.cycles

    def test_memory_bound_has_more_stall(self):
        """A slower memory raises the fully-stalled fraction."""
        fast = run(stream_triad(length=512, num_cores=2), 2,
                   mem_latency=30)
        slow = run(stream_triad(length=512, num_cores=2), 2,
                   mem_latency=500)
        assert slow.stalled_fraction() > fast.stalled_fraction()

    def test_summary_includes_activity(self):
        workload = scalar_matmul(size=6, num_cores=2)
        results = run(workload, 2)
        assert "avg active cores" in results.summary()

    def test_defaults_safe_without_activity(self):
        from repro.coyote.stats import SimulationResults
        empty = SimulationResults(cycles=0, instructions=0,
                                  wall_seconds=0.0, cores=[],
                                  hierarchy_samples=[], console="",
                                  exit_codes={})
        assert empty.average_active_cores() == 0.0
        assert empty.stalled_fraction() == 0.0
