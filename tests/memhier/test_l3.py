"""Tests for the optional L3 level ("deeper memory hierarchies")."""

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import stream_triad
from repro.memhier.hierarchy import MemHierConfig, MemoryHierarchy
from repro.memhier.request import MemRequest, RequestKind
from repro.sparta.scheduler import Scheduler


def make_hierarchy(**overrides):
    config = MemHierConfig(l3_enable=True, **overrides)
    scheduler = Scheduler()
    hierarchy = MemoryHierarchy(config, scheduler)
    completed: list[MemRequest] = []
    hierarchy.on_complete = completed.append
    return hierarchy, scheduler, completed


class TestL3Flow:
    def test_cold_miss_traverses_three_levels(self):
        hierarchy, scheduler, completed = make_hierarchy()
        request = hierarchy.submit(1, 0, 0x8000_0000, RequestKind.LOAD)
        scheduler.run_until_idle()
        assert completed == [request]
        # Longer than the two-level path (128 cycles at defaults): adds
        # one more NoC round trip plus the L3 lookup latencies.
        assert request.latency > 128

    def test_l3_hit_serves_l2_conflict_miss(self):
        """A line evicted from L2 but resident in L3 fills from L3,
        skipping memory."""
        hierarchy, scheduler, completed = make_hierarchy(
            l2_bank_bytes=128, l2_associativity=1, banks_per_tile=1,
            num_tiles=1)
        # Two lines conflicting in the 1-way, 2-set L2 (stride 128B) but
        # both resident in the big L3 after their cold misses.
        hierarchy.submit(1, 0, 0x0000, RequestKind.LOAD)
        scheduler.run_until_idle()
        hierarchy.submit(2, 0, 0x0080, RequestKind.LOAD)  # evicts 0x0000
        scheduler.run_until_idle()
        mc_reads_before = sum(
            mc.stats._counters["reads"].value
            for mc in hierarchy.memory_controllers)
        request = hierarchy.submit(3, 0, 0x0000, RequestKind.LOAD)
        scheduler.run_until_idle()
        mc_reads_after = sum(
            mc.stats._counters["reads"].value
            for mc in hierarchy.memory_controllers)
        assert mc_reads_after == mc_reads_before  # L3 hit: no DRAM trip
        assert request.complete_cycle >= 0

    def test_l3_stats_present(self):
        hierarchy, scheduler, _completed = make_hierarchy()
        hierarchy.submit(1, 0, 0x8000_0000, RequestKind.LOAD)
        scheduler.run_until_idle()
        names = {sample.full_name for sample in hierarchy.collect_stats()}
        assert "memhier.l3bank0.requests" in names

    def test_multiple_l3_banks_interleave(self):
        hierarchy, scheduler, _completed = make_hierarchy(l3_banks=2)
        endpoints = {hierarchy._l3_endpoint_of(line * 64)
                     for line in range(4)}
        assert len(endpoints) == 2

    def test_bad_l3_bank_count(self):
        with pytest.raises(ValueError):
            MemHierConfig(l3_enable=True, l3_banks=3).validate()


class TestL3UnderCoyote:
    def test_workload_verifies_with_l3(self):
        config = SimulationConfig.for_cores(4, l3_enable=True)
        workload = stream_triad(length=256, num_cores=4)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_l3_absorbs_l2_capacity_misses(self):
        """Working set bigger than L2 but within L3: the L3 turns the
        second sweep's L2 capacity misses into L3 hits."""
        def run(l3_enable):
            config = SimulationConfig.for_cores(
                1, l2_bank_bytes=4096, banks_per_tile=2,
                l3_enable=l3_enable)
            workload = stream_triad(length=4096, num_cores=1)
            simulation = Simulation(config, workload.program)
            results = simulation.run()
            assert workload.verify(simulation.memory)
            reads = sum(sample.value
                        for sample in results.hierarchy_samples
                        if sample.name == "reads"
                        and ".mc" in sample.path)
            return results.cycles, reads

        _cycles_without, reads_without = run(False)
        _cycles_with, reads_with = run(True)
        # Streams are read once either way; the L3 must not *add* DRAM
        # traffic, and writeback re-reads may be absorbed.
        assert reads_with <= reads_without
