"""Tests for the MCPU-style vector-request aggregation extension."""

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import spmv_csr_gather_accum, stream_triad
from repro.memhier.hierarchy import MemHierConfig, MemoryHierarchy
from repro.memhier.request import RequestKind
from repro.sparta.scheduler import Scheduler

VLEN = 2048  # 32 doubles -> several lines per vector memory op


def run_pair(workload_factory):
    """Run the same workload with aggregation off and on."""
    results = {}
    for aggregation in (False, True):
        config = SimulationConfig.for_cores(
            4, vlen_bits=VLEN, mcpu_aggregation=aggregation)
        workload = workload_factory()
        simulation = Simulation(config, workload.program)
        run = simulation.run()
        assert run.succeeded()
        assert workload.verify(simulation.memory)
        results[aggregation] = run
    return results


class TestFunctionalEquivalence:
    def test_triad_same_answer(self):
        run_pair(lambda: stream_triad(length=512, num_cores=4))

    def test_gather_same_answer(self):
        run_pair(lambda: spmv_csr_gather_accum(num_rows=32,
                                               nnz_per_row=8,
                                               num_cores=4))

    def test_instruction_counts_identical(self):
        results = run_pair(lambda: stream_triad(length=512, num_cores=4))
        assert results[False].instructions == results[True].instructions


class TestTrafficReduction:
    def test_noc_messages_drop(self):
        results = run_pair(lambda: stream_triad(length=1024,
                                                num_cores=4))
        baseline = results[False].hierarchy_value("memhier.noc.messages")
        aggregated = results[True].hierarchy_value(
            "memhier.noc.messages")
        assert aggregated < baseline

    def test_aggregated_counter_increments(self):
        results = run_pair(lambda: stream_triad(length=1024,
                                                num_cores=4))
        assert results[True].hierarchy_value(
            "memhier.aggregated_requests") > 0
        assert results[False].hierarchy_value(
            "memhier.aggregated_requests") == 0


class TestHierarchyApi:
    def make(self, aggregation=True):
        config = MemHierConfig(mcpu_aggregation=aggregation)
        scheduler = Scheduler()
        hierarchy = MemoryHierarchy(config, scheduler)
        completed = []
        hierarchy.on_complete = completed.append
        return hierarchy, scheduler, completed

    def test_single_response_for_group(self):
        hierarchy, scheduler, completed = self.make()
        lines = [0x1000, 0x1040, 0x1080]
        request = hierarchy.submit_aggregate((10, 11, 12), 0, lines,
                                             RequestKind.LOAD)
        scheduler.run_until_idle()
        assert completed == [request]
        assert completed[0].member_ids == (10, 11, 12)

    def test_group_latency_scales_with_lines(self):
        hierarchy1, scheduler1, completed1 = self.make()
        hierarchy1.submit_aggregate((1,) + (2,), 0, [0x1000, 0x1040],
                                    RequestKind.LOAD)
        scheduler1.run_until_idle()
        hierarchy8, scheduler8, completed8 = self.make()
        hierarchy8.submit_aggregate(tuple(range(8)), 0,
                                    [0x1000 + 64 * i for i in range(8)],
                                    RequestKind.LOAD)
        scheduler8.run_until_idle()
        assert completed8[0].latency > completed1[0].latency

    def test_disabled_raises(self):
        hierarchy, _scheduler, _completed = self.make(aggregation=False)
        with pytest.raises(RuntimeError):
            hierarchy.submit_aggregate((1,), 0, [0x1000],
                                       RequestKind.LOAD)

    def test_mismatched_inputs_rejected(self):
        hierarchy, _scheduler, _completed = self.make()
        with pytest.raises(ValueError):
            hierarchy.submit_aggregate((1, 2), 0, [0x1000],
                                       RequestKind.LOAD)
        with pytest.raises(ValueError):
            hierarchy.submit_aggregate((), 0, [], RequestKind.LOAD)
