"""Qualitative timing-model tests: turning a knob must move the
simulated outcome in the physically sensible direction."""

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import (
    scalar_matmul,
    scalar_spmv,
    stream_triad,
    vector_matmul,
)
from repro.spike.simulator import L1Config


def run(workload_factory, **config_overrides):
    config = SimulationConfig.for_cores(4, **config_overrides)
    workload = workload_factory()
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert results.succeeded()
    assert workload.verify(simulation.memory)
    return results


class TestLatencyKnobs:
    def test_memory_latency_increases_cycles(self):
        fast = run(lambda: stream_triad(length=512, num_cores=4),
                   mem_latency=50)
        slow = run(lambda: stream_triad(length=512, num_cores=4),
                   mem_latency=400)
        assert slow.cycles > fast.cycles

    def test_noc_latency_increases_cycles(self):
        fast = run(lambda: stream_triad(length=512, num_cores=4),
                   **{"noc.latency": 1})
        slow = run(lambda: stream_triad(length=512, num_cores=4),
                   **{"noc.latency": 30})
        assert slow.cycles > fast.cycles

    def test_l2_hit_latency_matters_with_reuse(self):
        fast = run(lambda: scalar_matmul(size=16, num_cores=4),
                   l2_hit_latency=4,
                   l1=L1Config(dcache_bytes=1024, icache_bytes=4096,
                               associativity=4))
        slow = run(lambda: scalar_matmul(size=16, num_cores=4),
                   l2_hit_latency=40,
                   l1=L1Config(dcache_bytes=1024, icache_bytes=4096,
                               associativity=4))
        assert slow.cycles > fast.cycles

    def test_memory_bandwidth_limits_streaming(self):
        ample = run(lambda: stream_triad(length=1024, num_cores=4),
                    mem_cycles_per_request=1)
        scarce = run(lambda: stream_triad(length=1024, num_cores=4),
                     mem_cycles_per_request=32)
        assert scarce.cycles > ample.cycles


class TestCacheKnobs:
    def test_bigger_l1_fewer_misses(self):
        small = run(lambda: scalar_matmul(size=16, num_cores=4),
                    l1=L1Config(dcache_bytes=512, icache_bytes=4096,
                                associativity=4))
        big = run(lambda: scalar_matmul(size=16, num_cores=4),
                  l1=L1Config(dcache_bytes=32 * 1024,
                              icache_bytes=4096, associativity=4))
        assert big.l1d_miss_rate() < small.l1d_miss_rate()
        assert big.cycles < small.cycles

    def test_tiny_icache_causes_fetch_stalls(self):
        # One single-line I-cache: any loop spanning two lines thrashes.
        tiny = run(lambda: scalar_spmv(num_rows=32, nnz_per_row=4,
                                       num_cores=4),
                   l1=L1Config(icache_bytes=64, dcache_bytes=32 * 1024,
                               associativity=1))
        normal = run(lambda: scalar_spmv(num_rows=32, nnz_per_row=4,
                                         num_cores=4))
        assert tiny.fetch_stall_cycles >= normal.fetch_stall_cycles
        assert tiny.l1i_miss_rate() > normal.l1i_miss_rate()


class TestWorkloadShapes:
    def test_vector_fewer_instructions_than_scalar(self):
        scalar = run(lambda: scalar_matmul(size=12, num_cores=4))
        vector = run(lambda: vector_matmul(size=12, num_cores=4))
        assert vector.instructions < scalar.instructions / 2

    def test_more_cores_fewer_cycles(self):
        one = Simulation(SimulationConfig.for_cores(1),
                         scalar_matmul(size=16, num_cores=1).program)
        four = Simulation(SimulationConfig.for_cores(4),
                          scalar_matmul(size=16, num_cores=4).program)
        cycles_one = one.run().cycles
        cycles_four = four.run().cycles
        assert cycles_four < cycles_one

    def test_cycles_exceed_per_core_instructions(self):
        """With a timing model, cycles >= the longest core's
        instruction count."""
        results = run(lambda: scalar_spmv(num_rows=32, nnz_per_row=4,
                                          num_cores=4))
        busiest = max(core.instructions for core in results.cores)
        assert results.cycles >= busiest
