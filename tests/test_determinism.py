"""Cross-cutting determinism tests: identical runs produce identical
cycle counts, statistics, and traces."""

from repro.api import Simulation, SimulationConfig
from repro.kernels import scalar_spmv, vector_stencil
from repro.spike import SpikeSimulator


def run_once(trace=False):
    config = SimulationConfig.for_cores(4, trace_misses=trace)
    workload = scalar_spmv(num_rows=32, nnz_per_row=5, num_cores=4,
                           seed=77)
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    return simulation, results


class TestCoyoteDeterminism:
    def test_cycle_counts_identical(self):
        _sim_a, results_a = run_once()
        _sim_b, results_b = run_once()
        assert results_a.cycles == results_b.cycles
        assert results_a.instructions == results_b.instructions

    def test_stall_counters_identical(self):
        _sim_a, results_a = run_once()
        _sim_b, results_b = run_once()
        assert results_a.raw_stall_cycles == results_b.raw_stall_cycles
        assert results_a.fetch_stall_cycles == \
            results_b.fetch_stall_cycles

    def test_hierarchy_stats_identical(self):
        _sim_a, results_a = run_once()
        _sim_b, results_b = run_once()
        stats_a = {sample.full_name: sample.value
                   for sample in results_a.hierarchy_samples}
        stats_b = {sample.full_name: sample.value
                   for sample in results_b.hierarchy_samples}
        assert stats_a == stats_b

    def test_traces_identical(self):
        sim_a, _results_a = run_once(trace=True)
        sim_b, _results_b = run_once(trace=True)
        assert sim_a.trace.records == sim_b.trace.records


class TestIssDeterminism:
    def test_interleaving_does_not_change_results(self):
        final_states = []
        for interleave in (1, 16):
            workload = vector_stencil(length=48, iterations=2,
                                      num_cores=2, seed=5)
            simulator = SpikeSimulator(workload.program, num_cores=2,
                                       interleave=interleave)
            simulator.run()
            address = workload.program.symbols["stn_buf_a"]
            final_states.append(
                simulator.machine.memory.load_bytes(address, 48 * 8))
        assert final_states[0] == final_states[1]

    def test_instruction_counts_stable(self):
        counts = set()
        for _ in range(3):
            workload = scalar_spmv(num_rows=16, nnz_per_row=4,
                                   num_cores=2, seed=3)
            simulator = SpikeSimulator(workload.program, num_cores=2)
            counts.add(simulator.run())
        assert len(counts) == 1
