"""Tests for the interval sampler and its consistency guarantee."""

import pytest

from repro.api import Simulation, SimulationConfig, TelemetryConfig
from repro.kernels import scalar_matmul, scalar_spmv, stream_triad
from repro.telemetry.sampler import Interval, IntervalSampler


def run(workload, cores, interval=200, **overrides):
    config = SimulationConfig.for_cores(
        cores, telemetry=TelemetryConfig(sample_interval=interval),
        **overrides)
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert results.succeeded()
    return results


class TestSamplerUnit:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            IntervalSampler(0, dict)

    def test_deltas_between_snapshots(self):
        values = {"a": 0}
        sampler = IntervalSampler(10, lambda: dict(values))
        sampler.start(0)
        values["a"] = 7
        assert sampler.maybe_sample(10)
        values["a"] = 12
        sampler.finalize(25)
        assert sampler.series("a") == [7, 5]
        assert sampler.total_delta("a") == 12

    def test_maybe_sample_waits_for_boundary(self):
        sampler = IntervalSampler(100, dict)
        sampler.start(0)
        assert not sampler.maybe_sample(99)
        assert sampler.maybe_sample(100)
        assert not sampler.maybe_sample(199)

    def test_fast_forward_realigns_to_grid(self):
        """A jump over several boundaries yields one catch-up sample."""
        sampler = IntervalSampler(100, dict)
        sampler.start(0)
        assert sampler.maybe_sample(730)  # skipped 100..700
        assert not sampler.maybe_sample(799)
        assert sampler.maybe_sample(800)  # back on the grid

    def test_counter_vanishing_treated_as_zero_start(self):
        """Counters appearing mid-run delta from an implicit zero."""
        values = {}
        sampler = IntervalSampler(10, lambda: dict(values))
        sampler.start(0)
        values["late"] = 4
        sampler.finalize(10)
        assert sampler.series("late") == [4]

    def test_interval_helpers(self):
        interval = Interval(0, 100, {"cores.instructions": 50,
                                     "activity.0": 40, "activity.2": 60})
        assert interval.cycles == 100
        assert interval.ipc == pytest.approx(0.5)
        assert interval.active_cores == pytest.approx(1.2)

    def test_empty_interval_is_safe(self):
        interval = Interval(5, 5, {})
        assert interval.ipc == 0.0
        assert interval.active_cores == 0.0
        assert interval.l1d_miss_rate == 0.0


class TestConsistencyGuarantee:
    """Interval deltas must sum exactly to the end-of-run counters."""

    @pytest.mark.parametrize("interval", (50, 200, 1000))
    def test_deltas_sum_to_final_hierarchy_counters(self, interval):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4, interval=interval)
        timeseries = results.timeseries
        for sample in results.hierarchy_samples:
            assert timeseries.total_delta(sample.full_name) \
                == pytest.approx(sample.value), sample.full_name

    def test_deltas_sum_under_memory_pressure(self):
        """Fast-forwarded stall regions must not lose samples."""
        workload = stream_triad(length=256, num_cores=2)
        results = run(workload, 2, interval=64, mem_latency=400)
        timeseries = results.timeseries
        for sample in results.hierarchy_samples:
            assert timeseries.total_delta(sample.full_name) \
                == pytest.approx(sample.value), sample.full_name

    def test_instruction_deltas_sum_to_core_totals(self):
        workload = scalar_spmv(num_rows=24, nnz_per_row=4, num_cores=2)
        results = run(workload, 2, interval=100)
        per_core = sum(core.instructions for core in results.cores)
        assert results.timeseries.total_delta("cores.instructions") \
            == per_core

    def test_final_snapshot_at_final_cycle(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4, interval=100)
        assert results.timeseries.snapshots[-1].cycle == results.cycles


class TestSeriesApi:
    def test_interval_spans_are_contiguous(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4, interval=128)
        intervals = results.timeseries.intervals()
        assert intervals[0].start_cycle == 0
        for before, after in zip(intervals, intervals[1:]):
            assert before.end_cycle == after.start_cycle
        assert intervals[-1].end_cycle == results.cycles

    def test_ipc_over_time_consistent_with_aggregate(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4, interval=128)
        timeseries = results.timeseries
        weighted = sum(interval.ipc * interval.cycles
                       for interval in timeseries.intervals())
        assert weighted / results.cycles == pytest.approx(results.ipc)

    def test_bank_utilisation_over_time_matches_final(self):
        workload = scalar_spmv(num_rows=32, nnz_per_row=4, num_cores=4)
        results = run(workload, 4, interval=100)
        over_time = results.timeseries.bank_utilisation_over_time()
        final = results.bank_utilisation()
        assert set(over_time) == set(final)
        for bank, series in over_time.items():
            assert sum(series) == pytest.approx(final[bank])

    def test_active_cores_bounded(self):
        workload = scalar_matmul(size=8, num_cores=4)
        results = run(workload, 4, interval=100)
        for value in results.timeseries.active_cores_over_time():
            assert 0.0 <= value <= 4.0

    def test_to_dict_shape(self):
        workload = scalar_matmul(size=6, num_cores=2)
        results = run(workload, 2, interval=100)
        data = results.timeseries.to_dict()
        intervals = len(results.timeseries.intervals())
        assert data["sample_interval"] == 100
        assert len(data["ipc"]) == intervals
        assert len(data["interval_end_cycles"]) == intervals
        for series in data["counters"].values():
            assert len(series) == intervals

    def test_disabled_by_default(self):
        workload = scalar_matmul(size=6, num_cores=2)
        config = SimulationConfig.for_cores(2)
        results = Simulation(config, workload.program).run()
        assert results.timeseries is None
        assert results.latency is None
        assert results.host_profile is None

    def test_collectors_do_not_change_the_simulation(self):
        """Cycles and every counter are bit-identical with the sampler,
        histograms and host profiler on (moved here from the deleted
        ``benchmarks/test_telemetry_overhead.py``)."""
        def simulate(telemetry):
            config = SimulationConfig.for_cores(4, telemetry=telemetry)
            return Simulation(
                config, scalar_matmul(size=12, num_cores=4).program).run()

        plain = simulate(TelemetryConfig())
        instrumented = simulate(TelemetryConfig(
            sample_interval=256, histograms=True, host_profile=True))
        assert instrumented.timeseries is not None
        assert (instrumented.cycles, instrumented.instructions) \
            == (plain.cycles, plain.instructions)
        assert {s.full_name: s.value for s in instrumented.hierarchy_samples} \
            == {s.full_name: s.value for s in plain.hierarchy_samples}
