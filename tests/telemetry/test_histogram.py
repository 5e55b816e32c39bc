"""Tests for log2-bucketed latency histograms."""

import pytest

from repro.api import Simulation, SimulationConfig, TelemetryConfig
from repro.kernels import scalar_spmv
from repro.memhier.request import MemRequest, RequestKind
from repro.telemetry.histogram import LatencyHistogram, \
    RequestLatencyRecorder


class TestLatencyHistogram:
    def test_bucket_bounds(self):
        assert LatencyHistogram.bucket_bounds(0) == (0, 0)
        assert LatencyHistogram.bucket_bounds(1) == (1, 1)
        assert LatencyHistogram.bucket_bounds(2) == (2, 3)
        assert LatencyHistogram.bucket_bounds(5) == (16, 31)

    def test_record_places_values_in_their_bucket(self):
        histogram = LatencyHistogram("x")
        for value in (0, 1, 2, 3, 16, 31):
            histogram.record(value)
        assert histogram.buckets[0] == 1
        assert histogram.buckets[1] == 1
        assert histogram.buckets[2] == 2
        assert histogram.buckets[5] == 2
        assert histogram.count == 6

    def test_every_value_falls_inside_its_bucket_bounds(self):
        for value in range(0, 300):
            index = value.bit_length()
            low, high = LatencyHistogram.bucket_bounds(index)
            assert low <= value <= high

    def test_summary_stats(self):
        histogram = LatencyHistogram("x")
        for value in (10, 20, 30):
            histogram.record(value)
        assert histogram.mean == pytest.approx(20.0)
        assert histogram.min == 10
        assert histogram.max == 30
        assert histogram.total == 60

    def test_percentile_clamped_to_observed_max(self):
        histogram = LatencyHistogram("x")
        histogram.record(100)
        assert histogram.percentile(0.5) == 100
        assert histogram.percentile(0.99) == 100

    def test_percentile_of_empty(self):
        assert LatencyHistogram("x").percentile(0.5) == 0

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            LatencyHistogram("x").percentile(1.5)

    def test_negative_latency_clamped(self):
        histogram = LatencyHistogram("x")
        histogram.record(-5)
        assert histogram.buckets[0] == 1
        assert histogram.min == 0

    def test_to_dict_skips_empty_buckets(self):
        histogram = LatencyHistogram("x")
        histogram.record(1)
        histogram.record(64)
        data = histogram.to_dict()
        assert data["count"] == 2
        assert len(data["buckets"]) == 2
        assert all(bucket["count"] for bucket in data["buckets"])


def make_request(kind=RequestKind.LOAD, *, issue=10, complete=150,
                 bank_id=3, mc_id=1, l2_hit=False):
    request = MemRequest(request_id=1, core_id=0, tile_id=0,
                         line_address=0x1000, kind=kind, issue_cycle=issue)
    request.bank_id = bank_id
    request.mc_id = mc_id
    request.l2_hit = l2_hit
    request.complete_cycle = complete
    return request


class TestRequestLatencyRecorder:
    def test_keys_for_memory_roundtrip(self):
        recorder = RequestLatencyRecorder()
        recorder.observe_request(make_request())
        assert set(recorder.histograms) == {
            "kind.load", "memory_roundtrip", "bank.bank3", "mc.mc1"}

    def test_keys_for_l2_hit(self):
        recorder = RequestLatencyRecorder()
        recorder.observe_request(
            make_request(l2_hit=True, mc_id=-1, complete=30))
        assert set(recorder.histograms) == {
            "kind.load", "l2_hit", "bank.bank3"}
        assert recorder.histograms["l2_hit"].max == 20

    def test_noc_observations(self):
        recorder = RequestLatencyRecorder()
        recorder.observe_noc(6)
        recorder.observe_noc(8)
        assert recorder.histograms["noc"].count == 2

    def test_format_report_lists_all_keys(self):
        recorder = RequestLatencyRecorder()
        recorder.observe_request(make_request())
        recorder.observe_noc(6)
        report = recorder.format_report()
        for key in ("kind.load", "noc", "bank.bank3"):
            assert key in report

    def test_empty_report(self):
        assert "no latency samples" in \
            RequestLatencyRecorder().format_report()


class TestEndToEnd:
    def test_histograms_from_a_run(self):
        config = SimulationConfig.for_cores(
            4, telemetry=TelemetryConfig(histograms=True))
        workload = scalar_spmv(num_rows=32, nnz_per_row=4, num_cores=4)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        histograms = results.latency.histograms
        # Every completed request landed in exactly one kind histogram.
        completed = results.hierarchy_value("memhier.requests_completed")
        kind_total = sum(h.count for key, h in histograms.items()
                         if key.startswith("kind."))
        assert kind_total == int(completed)
        # ... and in exactly one of the hit/roundtrip split.
        split_total = (histograms["l2_hit"].count
                       if "l2_hit" in histograms else 0) \
            + (histograms["memory_roundtrip"].count
               if "memory_roundtrip" in histograms else 0)
        assert split_total == int(completed)
        # NoC traversals match the NoC message counter.
        assert histograms["noc"].count \
            == int(results.hierarchy_value("memhier.noc.messages"))

    def test_l2_hits_faster_than_memory(self):
        config = SimulationConfig.for_cores(
            2, telemetry=TelemetryConfig(histograms=True))
        workload = scalar_spmv(num_rows=24, nnz_per_row=4, num_cores=2)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        histograms = results.latency.histograms
        if "l2_hit" in histograms and "memory_roundtrip" in histograms:
            assert histograms["l2_hit"].mean \
                < histograms["memory_roundtrip"].mean
