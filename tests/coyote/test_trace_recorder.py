"""Tests for the miss-trace recorder and its Paraver output."""

from pathlib import Path

from repro.api import Simulation, SimulationConfig
from repro.coyote.trace import MissTraceRecorder
from repro.kernels import scalar_spmv
from repro.memhier.request import MemRequest, RequestKind
from repro.paraver import MissKind, parse_prv


def make_request(kind, request_id=1, complete=150):
    request = MemRequest(request_id=request_id, core_id=2, tile_id=0,
                         line_address=0x1000, kind=kind, issue_cycle=10)
    request.bank_id = 3
    request.l2_hit = False
    request.complete_cycle = complete
    return request


class TestRecorder:
    def test_records_loads_stores_ifetches(self):
        recorder = MissTraceRecorder()
        for kind in (RequestKind.LOAD, RequestKind.STORE,
                     RequestKind.IFETCH):
            recorder(make_request(kind))
        assert len(recorder) == 3
        kinds = {record.kind for record in recorder.records}
        assert kinds == {MissKind.LOAD, MissKind.STORE, MissKind.IFETCH}

    def test_ignores_writebacks(self):
        recorder = MissTraceRecorder()
        recorder(make_request(RequestKind.WRITEBACK))
        assert len(recorder) == 0

    def test_skips_unknown_request_kinds(self):
        """Kinds outside the miss-kind map are dropped, not crashed on."""
        recorder = MissTraceRecorder()
        request = make_request(RequestKind.LOAD)
        request.kind = "not-a-kind"
        recorder(request)
        assert len(recorder) == 0

    def test_record_fields(self):
        recorder = MissTraceRecorder()
        recorder(make_request(RequestKind.LOAD))
        record = recorder.records[0]
        assert record.core_id == 2
        assert record.bank_id == 3
        assert record.latency == 140
        assert record.l2_hit is False

    def test_record_carries_l2_hit_flag(self):
        recorder = MissTraceRecorder()
        request = make_request(RequestKind.LOAD, complete=40)
        request.l2_hit = True
        recorder(request)
        assert recorder.records[0].l2_hit is True

    def test_record_carries_bank_id_per_request(self):
        recorder = MissTraceRecorder()
        for bank_id in (0, 5, 11):
            request = make_request(RequestKind.LOAD)
            request.bank_id = bank_id
            recorder(request)
        assert [record.bank_id for record in recorder.records] \
            == [0, 5, 11]

    def test_write_produces_parseable_triple(self, tmp_path):
        recorder = MissTraceRecorder()
        recorder(make_request(RequestKind.LOAD))
        prv, pcf = recorder.write(tmp_path / "t", num_cores=4,
                                  duration=200)
        assert Path(prv).exists() and Path(pcf).exists()
        assert (tmp_path / "t.row").exists()
        records, duration, cores = parse_prv(prv)
        assert len(records) == 1 and cores == 4 and duration == 200


class TestTraceAgainstStats:
    def test_trace_count_matches_hierarchy_counters(self):
        """Recorded misses == completed response-needing requests."""
        config = SimulationConfig.for_cores(4, trace_misses=True)
        workload = scalar_spmv(num_rows=32, nnz_per_row=4, num_cores=4)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        completed = results.hierarchy_value(
            "memhier.requests_completed")
        assert len(simulation.trace.records) == int(completed)

    def test_trace_latencies_positive(self):
        config = SimulationConfig.for_cores(2, trace_misses=True)
        workload = scalar_spmv(num_rows=16, nnz_per_row=4, num_cores=2)
        simulation = Simulation(config, workload.program)
        simulation.run()
        assert all(record.latency > 0
                   for record in simulation.trace.records)

    def test_l2_hit_flags_consistent_with_bank_stats(self):
        config = SimulationConfig.for_cores(2, trace_misses=True)
        workload = scalar_spmv(num_rows=16, nnz_per_row=4, num_cores=2)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        traced_hits = sum(1 for record in simulation.trace.records
                          if record.l2_hit)
        bank_hits = sum(
            sample.value for sample in results.hierarchy_samples
            if sample.name == "hits" and ".bank" in sample.path)
        assert traced_hits == int(bank_hits)
