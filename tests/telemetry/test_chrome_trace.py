"""Tests for the Chrome trace-event JSON exporter.

The end-to-end test runs a multi-core kernel and schema-checks the
emitted JSON against the trace-event format: every event carries the
required fields for its phase, complete events have durations, and
async begin/end pairs match up.
"""

import json

import pytest

from repro.api import Simulation, SimulationConfig, TelemetryConfig
from repro.coyote.simulation import SimulationError
from repro.kernels import scalar_matmul
from repro.memhier.request import MemRequest, RequestKind
from repro.telemetry.chrome_trace import ChromeTraceBuilder, EXECUTING, \
    FETCH_STALL, RAW_STALL

VALID_PHASES = {"M", "X", "b", "e", "i"}


def schema_check(document: dict) -> list[dict]:
    """Assert the trace-event JSON object form; returns the events."""
    assert isinstance(document, dict)
    assert isinstance(document["traceEvents"], list)
    open_async: dict[tuple, int] = {}
    for event in document["traceEvents"]:
        assert isinstance(event, dict)
        assert event["ph"] in VALID_PHASES
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert "args" in event
            continue
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] > 0
        if event["ph"] in ("b", "e"):
            assert "id" in event and "cat" in event
            key = (event["cat"], event["id"])
            open_async[key] = open_async.get(key, 0) \
                + (1 if event["ph"] == "b" else -1)
    assert all(count == 0 for count in open_async.values()), \
        "unbalanced async begin/end pairs"
    return document["traceEvents"]


class TestBuilderUnit:
    def test_initial_metadata(self):
        builder = ChromeTraceBuilder(2)
        names = [event["name"] for event in builder.events
                 if event["ph"] == "M"]
        assert names.count("thread_name") == 4
        assert names.count("process_name") == 2

    def test_span_emitted_on_transition(self):
        builder = ChromeTraceBuilder(1)
        builder.set_state(0, RAW_STALL, 10)
        spans = [event for event in builder.events if event["ph"] == "X"]
        assert spans == [{"ph": "X", "name": EXECUTING, "cat": "core",
                          "pid": 1, "tid": 0, "ts": 0, "dur": 10}]

    def test_same_state_transition_is_noop(self):
        builder = ChromeTraceBuilder(1)
        builder.set_state(0, EXECUTING, 10)
        assert not [e for e in builder.events if e["ph"] == "X"]

    def test_zero_length_span_skipped(self):
        builder = ChromeTraceBuilder(1)
        builder.set_state(0, RAW_STALL, 0)
        builder.set_state(0, EXECUTING, 0)
        assert not [e for e in builder.events if e["ph"] == "X"]

    def test_halt_closes_track(self):
        builder = ChromeTraceBuilder(1)
        builder.halt(0, 25)
        spans = [e for e in builder.events if e["ph"] == "X"]
        instants = [e for e in builder.events if e["ph"] == "i"]
        assert spans[0]["dur"] == 25
        assert instants[0]["name"] == "halt"
        # finalize after halt must not emit anything further.
        builder.finalize(100)
        assert len([e for e in builder.events if e["ph"] == "X"]) == 1

    def test_finalize_closes_open_spans(self):
        builder = ChromeTraceBuilder(2)
        builder.set_state(0, FETCH_STALL, 5)
        builder.finalize(20)
        spans = [e for e in builder.events if e["ph"] == "X"]
        assert {(s["name"], s["dur"]) for s in spans if s["tid"] == 0} \
            == {(EXECUTING, 5), (FETCH_STALL, 15)}
        assert {(s["name"], s["dur"]) for s in spans if s["tid"] == 1} \
            == {(EXECUTING, 20)}


def _every_kind_of_event() -> ChromeTraceBuilder:
    builder = ChromeTraceBuilder(2)
    builder.set_state(0, RAW_STALL, 300)
    builder.counter("core0 stall cycles", 300, {"raw_l2": 0, "raw_mem": 7},
                    tid=0)
    builder.observe_noc_occupancy(301, 12)
    builder.observe_request(MemRequest(
        request_id=9, core_id=1, tile_id=0, line_address=0x8000_1040,
        kind=RequestKind.LOAD, issue_cycle=280, bank_id=3, mc_id=0,
        complete_cycle=390, l2_hit=False))
    builder.instant("fault:delay", 350, {"target": "l2bank", "extra": 5})
    builder.halt(1, 400)
    builder.finalize(420)
    return builder


class TestRecords:
    def test_events_render_every_kind(self):
        events = _every_kind_of_event().events
        assert [event["ph"] for event in events[6:]] \
            == ["X", "C", "C", "b", "e", "i", "X", "i", "X"]
        counter, noc, begin, end = events[7:11]
        assert counter["args"] == {"raw_l2": 0, "raw_mem": 7}
        assert noc == {"ph": "C", "name": "noc-in-flight", "pid": 1,
                       "tid": 0, "ts": 301, "args": {"messages": 12}}
        assert begin["args"] == {"line_address": "0x80001040", "bank": 3,
                                 "mc": 0, "l2_hit": False, "latency": 110}
        assert (begin["ts"], end["ts"], end["id"]) == (280, 390, 9)

    def test_write_is_the_json_of_the_events(self, tmp_path):
        builder = _every_kind_of_event()
        path = builder.write(tmp_path / "trace.json")
        assert path.read_text() == json.dumps({
            "traceEvents": list(builder.events), "displayTimeUnit": "ms",
            "otherData": {"tool": "coyote-repro",
                          "time_unit": "1 ts = 1 simulated cycle"}}) + "\n"


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        config = SimulationConfig.for_cores(
            4, telemetry=TelemetryConfig(chrome_trace=True))
        workload = scalar_matmul(size=8, num_cores=4)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        assert results.succeeded()
        return simulation, results

    def test_written_file_passes_schema_check(self, run, tmp_path):
        simulation, _results = run
        path = simulation.write_chrome_trace(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        events = schema_check(document)
        assert events, "trace must not be empty"

    def test_every_core_has_spans_and_a_halt(self, run):
        simulation, _results = run
        events = simulation.telemetry.chrome.events
        for core_id in range(4):
            spans = [e for e in events
                     if e["ph"] == "X" and e["tid"] == core_id]
            assert spans
            halts = [e for e in events if e["ph"] == "i"
                     and e["tid"] == core_id]
            assert len(halts) == 1

    def test_span_times_bounded_by_run(self, run):
        simulation, results = run
        for event in simulation.telemetry.chrome.events:
            if event["ph"] == "X":
                assert event["ts"] + event["dur"] <= results.cycles

    def test_request_pairs_match_completed_requests(self, run):
        simulation, results = run
        events = simulation.telemetry.chrome.events
        begins = [e for e in events if e["ph"] == "b"]
        completed = results.hierarchy_value("memhier.requests_completed")
        assert len(begins) == int(completed)

    def test_stall_spans_present_for_memory_bound_run(self, run):
        simulation, _results = run
        names = {e["name"] for e in simulation.telemetry.chrome.events
                 if e["ph"] == "X"}
        assert EXECUTING in names
        assert RAW_STALL in names or FETCH_STALL in names

    def test_write_requires_enablement(self):
        config = SimulationConfig.for_cores(1)
        workload = scalar_matmul(size=4, num_cores=1)
        simulation = Simulation(config, workload.program)
        simulation.run()
        with pytest.raises(SimulationError):
            simulation.write_chrome_trace("/tmp/nope.json")

    def test_write_requires_run(self, tmp_path):
        config = SimulationConfig.for_cores(
            1, telemetry=TelemetryConfig(chrome_trace=True))
        workload = scalar_matmul(size=4, num_cores=1)
        simulation = Simulation(config, workload.program)
        with pytest.raises(SimulationError):
            simulation.write_chrome_trace(tmp_path / "trace.json")
