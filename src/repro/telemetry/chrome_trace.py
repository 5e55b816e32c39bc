"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Complements the Paraver writer with the other trace format HPC people
reach for: the builder records core activity spans (executing /
raw-stall / fetch-stall) as complete ``"X"`` events and request
lifetimes as async ``"b"``/``"e"`` pairs, then writes the standard
``{"traceEvents": [...]}`` JSON object.  One simulated cycle maps to one
microsecond of trace time (the unit the viewers assume for ``ts``).

A trace grows with the run, so the builder keeps each core span,
counter sample and request as one flat tuple record (a request's
begin/end pair is one record) and renders the trace-event dicts only
while writing, a bounded batch at a time.  The few metadata, ``halt``
and resilience ``instant`` events are kept as the dicts they render to.

Format reference: the Trace Event Format document (the subset emitted
here — M/X/C/b/e/i phases — loads in both Perfetto and chrome://tracing).
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

from repro.memhier.request import MemRequest

CORE_PID = 1       # process grouping all core activity tracks
REQUEST_PID = 2    # process grouping request-lifetime tracks

EXECUTING = "executing"
RAW_STALL = "raw-stall"
FETCH_STALL = "fetch-stall"

NOC_TRACK = "noc-in-flight"

# Record tags: the first field of each tuple record.
_SPAN, _REQUEST, _COUNTER, _NOC = range(4)

# Events rendered and encoded at a time; bounds write()'s transient memory.
_WRITE_BATCH = 128
# The rendered events are fresh, acyclic dicts: skip the circularity check.
_encode = json.JSONEncoder(check_circular=False).encode

_TRAILER = {"displayTimeUnit": "ms",
            "otherData": {"tool": "coyote-repro",
                          "time_unit": "1 ts = 1 simulated cycle"}}


class ChromeTraceBuilder:
    """Collects trace events during a run; writes them as JSON."""

    def __init__(self, num_cores: int):
        self.num_cores = num_cores
        self._records: list[tuple | dict] = []
        # A counter track's key tuple, shared by all of its samples.
        self._counter_keys: dict[tuple, tuple] = {}
        # Per-core open span: (state name, start cycle).
        self._open: list[tuple[str, int] | None] = \
            [(EXECUTING, 0) for _ in range(num_cores)]
        for core_id in range(num_cores):
            self._metadata("thread_name", CORE_PID, core_id,
                           f"core {core_id}")
            self._metadata("thread_name", REQUEST_PID, core_id,
                           f"core {core_id} requests")
        self._metadata("process_name", CORE_PID, 0, "coyote cores")
        self._metadata("process_name", REQUEST_PID, 0,
                       "coyote memory requests")

    def _metadata(self, name: str, pid: int, tid: int, label: str) -> None:
        self._records.append({"ph": "M", "name": name, "pid": pid,
                              "tid": tid, "args": {"name": label}})

    # -- core activity spans ------------------------------------------------

    def set_state(self, core_id: int, state: str, cycle: int) -> None:
        """Transition one core's activity track to ``state``."""
        open_span = self._open[core_id]
        if open_span is not None:
            previous, start = open_span
            if previous == state:
                return
            self._emit_span(core_id, previous, start, cycle)
        self._open[core_id] = (state, cycle)

    def halt(self, core_id: int, cycle: int) -> None:
        """Close the core's track and drop a halt marker."""
        open_span = self._open[core_id]
        if open_span is not None:
            state, start = open_span
            self._emit_span(core_id, state, start, cycle)
            self._open[core_id] = None
        self._records.append({"ph": "i", "name": "halt", "pid": CORE_PID,
                              "tid": core_id, "ts": cycle, "s": "t"})

    def counter(self, name: str, cycle: int, values: dict,
                tid: int = 0) -> None:
        """Emit one sample on a counter track (``"C"`` phase); viewers
        render consecutive samples of the same name as stacked area
        series (used for the guest profiler's stall-class tracks)."""
        keys = tuple(values)
        keys = self._counter_keys.setdefault(keys, keys)
        self._records.append((_COUNTER, sys.intern(name), cycle, tid, keys,
                              tuple(values.values())))

    def observe_noc_occupancy(self, cycle: int, in_flight: int) -> None:
        """One sample on the NoC in-flight-messages counter track (a
        bound method, so a NoC holding it stays picklable)."""
        self._records.append((_NOC, cycle, in_flight))

    def instant(self, name: str, cycle: int,
                args: dict | None = None) -> None:
        """Drop a global instant marker (fault injections, watchdog
        trips) onto the trace timeline."""
        event = {"ph": "i", "name": name, "cat": "resilience",
                 "pid": CORE_PID, "tid": 0, "ts": cycle, "s": "g"}
        if args:
            event["args"] = args
        self._records.append(event)

    def _emit_span(self, core_id: int, state: str, start: int,
                   end: int) -> None:
        if end <= start:
            return  # zero-length transition (stall retried same cycle)
        self._records.append((_SPAN, state, core_id, start, end))

    # -- request lifetimes --------------------------------------------------

    def observe_request(self, request: MemRequest) -> None:
        """Record one completed request (an async begin/end pair)."""
        self._records.append((
            _REQUEST, request.kind.value, request.core_id,
            request.request_id, request.issue_cycle, request.complete_cycle,
            request.line_address, request.bank_id, request.mc_id,
            request.l2_hit))

    # -- output -------------------------------------------------------------

    def finalize(self, end_cycle: int) -> None:
        """Close any still-open core spans at the end of the run."""
        for core_id, open_span in enumerate(self._open):
            if open_span is not None:
                state, start = open_span
                self._emit_span(core_id, state, start, end_cycle)
                self._open[core_id] = None

    @property
    def events(self) -> tuple[dict, ...]:
        """The trace events recorded so far, rendered, in order."""
        return tuple(self._render())

    def write(self, path: str | Path) -> Path:
        """Write the trace-event JSON file, encoding a batch at a time."""
        path = Path(path)
        events = self._render()
        with open(path, "w") as handle:
            handle.write('{"traceEvents": [')
            separator = ""
            while batch := list(islice(events, _WRITE_BATCH)):
                handle.write(separator)
                handle.write(_encode(batch)[1:-1])
                separator = ", "
            handle.write("], " + json.dumps(_TRAILER)[1:] + "\n")
        return path

    def _render(self) -> Iterator[dict]:
        """Each record as the trace-event dict(s) it stands for."""
        for record in self._records:
            if type(record) is dict:
                yield record
                continue
            tag = record[0]
            if tag == _NOC:
                yield {"ph": "C", "name": NOC_TRACK, "pid": CORE_PID,
                       "tid": 0, "ts": record[1],
                       "args": {"messages": record[2]}}
            elif tag == _SPAN:
                _tag, state, core_id, start, end = record
                yield {"ph": "X", "name": state, "cat": "core",
                       "pid": CORE_PID, "tid": core_id, "ts": start,
                       "dur": end - start}
            elif tag == _REQUEST:
                (_tag, name, core_id, request_id, issue, complete,
                 line_address, bank, mc, l2_hit) = record
                common = {"cat": "request", "name": name,
                          "pid": REQUEST_PID, "tid": core_id,
                          "id": request_id}
                yield {**common, "ph": "b", "ts": issue, "args": {
                    "line_address": f"{line_address:#x}", "bank": bank,
                    "mc": mc, "l2_hit": l2_hit,
                    "latency": complete - issue}}
                yield {**common, "ph": "e", "ts": complete}
            else:
                _tag, name, cycle, tid, keys, values = record
                yield {"ph": "C", "name": name, "pid": CORE_PID,
                       "tid": tid, "ts": cycle,
                       "args": dict(zip(keys, values))}
