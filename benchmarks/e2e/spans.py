"""In-memory spans around the calls into each layer.

A span is ``id, name, start, end, parent, op_id``: ``parent`` is the id
of the span that caused it and all spans of one operation share
``op_id``.  Spans are kept in memory and written once, as Chrome
trace-event JSON, when the benchmark ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover —
children may overlap each other, so the covered part is the length of
the union of their intervals, clipped to the parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class SpanRecorder:
    """Records the spans of one operation at a time."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op_id = 0

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter(), "end": None,
                  "op_id": self._op_id,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()


@contextmanager
def maybe_span(recorder: SpanRecorder | None, name: str):
    """``recorder.span(name)``, or nothing at all when untraced."""
    if recorder is None:
        yield None
    else:
        with recorder.span(name) as record:
            yield record


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span, in input order.

    Any subset of a recorder's spans may be passed: a child whose
    parent is not among them is simply not subtracted from anything.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = []
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start = max(start, reach)
            end = min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result.append(span["end"] - span["start"] - covered)
    return result


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Total self seconds per span name."""
    totals: dict[str, float] = {}
    for span, seconds in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals


def write_chrome_trace(path: Path, spans_by_workload: dict[str, list[dict]]
                       ) -> Path:
    """Write every workload's spans as one Chrome trace-event file.

    One process row per workload; ``args`` carries ``op_id`` and the
    parent span's name, so the spans of one operation can be selected
    together in Perfetto / ``chrome://tracing``.
    """
    events = []
    for pid, (workload, spans) in enumerate(spans_by_workload.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
        origin = min((span["start"] for span in spans), default=0.0)
        names = {span["id"]: span["name"] for span in spans}
        for span in spans:
            events.append({
                "name": span["name"], "ph": "X", "pid": pid, "tid": 0,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"op_id": span["op_id"],
                         "parent": names.get(span["parent"])}})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
    return path
