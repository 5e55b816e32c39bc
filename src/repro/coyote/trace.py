"""L1-miss trace recording for a Coyote run.

Hooks :attr:`MemoryHierarchy.trace_sink` and converts completed requests
into :class:`~repro.paraver.records.MissRecord` entries, which can be
analysed in-memory or written out as a Paraver trace.
"""

from __future__ import annotations

from pathlib import Path

from repro.memhier.request import MemRequest, RequestKind
from repro.paraver.records import MissKind, MissRecord
from repro.paraver.writer import write_trace


class MissTraceRecorder:
    """Collects every serviced L1 miss of a simulation."""

    def __init__(self):
        self.records: list[MissRecord] = []

    def __call__(self, request: MemRequest) -> None:
        """The hierarchy's ``trace_sink`` entry point."""
        kind = request.kind
        if kind is RequestKind.LOAD:
            kind = MissKind.LOAD
        elif kind is RequestKind.STORE:
            kind = MissKind.STORE
        elif kind is RequestKind.IFETCH:
            kind = MissKind.IFETCH
        else:
            return
        self.records.append(MissRecord(
            request.core_id, request.issue_cycle, request.complete_cycle,
            request.line_address, kind, request.bank_id,
            bool(request.l2_hit)))

    def __len__(self) -> int:
        return len(self.records)

    def write(self, basepath: str | Path, num_cores: int,
              duration: int) -> tuple[Path, Path]:
        """Write the recorded trace as ``.prv`` + ``.pcf`` files."""
        return write_trace(basepath, self.records, num_cores, duration)
