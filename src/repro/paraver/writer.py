"""Paraver ``.prv`` / ``.pcf`` trace writing.

Emits a single-node, one-application trace where each simulated core is
one thread.  Every serviced L1 miss becomes one event record at its
completion time carrying kind, bank, latency, line and L2 outcome.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

from repro.paraver.records import (
    EVENT_BANK,
    EVENT_L2_OUTCOME,
    EVENT_LABELS,
    EVENT_LATENCY,
    EVENT_LINE,
    EVENT_MISS_KIND,
    PRV_RECORD_EVENT,
    MissRecord,
)

_HEADER_DATE = "01/01/2021 at 00:00"

# Event lines formatted per write; bounds write_prv()'s transient memory.
_WRITE_BATCH = 4096


def write_prv(path: str | Path, records: list[MissRecord],
              num_cores: int, duration: int) -> Path:
    """Write records to a ``.prv`` file; returns the path written."""
    path = Path(path)
    if path.suffix != ".prv":
        path = path.with_suffix(".prv")
    ordered = iter(sorted(records,
                          key=lambda record: (record.complete_cycle,
                                              record.core_id)))
    with open(path, "w") as handle:
        handle.write(_prv_header(num_cores, duration) + "\n")
        while batch := list(islice(ordered, _WRITE_BATCH)):
            handle.write("\n".join(map(_prv_event_line, batch)) + "\n")
    return path


def write_pcf(path: str | Path) -> Path:
    """Write the companion ``.pcf`` event-label file."""
    path = Path(path)
    if path.suffix != ".pcf":
        path = path.with_suffix(".pcf")
    sections = []
    for event_type, (label, values) in sorted(EVENT_LABELS.items()):
        block = ["EVENT_TYPE", f"0\t{event_type}\t{label}"]
        if values:
            block.append("VALUES")
            for value, value_label in sorted(values.items()):
                block.append(f"{value}\t{value_label}")
        sections.append("\n".join(block))
    path.write_text("\n\n".join(sections) + "\n")
    return path


def write_row(path: str | Path, num_cores: int) -> Path:
    """Write the ``.row`` names file (one label per core/thread)."""
    path = Path(path)
    if path.suffix != ".row":
        path = path.with_suffix(".row")
    lines = [f"LEVEL CPU SIZE {num_cores}"]
    lines += [f"core {index}" for index in range(num_cores)]
    lines.append(f"LEVEL THREAD SIZE {num_cores}")
    lines += [f"THREAD 1.1.{index + 1}" for index in range(num_cores)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trace(basepath: str | Path, records: list[MissRecord],
                num_cores: int, duration: int) -> tuple[Path, Path]:
    """Write the ``.prv``/``.pcf``/``.row`` triple; returns the first
    two paths (the ``.row`` sits beside them)."""
    base = Path(basepath)
    prv = write_prv(base.with_suffix(".prv"), records, num_cores, duration)
    pcf = write_pcf(base.with_suffix(".pcf"))
    write_row(base.with_suffix(".row"), num_cores)
    return prv, pcf


def _prv_header(num_cores: int, duration: int) -> str:
    # #Paraver (date):duration:nodes(cpus):apps:app_list
    return (f"#Paraver ({_HEADER_DATE}):{duration}:1({num_cores}):1:"
            f"1({num_cores}:1)")


def _prv_event_line(record: MissRecord) -> str:
    # 2:cpu:appl:task:thread:time:type:value[:type:value]...
    cpu = record.core_id + 1
    fields = [
        str(PRV_RECORD_EVENT), str(cpu), "1", "1", str(cpu),
        str(record.complete_cycle),
        str(EVENT_MISS_KIND), str(int(record.kind)),
        str(EVENT_BANK), str(record.bank_id + 1),
        str(EVENT_LATENCY), str(record.latency),
        str(EVENT_LINE), str(record.line_address >> 6),
        str(EVENT_L2_OUTCOME), str(1 if record.l2_hit else 0),
    ]
    return ":".join(fields)
