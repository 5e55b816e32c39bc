"""Record types and event encodings for the Paraver trace format.

The paper: "Simulation outputs ... a trace of L1 misses.  This trace can
be analyzed using the Paraver Visualization Tools".  We emit the same
textual ``.prv`` event-record format (plus the ``.pcf`` label file), one
event group per serviced L1 miss.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

PRV_RECORD_EVENT = 2

# Paraver user-event type codes for Coyote miss traces.
EVENT_MISS_KIND = 42_000_001
EVENT_BANK = 42_000_002
EVENT_LATENCY = 42_000_003
EVENT_LINE = 42_000_004
EVENT_L2_OUTCOME = 42_000_005


class MissKind(enum.IntEnum):
    """Value encoding for :data:`EVENT_MISS_KIND`."""

    LOAD = 1
    STORE = 2
    IFETCH = 3


class L2Outcome(enum.IntEnum):
    """Value encoding for :data:`EVENT_L2_OUTCOME`."""

    MISS = 0
    HIT = 1


@dataclass
class MissRecord:
    """One serviced L1 miss, as recorded in a trace."""

    core_id: int
    issue_cycle: int
    complete_cycle: int
    line_address: int
    kind: MissKind
    bank_id: int
    l2_hit: bool

    @property
    def latency(self) -> int:
        return self.complete_cycle - self.issue_cycle


EVENT_LABELS = {
    EVENT_MISS_KIND: ("Coyote L1 miss kind",
                      {int(kind): kind.name for kind in MissKind}),
    EVENT_BANK: ("Coyote L2 bank", {}),
    EVENT_LATENCY: ("Coyote miss latency (cycles)", {}),
    EVENT_LINE: ("Coyote line address (cache-line units)", {}),
    EVENT_L2_OUTCOME: ("Coyote L2 outcome",
                       {int(outcome): outcome.name
                        for outcome in L2Outcome}),
}
