"""Request objects flowing through the modelled memory hierarchy."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RequestKind(enum.Enum):
    """What a hierarchy request — and the L1 miss it leaves a core as
    (``repro.spike.AccessKind``) — represents."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"
    WRITEBACK = "writeback"

    @property
    def needs_response(self) -> bool:
        """Writebacks are fire-and-forget; everything else completes."""
        return self is not RequestKind.WRITEBACK


@dataclass(slots=True)
class MemRequest:
    """One L1-miss request travelling through L2 / NoC / memory.

    ``request_id`` correlates the eventual completion with the scoreboard
    entry created when the miss left the core.
    """

    request_id: int
    core_id: int
    tile_id: int
    line_address: int
    kind: RequestKind
    issue_cycle: int
    bank_id: int = -1
    mc_id: int = -1
    complete_cycle: int = -1
    l2_hit: bool | None = None
    fill_target: str = ""  # NoC endpoint the memory fill returns to
    # MCPU aggregation (extension): one NoC message standing for several
    # scoreboard entries / cache lines of a single vector instruction.
    member_ids: tuple = ()
    num_lines: int = 1
    # Resilience layer: True on the second copy of a duplicate-delivered
    # message, so receivers and diagnostics can tell it apart.
    duplicate: bool = False

    @property
    def latency(self) -> int:
        """End-to-end cycles, valid once completed."""
        if self.complete_cycle < 0:
            raise ValueError(f"request {self.request_id} not complete")
        return self.complete_cycle - self.issue_cycle
