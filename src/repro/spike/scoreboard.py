"""RAW-dependency scoreboard for pending L1 misses.

The orchestration model from the paper: when an instruction's L1 miss is
outstanding, the registers it writes are *unavailable*.  A younger
instruction that reads (or overwrites) one of those registers marks the
core inactive until the miss is serviced.  The scoreboard tracks, per
core, the set of busy registers and the mapping from in-flight miss ids
to the registers they will release.
"""

from __future__ import annotations

from dataclasses import dataclass

RegRef = tuple[str, int]  # ("x" | "f" | "v", index)


@dataclass
class PendingMiss:
    """One outstanding L1 miss and the registers it will release."""

    miss_id: int
    core_id: int
    registers: frozenset[RegRef]


class Scoreboard:
    """Tracks busy registers per core for RAW-dependency stalls."""

    def __init__(self, num_cores: int):
        self._busy: list[dict[RegRef, int]] = [dict()
                                               for _ in range(num_cores)]
        self._pending: dict[int, PendingMiss] = {}
        self._next_id = 0

    # -- registration -------------------------------------------------------

    def register_miss(self, core_id: int,
                      registers: tuple[RegRef, ...]) -> int:
        """Record an in-flight miss; returns its miss id.

        ``registers`` may be empty (store misses, writebacks, fetch misses)
        — the miss id is still allocated so completions can be correlated.
        """
        miss_id = self._next_id
        self._next_id += 1
        reg_set = frozenset(registers)
        self._pending[miss_id] = PendingMiss(miss_id, core_id, reg_set)
        busy = self._busy[core_id]
        for reg in reg_set:
            busy[reg] = busy.get(reg, 0) + 1
        return miss_id

    def complete_miss(self, miss_id: int) -> int:
        """Mark a miss serviced, releasing its registers; returns core id."""
        pending = self._pending.pop(miss_id)
        busy = self._busy[pending.core_id]
        for reg in pending.registers:
            count = busy[reg] - 1
            if count:
                busy[reg] = count
            else:
                del busy[reg]
        return pending.core_id

    # -- queries ------------------------------------------------------------

    def blocks(self, core_id: int, registers: tuple[RegRef, ...]) -> bool:
        """True when any of ``registers`` is produced by a pending miss."""
        busy = self._busy[core_id]
        return bool(busy) and not busy.keys().isdisjoint(registers)

    def busy_map(self, core_id: int) -> dict[RegRef, int]:
        """The live busy-register map of one core.

        The returned dict is the scoreboard's own (mutated in place as
        misses register and complete), so a caller may hoist it once and
        test ``if busy_map`` per cycle: when it is empty no RAW check can
        block, letting the orchestrator skip the pre-step decode.
        """
        return self._busy[core_id]

    def busy_registers(self, core_id: int) -> frozenset[RegRef]:
        """The currently unavailable registers of one core."""
        return frozenset(self._busy[core_id])

    def pending(self) -> list[PendingMiss]:
        """Every outstanding miss, ordered by miss id (diagnostics)."""
        return [self._pending[miss_id]
                for miss_id in sorted(self._pending)]

    def outstanding(self, core_id: int | None = None) -> int:
        """Number of outstanding misses (for one core, or in total)."""
        if core_id is None:
            return len(self._pending)
        return sum(1 for miss in self._pending.values()
                   if miss.core_id == core_id)
