"""Cycle-interval sampling of simulation counters.

The :class:`IntervalSampler` snapshots a flat ``name -> value`` view of
every counter each N cycles and exposes the run as a time series of
per-interval deltas.  Because each interval is the difference of two
snapshots and the final snapshot is taken after the drain, the deltas of
any counter telescope exactly to its end-of-run value — the consistency
guarantee the telemetry tests assert.

Samples are taken at the first opportunity at or after each interval
boundary (the orchestrator may fast-forward over fully-stalled regions),
so intervals record their actual ``[start, end)`` cycle range rather
than assuming a fixed width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

_ACTIVITY_PREFIX = "activity."


@dataclass
class Snapshot:
    """One point-in-time capture of every sampled counter."""

    cycle: int
    counters: dict[str, float]


@dataclass
class Interval:
    """The change between two consecutive snapshots."""

    start_cycle: int
    end_cycle: int
    deltas: dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def delta(self, name: str) -> float:
        """Change of one counter over this interval (0 when absent)."""
        return self.deltas.get(name, 0.0)

    @property
    def instructions(self) -> float:
        return self.delta("cores.instructions")

    @property
    def ipc(self) -> float:
        """Aggregate IPC within this interval."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1d_miss_rate(self) -> float:
        accesses = self.delta("cores.l1d_accesses")
        return self.delta("cores.l1d_misses") / accesses if accesses else 0.0

    @property
    def active_cores(self) -> float:
        """Mean number of cores issuing per cycle within this interval."""
        total = weighted = 0.0
        for name, value in self.deltas.items():
            if name.startswith(_ACTIVITY_PREFIX):
                count = int(name[len(_ACTIVITY_PREFIX):])
                total += value
                weighted += count * value
        return weighted / total if total else 0.0


class IntervalSampler:
    """Snapshots counters every ``interval`` cycles; serves the series.

    ``collect`` returns the current flat ``name -> value`` mapping; the
    orchestrator composes it from the hierarchy's counter tree plus
    per-core functional state.
    """

    def __init__(self, interval: int,
                 collect: Callable[[], dict[str, float]]):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        self._collect = collect
        self.snapshots: list[Snapshot] = []
        self._next_cycle = interval
        self._intervals: list[Interval] | None = None

    # -- recording (orchestrator-facing) ----------------------------------

    def start(self, cycle: int = 0) -> None:
        """Take the baseline snapshot (normally at cycle 0)."""
        self._sample(cycle)
        self._next_cycle = cycle + self.interval

    @property
    def due(self) -> int:
        """The first cycle at which :meth:`maybe_sample` samples."""
        return self._next_cycle

    def maybe_sample(self, cycle: int) -> bool:
        """Sample when ``cycle`` has reached the next interval boundary."""
        if cycle < self._next_cycle:
            return False
        self._sample(cycle)
        # Skip boundaries the fast-forward jumped over; realign to the
        # grid so sampling stays periodic.
        self._next_cycle = cycle - cycle % self.interval + self.interval
        return True

    def finalize(self, cycle: int) -> None:
        """Take the closing snapshot so deltas sum to the final counters."""
        if not self.snapshots:
            self.start(0)
        last = self.snapshots[-1]
        if last.cycle < cycle:
            self._sample(cycle)
        elif len(self.snapshots) > 1:
            # A periodic sample already landed on the final cycle, but
            # the drain may have fired events since: re-capture it.
            self.snapshots[-1] = Snapshot(cycle, dict(self._collect()))
            self._intervals = None
        else:
            # Degenerate zero-length run: close with one empty interval.
            self._sample(cycle)

    def _sample(self, cycle: int) -> None:
        self.snapshots.append(Snapshot(cycle, dict(self._collect())))
        self._intervals = None

    # -- the series (results-facing) ---------------------------------------

    def intervals(self) -> list[Interval]:
        """Per-interval deltas between consecutive snapshots."""
        if self._intervals is None:
            result = []
            for before, after in zip(self.snapshots, self.snapshots[1:]):
                deltas = {
                    name: value - before.counters.get(name, 0.0)
                    for name, value in after.counters.items()}
                result.append(Interval(before.cycle, after.cycle, deltas))
            self._intervals = result
        return self._intervals

    def counter_names(self) -> list[str]:
        """Every counter name seen in any snapshot, sorted."""
        names: set[str] = set()
        for snapshot in self.snapshots:
            names.update(snapshot.counters)
        return sorted(names)

    def series(self, name: str) -> list[float]:
        """Per-interval deltas of one counter."""
        return [interval.delta(name) for interval in self.intervals()]

    def ipc_over_time(self) -> list[float]:
        return [interval.ipc for interval in self.intervals()]

    def l1d_miss_rate_over_time(self) -> list[float]:
        return [interval.l1d_miss_rate for interval in self.intervals()]

    def active_cores_over_time(self) -> list[float]:
        return [interval.active_cores for interval in self.intervals()]

    def bank_utilisation_over_time(self) -> dict[str, list[float]]:
        """Per-bank request deltas per interval, keyed by bank name."""
        result: dict[str, list[float]] = {}
        for name in self.counter_names():
            if name.endswith(".requests") and ".bank" in name:
                bank = name.rsplit(".", 2)[-2]
                result[bank] = self.series(name)
        return result

    def total_delta(self, name: str) -> float:
        """Sum of all interval deltas of one counter (== final value)."""
        return sum(self.series(name))

    def to_dict(self) -> dict:
        """JSON-serialisable view of the sampled time series."""
        intervals = self.intervals()
        return {
            "sample_interval": self.interval,
            "interval_end_cycles": [i.end_cycle for i in intervals],
            "interval_cycles": [i.cycles for i in intervals],
            "ipc": self.ipc_over_time(),
            "l1d_miss_rate": self.l1d_miss_rate_over_time(),
            "active_cores": self.active_cores_over_time(),
            "counters": {name: self.series(name)
                         for name in self.counter_names()},
        }
