"""Host-side profiling: where does the wall time of a simulation go?

The orchestrator's loop alternates between stepping the functional cores
(Spike), advancing the event-driven hierarchy (Sparta) and, at the end,
collecting statistics.  :class:`HostProfiler` accumulates wall seconds
per section (the orchestrator adds directly to the public attributes to
avoid call overhead on the hot path) and can emit a progress heartbeat
through the ``repro.telemetry`` logger: simulated cycles/sec, scheduler
events/sec and host MIPS since the previous beat.

It keeps no clock of its own.  The one wall clock is the run's: its
``run`` segments summed (``Orchestrator._wall``), so a checkpoint's time
on disk counts for nothing.  The orchestrator hands that reading in —
``wall_seconds`` when the run ends, and with every heartbeat.
"""

from __future__ import annotations

import logging

logger = logging.getLogger("repro.telemetry")


class HostProfiler:
    """Wall-time breakdown and progress heartbeat for one run."""

    def __init__(self, progress_cycles: int = 65536):
        self.spike_seconds = 0.0
        self.sparta_seconds = 0.0
        self.stats_seconds = 0.0
        self.wall_seconds = 0.0
        self.progress_cycles = progress_cycles
        self._next_beat_cycle = progress_cycles
        self._last_beat = (0.0, 0, 0, 0)  # wall, cyc, inst, ev

    # -- wall-time breakdown ------------------------------------------------

    @property
    def other_seconds(self) -> float:
        """Wall time not attributed to a measured section."""
        measured = (self.spike_seconds + self.sparta_seconds
                    + self.stats_seconds)
        return max(0.0, self.wall_seconds - measured)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "spike_seconds": self.spike_seconds,
            "sparta_seconds": self.sparta_seconds,
            "stats_seconds": self.stats_seconds,
            "other_seconds": self.other_seconds,
        }

    def format_report(self) -> str:
        """Aligned breakdown with percentages of total wall time."""
        data = self.to_dict()
        total = data["wall_seconds"] or 1.0
        lines = ["host wall-time breakdown:"]
        for key in ("spike_seconds", "sparta_seconds", "stats_seconds",
                    "other_seconds"):
            label = key.removesuffix("_seconds")
            lines.append(f"  {label:<8}: {data[key]:8.3f} s "
                         f"({data[key] / total:6.1%})")
        lines.append(f"  {'total':<8}: {data['wall_seconds']:8.3f} s")
        return "\n".join(lines)

    # -- progress heartbeat -------------------------------------------------

    @property
    def due(self) -> int:
        """The first cycle at which :meth:`maybe_heartbeat` beats."""
        return self._next_beat_cycle

    def restart(self, wall: float, cycle: int, instructions: int,
                events: int) -> None:
        """Rate the next beat from here: a run starting or resuming, so
        its first beat reports this process's rate."""
        self._last_beat = (wall, cycle, instructions, events)

    def maybe_heartbeat(self, cycle: int, instructions: int, events: int,
                        wall: float) -> bool:
        """Log a progress line when the next beat cycle has been reached;
        ``wall`` is the run's wall clock now."""
        if cycle < self._next_beat_cycle:
            return False
        self._next_beat_cycle = (cycle - cycle % self.progress_cycles
                                 + self.progress_cycles)
        last_wall, last_cycle, last_inst, last_events = self._last_beat
        self._last_beat = (wall, cycle, instructions, events)
        elapsed = wall - last_wall
        if elapsed <= 0:
            return False
        logger.info(
            "progress: cycle=%d inst=%d | %.0f cycles/s %.0f events/s "
            "%.3f MIPS",
            cycle, instructions,
            (cycle - last_cycle) / elapsed,
            (events - last_events) / elapsed,
            (instructions - last_inst) / elapsed / 1e6)
        return True
