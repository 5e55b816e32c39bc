"""Forward-progress watchdog and structured deadlock diagnostics.

A hang used to surface as a bare cycle-budget ``SimulationError`` after
millions of wasted cycles.  The watchdog detects the wedge as it
happens and raises :class:`DeadlockError` carrying a full diagnostic
snapshot: per-core PC and stall state, scheduler queue depth and next
event, every bank's MSHRs and pending queues, the ages of every
in-flight request, the interconnect's congestion state (per-link
traversal counts plus live queue backlogs under the mesh/torus
contention model), and — the usual smoking gun — the scoreboard
entries whose request has physically vanished.

Two trigger conditions, checked when a window closes (``due``):

* *hard wedge* — neither an instruction retired nor a scheduler event
  fired for ``interval`` cycles: nothing can ever change again short of
  an external actor;
* *soft wedge* — events still fire but no instruction has retired for
  ``10 * interval`` cycles (a pathological feedback loop, e.g. a
  self-sustaining event storm).  The factor keeps legitimate long
  memory stalls from tripping it.

The orchestrator also raises :class:`DeadlockError` directly (with the
same snapshot) when every live core is stalled and the event queue is
empty — that situation is provably permanent and needs no window.
"""

from __future__ import annotations

from repro.coyote.errors import SimulationError
from repro.resilience import introspect

SOFT_WEDGE_FACTOR = 10


class DeadlockError(SimulationError):
    """The simulation stopped making forward progress.

    ``snapshot`` is the structured diagnostic dict from
    :func:`build_snapshot`; the stuck cores and any orphaned in-flight
    requests are named directly in the message.
    """

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


def build_snapshot(orchestrator, reason: str = "") -> dict:
    """Collect the full forward-progress diagnostic state."""
    scheduler = orchestrator.scheduler
    in_flight = introspect.in_flight_requests(orchestrator)
    snapshot = {
        "reason": reason,
        "cycle": scheduler.current_cycle,
        "scheduler": {
            "current_cycle": scheduler.current_cycle,
            "pending_events": scheduler.pending_events,
            "next_event_cycle": scheduler.next_event_cycle(),
            "events_fired": scheduler.events_fired,
        },
        "cores": introspect.core_states(orchestrator),
        "pending_misses": introspect.pending_misses(orchestrator),
        "in_flight": in_flight,
        "orphaned_misses": introspect.orphaned_misses(orchestrator,
                                                      in_flight),
        "banks": introspect.bank_states(orchestrator),
        "noc": introspect.noc_state(orchestrator),
        "memory_controllers": introspect.memctrl_states(orchestrator),
        "hierarchy_outstanding": orchestrator.hierarchy.outstanding(),
    }
    return snapshot


def deadlock_error(orchestrator, reason: str) -> DeadlockError:
    """Build a :class:`DeadlockError` naming the stuck cores and any
    orphaned requests."""
    snapshot = build_snapshot(orchestrator, reason)
    stuck = [entry["core_id"] for entry in snapshot["cores"]
             if entry["state"] not in ("active", "halted")]
    parts = [f"deadlock at cycle {snapshot['cycle']}: {reason}"]
    if stuck:
        parts.append(f"stuck cores: {stuck}")
    orphans = snapshot["orphaned_misses"]
    if orphans:
        parts.append(
            "orphaned in-flight requests (no physical message will ever "
            "complete them): "
            + ", ".join(f"miss {miss['miss_id']} of core "
                        f"{miss['core_id']}" for miss in orphans))
    return DeadlockError("; ".join(parts), snapshot)


class Watchdog:
    """Periodic forward-progress check over (cycle, retires, events)."""

    def __init__(self, interval: int, orchestrator):
        if interval < 1:
            raise ValueError(f"watchdog interval must be >= 1, "
                             f"got {interval}")
        self.interval = interval
        self.orchestrator = orchestrator
        self._last_cycle: int | None = None
        self._last_instructions = 0
        self._last_events = 0
        # Cycle of the last observed instruction retirement.
        self._last_retire_cycle: int | None = None

    @property
    def due(self) -> int:
        """The cycle at which a window next closes (0 before the first
        look); observed only then, a wedge shows within two windows."""
        if self._last_cycle is None:
            return 0
        return min(self._last_cycle + self.interval,
                   self._last_retire_cycle
                   + SOFT_WEDGE_FACTOR * self.interval)

    def observe(self, cycle: int, instructions: int,
                events_fired: int) -> None:
        """Feed one progress observation; raises on a detected wedge.

        ``instructions`` may restart from zero across checkpoint
        resumes — only deltas matter.
        """
        if self._last_cycle is None:
            self._last_cycle = cycle
            self._last_instructions = instructions
            self._last_events = events_fired
            self._last_retire_cycle = cycle
            return
        if instructions != self._last_instructions:
            self._last_retire_cycle = cycle
        retired = instructions != self._last_instructions
        fired = events_fired != self._last_events
        if not retired and not fired \
                and cycle - self._last_cycle >= self.interval:
            raise deadlock_error(
                self.orchestrator,
                f"no instruction retired and no event fired in the last "
                f"{cycle - self._last_cycle} cycles "
                f"(watchdog window {self.interval})")
        if cycle - self._last_retire_cycle \
                >= SOFT_WEDGE_FACTOR * self.interval:
            raise deadlock_error(
                self.orchestrator,
                f"no instruction retired in the last "
                f"{cycle - self._last_retire_cycle} cycles although "
                f"events kept firing (soft-wedge window "
                f"{SOFT_WEDGE_FACTOR * self.interval})")
        if retired or fired:
            self._last_cycle = cycle
            self._last_instructions = instructions
            self._last_events = events_fired
