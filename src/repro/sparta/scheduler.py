"""Cycle-quantised discrete-event scheduler (the heart of our Sparta).

Events are callbacks scheduled at integer cycle numbers.  Within one cycle,
events fire in insertion order, making simulations fully deterministic.
The Coyote orchestrator advances the scheduler in lockstep with
functional execution: one ``advance_cycle`` per simulated clock.

Hot-path notes: ``current_cycle`` is a plain attribute (no property
dispatch on the read the orchestrator, the NoC and every bank perform
each cycle), and idle cycles cost a single heap peek.  The orchestrator
passes event-free cycles — stalled cores included — in its zero-core
stretch, writing ``current_cycle`` itself.  ``advance_to`` is a leftover
second clock path with no caller in the simulator: it stays only until
the benchmark's scheduler probe and the test harnesses that still call
it move to ``advance_cycle``, and is deleted then.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable


class SchedulerError(Exception):
    """Raised for invalid scheduling operations.

    Structured context rides along as attributes (``current_cycle``,
    ``pending_events``, ``next_event_cycle``) so watchdogs and tests can
    assert on the scheduler's state instead of parsing the message.
    """

    def __init__(self, message: str, *, current_cycle: int | None = None,
                 pending_events: int | None = None,
                 next_event_cycle: int | None = None):
        super().__init__(message)
        self.current_cycle = current_cycle
        self.pending_events = pending_events
        self.next_event_cycle = next_event_cycle


class Scheduler:
    """A deterministic discrete-event scheduler."""

    def __init__(self):
        self._queue: list[tuple[int, int, Callable, tuple]] = []
        self._sequence = 0
        # Public on purpose: the orchestrator's cycle loop reads the
        # clock and, across event-free cycles, writes it directly;
        # attribute access keeps that cheap.
        self.current_cycle = 0
        self._events_fired = 0

    def __setstate__(self, state):
        # A format-2 checkpoint written while entries carried a priority
        # (always 0) holds ``(cycle, 0, seq, callback, args)``; dropping
        # the constant keeps the heap in order.
        state["_queue"] = [entry[:1] + entry[2:] if len(entry) == 5
                           else entry for entry in state["_queue"]]
        self.__dict__.update(state)

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, callback: Callable, delay: int = 0,
                 args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now.

        A zero delay from outside the event loop is fine: the event
        fires on the next advance through the current cycle.
        """
        if delay < 0:
            raise SchedulerError(
                f"cannot schedule in the past: delay={delay}",
                current_cycle=self.current_cycle,
                pending_events=len(self._queue),
                next_event_cycle=self.next_event_cycle())
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._queue,
                 (self.current_cycle + delay, sequence, callback, args))

    def next_event_cycle(self) -> int | None:
        """Cycle of the earliest pending event, or None when idle."""
        queue = self._queue
        return queue[0][0] if queue else None

    def advance_cycle(self) -> int:
        """Fire every event scheduled for the current cycle, then step the
        clock by one.  Returns the number of events fired."""
        queue = self._queue
        if queue and queue[0][0] <= self.current_cycle:
            fired = self._drain_current()
        else:
            fired = 0
        self.current_cycle += 1
        return fired

    def advance_to(self, cycle: int) -> int:
        """Advance the clock to ``cycle``, firing all intervening events.

        Events strictly before ``cycle`` fire (at their own cycle, in
        deterministic order), exactly as repeated ``advance_cycle`` calls
        would fire them; the clock then lands on ``cycle`` in one
        assignment.  Cost is proportional to the events in the gap, not
        to its length.
        """
        if cycle < self.current_cycle:
            raise SchedulerError(
                f"cannot rewind from {self.current_cycle} to {cycle}",
                current_cycle=self.current_cycle,
                pending_events=len(self._queue),
                next_event_cycle=self.next_event_cycle())
        queue = self._queue
        fired = 0
        while queue and queue[0][0] < cycle:
            target = queue[0][0]
            if target > self.current_cycle:
                self.current_cycle = target
            fired += self._drain_current()
        self.current_cycle = cycle
        return fired

    def run_until_idle(self, max_cycles: int = 10_000_000) -> int:
        """Advance until no events remain; returns the final cycle.

        ``max_cycles`` bounds how many *cycles* the clock may advance
        past its starting point (a runaway-feedback backstop).  A single
        long jump to a far-future event consumes budget equal to the
        jump length — it cannot advance the clock further than an
        equivalent sequence of per-cycle steps would.
        """
        queue = self._queue
        start = self.current_cycle
        limit = start + max_cycles
        while queue:
            target = queue[0][0]
            if target >= limit:
                raise SchedulerError(
                    f"run_until_idle exceeded its cycle budget "
                    f"({max_cycles} cycles from cycle {start})",
                    current_cycle=self.current_cycle,
                    pending_events=len(queue),
                    next_event_cycle=target)
            if target > self.current_cycle:
                self.current_cycle = target
            self._drain_current()
            self.current_cycle += 1
        return self.current_cycle

    # -- introspection (resilience layer) ------------------------------------

    def iter_events(self) -> list[tuple[int, int, Callable, tuple]]:
        """Snapshot of every pending ``(cycle, seq, callback, args)``
        entry, in heap (not firing) order.  Read-only: mutating
        the returned list does not affect the queue."""
        return list(self._queue)

    def _drain_current(self) -> int:
        """Fire every event at (or before) the current cycle."""
        fired = 0
        queue = self._queue
        now = self.current_cycle
        while queue and queue[0][0] <= now:
            cycle, _seq, callback, args = heappop(queue)
            if cycle < now:
                raise SchedulerError(
                    f"missed event scheduled for cycle {cycle} "
                    f"(now {now})",
                    current_cycle=now, pending_events=len(queue),
                    next_event_cycle=cycle)
            callback(*args)
            fired += 1
        self._events_fired += fired
        return fired
