"""An executable specification of the Orchestrator's cycle loop.

The paper's loop, said the plain way: every cycle, each active core in
ascending id first checks the next instruction's registers against the
scoreboard (a pending fill on one of them takes the core out until that
fill returns), then executes one instruction through ``CoreModel.step``
— an instruction-fetch miss takes it out until its fill returns — and
then Sparta advances one cycle.  A cycle with no active core jumps to
the next scheduled event (or the pause point) and fires it in the same
pass, unseen by the cycle budget.  Observers (sampler, heartbeat,
watchdog, invariant checker) look at every cycle they are due at.

:class:`Orchestrator._cycle_loop` — due-ring, translated blocks, silent
stretches — must be indistinguishable from this loop: results,
statistics, registers, memory, Chrome and Paraver traces, and the cycle
a trap or a budget edge stops at.  The differential tests run both;
:func:`use_loop_spec` installs this one.
"""

from __future__ import annotations

from repro.coyote.errors import SimulationError
from repro.coyote.orchestrator import Orchestrator
from repro.resilience.watchdog import deadlock_error
from repro.spike.hart import EnvironmentCall, Trap
from repro.spike.simulator import StepStatus
from repro.telemetry.chrome_trace import FETCH_STALL, RAW_STALL


class SpecOrchestrator(Orchestrator):
    """An :class:`Orchestrator` whose cycle loop is the spec."""

    def _cycle_loop(self, observers, chrome, profiler,
                    pause_at: int | None = None) -> None:
        """The straight-line per-cycle loop.

        It works on ``_active_set`` with a fresh ``sorted()`` every
        cycle and never touches the translators or ``_resume_at``.  Host
        time (``profiler``) is not split: no test compares it.
        """
        config = self.config
        scheduler = self.scheduler
        cores = self.cores
        states = self._states
        scoreboard = self.scoreboard
        active = self._active_set
        remaining_cores = sum(1 for core in cores if not core.halted)
        due = 0

        while remaining_cores:
            if pause_at is not None \
                    and scheduler.current_cycle >= pause_at:
                self.paused = True
                break
            if scheduler.current_cycle >= config.max_cycles:
                raise SimulationError(
                    f"cycle budget exhausted ({config.max_cycles})",
                    current_cycle=scheduler.current_cycle,
                    max_cycles=config.max_cycles,
                    pending_events=scheduler.pending_events)

            if not active:
                next_event = scheduler.next_event_cycle()
                if next_event is None:
                    stalled = [core.core_id for core in cores
                               if not core.halted]
                    raise deadlock_error(
                        self,
                        f"cores {stalled} stalled with no pending events")
                if pause_at is not None and next_event >= pause_at:
                    skipped = pause_at - scheduler.current_cycle
                    self._activity[0] = \
                        self._activity.get(0, 0) + skipped
                    while scheduler.current_cycle < pause_at:
                        scheduler.advance_cycle()
                    self.paused = True
                    break
                skipped = next_event - scheduler.current_cycle + 1
                self._activity[0] = self._activity.get(0, 0) + skipped
                while scheduler.current_cycle < next_event:
                    scheduler.advance_cycle()
                scheduler.advance_cycle()
                if scheduler.current_cycle >= due:
                    due = self._observe(observers, scheduler.current_cycle)
                continue

            active_now = len(active)
            self._activity[active_now] = \
                self._activity.get(active_now, 0) + 1

            for core_id in sorted(active):
                core = cores[core_id]
                state = states[core_id]

                try:
                    registers = core.peek_registers()
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}",
                        current_cycle=scheduler.current_cycle) from exc
                if scoreboard.blocks(core_id, registers):
                    active.discard(core_id)
                    self._raw_waiting.add(core_id)
                    state.stall_start = scheduler.current_cycle
                    if chrome is not None:
                        chrome.set_state(core_id, RAW_STALL,
                                         scheduler.current_cycle)
                    continue

                try:
                    outcome = core.step()
                except EnvironmentCall:
                    self.machine.exit_codes[core_id] = core.hart.regs[10]
                    core.halted = True
                    outcome = None
                except Trap as exc:
                    raise SimulationError(
                        f"core {core_id}: {exc}",
                        current_cycle=scheduler.current_cycle) from exc

                if outcome is not None:
                    if outcome.status is StepStatus.EXECUTED:
                        self._submit_misses(core_id, outcome.misses)
                    elif outcome.status is StepStatus.FETCH_MISS:
                        fetch_id = self._submit_misses(core_id,
                                                       outcome.misses)
                        state.waiting_fetch_id = fetch_id
                        state.stall_start = scheduler.current_cycle
                        self._fetch_waits[fetch_id] = core_id
                        active.discard(core_id)
                        if chrome is not None:
                            chrome.set_state(core_id, FETCH_STALL,
                                             scheduler.current_cycle)

                if core.halted:
                    state.halt_cycle = scheduler.current_cycle
                    active.discard(core_id)
                    remaining_cores -= 1
                    if chrome is not None:
                        chrome.halt(core_id, scheduler.current_cycle)

            scheduler.advance_cycle()
            if scheduler.current_cycle >= due:
                due = self._observe(observers, scheduler.current_cycle)

    def __reduce_ex__(self, protocol):
        # Pickled as the product class, so a checkpoint never names this
        # module; a restored simulation runs the product loop.
        return object.__new__, (Orchestrator,), self.__getstate__()


def use_loop_spec(target, enabled: bool = True) -> None:
    """Run ``target`` (a :class:`Simulation` or an :class:`Orchestrator`
    that has not started) on the loop spec when ``enabled``; otherwise
    leave it on the product loop."""
    orchestrator = getattr(target, "orchestrator", target)
    if enabled:
        orchestrator.__class__ = SpecOrchestrator
