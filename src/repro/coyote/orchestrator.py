"""The Coyote Orchestrator: lockstep coupling of Spike and Sparta.

Faithful to the paper's description:

    "Spike and Sparta are slaves to an Orchestrator that handles the
    simulation, keeping track of timing, and synchronizing both parts.
    Every cycle, the Orchestrator first tries to simulate an instruction
    on each of the active cores using Spike. [...] Once an instruction has
    been simulated in each of the active cores, the Orchestrator checks,
    if Sparta has any in-flight events for the current cycle. If this is
    the case, the Sparta model is advanced [...] Once an L1 miss is
    serviced, the registers that it writes to are made available [...]
    while stalled cores are set as active once again."

Two stall reasons deactivate a core: a RAW dependency against a pending
miss (re-checked each cycle via the scoreboard) and an instruction-fetch
miss (the core waits for that specific fill).  When every live core is
stalled the orchestrator fast-forwards the clock to the next scheduled
event — a pure optimisation with identical observable behaviour.

The optimised loop keeps host time proportional to simulated work
(docs/INTERNALS.md, "The hot loop & fast-forward"): one scheduling
kernel visits only the (cycle, core) pairs that have something to do —
a due-ring says who is due when, translated blocks let a core run ahead
of the clock wherever nothing can observe the difference, and cycles in
which the scheduler is silent and nobody is due are a clock assignment.

The paper's straight-line per-cycle loop is kept as an executable spec
in ``tests/coyote/loop_spec.py``; the differential tests run it beside
this loop and assert bit-identical results, statistics and traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.assembler.program import Program
from repro.coyote.config import SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.stats import CoreStats, SimulationResults
from repro.memhier.hierarchy import MemoryHierarchy
from repro.memhier.noc import MeshNoC
from repro.memhier.request import MemRequest, RequestKind
from repro.resilience.faults import FaultInjector
from repro.resilience.invariants import InvariantChecker
from repro.resilience.watchdog import Watchdog, deadlock_error
from repro.spike.hart import EnvironmentCall, Trap
from repro.spike.machine import BareMetalMachine
from repro.spike.scoreboard import Scoreboard
from repro.spike.translate import MAX_BLOCK, BlockTranslator
from repro.spike.simulator import (
    CLEAN_STEP,
    AccessKind,
    CoreModel,
    StepStatus,
)
from repro.sparta.scheduler import Scheduler
from repro.telemetry.chrome_trace import EXECUTING, FETCH_STALL, RAW_STALL
from repro.telemetry.hub import Telemetry


class _SchedulerCycleSource:
    """Picklable ``rdcycle`` source: the Sparta scheduler's clock.

    A plain class (not a lambda) so a checkpoint can serialise harts
    together with the scheduler they read time from.
    """

    def __init__(self, scheduler: Scheduler):
        self.scheduler = scheduler

    def __call__(self) -> int:
        return self.scheduler.current_cycle


@dataclass
class _CoreState:
    """Orchestrator-side bookkeeping for one core."""

    raw_stall_cycles: int = 0
    fetch_stall_cycles: int = 0
    waiting_fetch_id: int | None = None
    halt_cycle: int | None = None
    stall_start: int = 0  # cycle the current stall began (if stalled)


class Orchestrator:
    """Drives the cycle loop over the functional cores and the modelled
    hierarchy."""

    def __init__(self, config: SimulationConfig, program: Program):
        self.config = config
        self.program = program
        self.scheduler = Scheduler()
        self.machine = BareMetalMachine(program, config.num_cores,
                                        vlen_bits=config.vlen_bits)
        self.cores = [CoreModel(hart, self.machine, config.l1)
                      for hart in self.machine.harts]
        cycle_source = _SchedulerCycleSource(self.scheduler)
        for hart in self.machine.harts:
            hart.cycle_source = cycle_source
        # Trace-compiled fast path: per-core translated-block caches,
        # dispatched by _cycle_loop (never by the loop spec in
        # tests/coyote/loop_spec.py, which the differential tests
        # compare against).  Each translator registers itself with the
        # machine's CodeCacheRegistry for store invalidation and with
        # its hart for drop_code_caches().
        self.translators = None
        if config.translate:
            self.translators = [BlockTranslator(core, self.machine)
                                for core in self.cores]
        # Per-core "next due" cycle: a core whose dispatched block
        # covered cycles [c, c+n) already holds the architectural state
        # of cycle c+n-1, so the loop has nothing to do for it until
        # c+n.  While _cycle_loop runs its due-ring is the authority
        # (``_ring``, fed by _wake) and this list is settled from it on
        # every exit — it is what persists across pause/resume (a
        # checkpoint can land mid-block).
        self._resume_at = [0] * config.num_cores
        self._ring: list[list[int]] | None = None
        self.hierarchy = MemoryHierarchy(config.memhier, self.scheduler)
        self.hierarchy.on_complete = self._on_request_complete
        self.scoreboard = Scoreboard(config.num_cores)
        self._states = [_CoreState() for _ in range(config.num_cores)]
        self._fetch_waits: dict[int, int] = {}  # request_id -> core_id
        # Cores ready to attempt execution; stalled cores leave and are
        # re-inserted by the completion that might unblock them
        # (event-driven wakeup: a stalled core costs nothing per cycle).
        self._active_set: set[int] = set(range(config.num_cores))
        self._raw_waiting: set[int] = set()
        # cycles spent with exactly N active cores.
        self._activity: dict[int, int] = {}
        # Pause/resume bookkeeping (checkpoint support): wall time of
        # earlier segments, and whether the last ``run`` call stopped at
        # a pause point.
        self._wall_accum = 0.0
        self._started = False
        self.paused = False
        # Opt-in observability: all hooks stay None when disabled so the
        # hot loop never touches them.
        self.telemetry: Telemetry | None = None
        self._chrome = None
        self._guestprof = None
        if config.telemetry.enabled:
            self.telemetry = Telemetry(config.telemetry, config.num_cores,
                                       self._collect_telemetry_values)
            sink = self.telemetry.request_sink()
            if sink is not None:
                self.hierarchy.telemetry_sink = sink
            observer = self.telemetry.noc_observer()
            if observer is not None:
                self.hierarchy.noc.latency_observer = observer
            self._chrome = self.telemetry.chrome
            noc = self.hierarchy.noc
            if isinstance(noc, MeshNoC):
                # Contention-model extras: per-hop queueing-delay
                # histogram and the Chrome in-flight counter track.
                queue_observer = self.telemetry.noc_queue_observer()
                if queue_observer is not None:
                    noc.queue_observer = queue_observer
                if self._chrome is not None:
                    noc.occupancy_sink = \
                        self._chrome.observe_noc_occupancy
            guestprof = self.telemetry.guestprof
            if guestprof is not None:
                # Retire hooks live inside CoreModel.step; the
                # submit/complete hooks below sit on miss paths only,
                # so the hot loop itself needs no extra checks.
                self._guestprof = guestprof
                for core, profile in zip(self.cores, guestprof.cores):
                    core.profile = profile

        # Resilience layer (docs/RESILIENCE.md): everything below is
        # None when the matching ResilienceConfig knob is off, so a
        # default-configured run pays nothing for it.
        resilience = config.resilience
        self.fault_injector: FaultInjector | None = None
        if resilience.faults:
            self.fault_injector = FaultInjector(
                "faults", self.hierarchy.root, resilience, self.hierarchy)
            self.fault_injector.install()
            if self._chrome is not None:
                self.fault_injector.event_sink = self._chrome.instant
        self.watchdog: Watchdog | None = None
        if resilience.watchdog_cycles:
            self.watchdog = Watchdog(resilience.watchdog_cycles, self)
        self.invariants: InvariantChecker | None = None
        if resilience.invariant_interval:
            self.invariants = InvariantChecker(
                self, resilience.invariant_interval)

    # -- completion plumbing ---------------------------------------------------

    def _on_request_complete(self, request: MemRequest) -> None:
        if request.member_ids:
            # MCPU-aggregated vector request: one response releases every
            # member scoreboard entry.
            for member_id in request.member_ids:
                self.scoreboard.complete_miss(member_id)
            core_id = request.core_id
        else:
            core_id = self.scoreboard.complete_miss(request.request_id)
        now = self.scheduler.current_cycle
        guestprof = self._guestprof
        pc = guestprof.note_complete(request) \
            if guestprof is not None else None
        waiting_core = self._fetch_waits.pop(request.request_id, None)
        if waiting_core is not None:
            wait_state = self._states[waiting_core]
            wait_state.waiting_fetch_id = None
            window = now - wait_state.stall_start
            wait_state.fetch_stall_cycles += window
            if guestprof is not None:
                guestprof.stall_end(waiting_core, pc, request.l2_hit,
                                    window, now, fetch=True)
            self._wake(waiting_core)
        elif core_id in self._raw_waiting:
            # One of this core's fills returned; let it retry its RAW
            # check on its next turn (it re-stalls if still blocked).
            self._raw_waiting.discard(core_id)
            state = self._states[core_id]
            window = now - state.stall_start
            state.raw_stall_cycles += window
            if guestprof is not None:
                guestprof.stall_end(core_id, pc, request.l2_hit,
                                    window, now, fetch=False)
            self._wake(core_id)

    def _wake(self, core_id: int) -> None:
        if not self.cores[core_id].halted \
                and core_id not in self._active_set:
            self._active_set.add(core_id)
            cycle = self.scheduler.current_cycle
            if self._ring is not None:
                # Wakes are events of ``cycle``; the core runs next cycle.
                self._ring[(cycle + 1) & 127].append(core_id)
            if self._chrome is not None:
                self._chrome.set_state(core_id, EXECUTING, cycle)

    def _submit_misses(self, core_id: int, misses) -> int | None:
        """Send one step's misses into the hierarchy.

        Returns the request id of the IFETCH miss when present (the core
        must stall on it).
        """
        fetch_id = None
        aggregate: list = []
        aggregating = self.config.memhier.mcpu_aggregation
        guestprof = self._guestprof
        submit = self.hierarchy.submit
        for miss in misses:
            kind = miss.kind
            if kind is AccessKind.WRITEBACK:
                # Fire-and-forget: no completion will arrive.
                submit(-1, core_id, miss.line_address, kind)
                continue
            if aggregating and kind is AccessKind.LOAD:
                aggregate.append(miss)
                continue
            registers = miss.registers if kind is AccessKind.LOAD else ()
            miss_id = self.scoreboard.register_miss(core_id, registers)
            if guestprof is not None:
                guestprof.note_miss(miss_id, core_id, miss.pc,
                                    kind.value, miss.line_address)
            submit(miss_id, core_id, miss.line_address, kind)
            if kind is AccessKind.IFETCH:
                fetch_id = miss_id
        if aggregate:
            self._submit_aggregate(core_id, aggregate)
        return fetch_id

    def _submit_aggregate(self, core_id: int, misses: list) -> None:
        """Send one instruction's load misses as an MCPU group
        (or singly when there is no group to form)."""
        guestprof = self._guestprof
        member_ids = []
        for miss in misses:
            member_ids.append(self.scoreboard.register_miss(
                core_id, miss.registers))
            if guestprof is not None:
                guestprof.note_miss(member_ids[-1], core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
        if len(misses) == 1:
            self.hierarchy.submit(member_ids[0], core_id,
                                  misses[0].line_address, RequestKind.LOAD)
        else:
            self.hierarchy.submit_aggregate(
                tuple(member_ids), core_id,
                [miss.line_address for miss in misses], RequestKind.LOAD)

    # -- the cycle loop -----------------------------------------------------------

    def run(self, pause_at: int | None = None) -> SimulationResults | None:
        """Run to completion and return the results.

        With ``pause_at`` set, the cycle loop stops at the first loop
        boundary at or after that cycle instead (no event at or after
        ``pause_at`` has fired yet), sets :attr:`paused`, and returns
        ``None``; a later ``run()`` call continues exactly where the
        paused one stopped.  This is the checkpoint hook: a paused
        orchestrator can be serialised and the resumed run is
        bit-identical to an uninterrupted one
        (tests/resilience/test_checkpoint.py).
        """
        scheduler = self.scheduler
        self._segment_start = time.perf_counter()

        # Telemetry hooks, hoisted into locals: when telemetry is
        # disabled each stays None and the loop pays only a handful of
        # local is-None tests per cycle (no attribute lookups).
        telemetry = self.telemetry
        sampler = chrome = profiler = heartbeat = None
        if telemetry is not None:
            sampler = telemetry.sampler
            chrome = telemetry.chrome
            profiler = telemetry.profiler
            if profiler is not None and self.config.telemetry.progress:
                heartbeat = profiler
                heartbeat.restart(self._wall_accum, scheduler.current_cycle,
                                  self._instructions(), scheduler.events_fired)
            if sampler is not None and not self._started:
                sampler.start(scheduler.current_cycle)
        self._started = True
        clock = time.perf_counter
        observers = (sampler, heartbeat, self.watchdog, self.invariants)

        self.paused = False
        self._cycle_loop(observers, chrome, profiler, pause_at)
        if self.paused:
            self._wall_accum = self._wall()
            return None

        # Drain requests still in flight when the last core halted, so
        # the final statistics balance (submitted == completed).
        drain_start = scheduler.current_cycle
        if profiler is not None:
            section_start = clock()
        scheduler.run_until_idle()
        if profiler is not None:
            profiler.sparta_seconds += clock() - section_start
        drained = scheduler.current_cycle - drain_start
        if drained:
            self._activity[0] = self._activity.get(0, 0) + drained

        wall_seconds = self._wall()
        if profiler is not None:
            section_start = clock()
        if sampler is not None:
            sampler.finalize(scheduler.current_cycle)
        if chrome is not None:
            chrome.finalize(scheduler.current_cycle)
        results = self._build_results(wall_seconds)
        if profiler is not None:
            profiler.stats_seconds += clock() - section_start
            profiler.wall_seconds = self._wall()
            results.host_profile = profiler.to_dict()
        return results

    def _wall(self) -> float:
        """The run's wall seconds: its ``run`` segments, summed."""
        return self._wall_accum + time.perf_counter() - self._segment_start

    def _observe(self, observers, cycle: int) -> int:
        """Let those of ``run``'s observers (sampler, heartbeat, watchdog,
        invariant checker; None when off) whose ``due`` cycle has come
        look at ``cycle``; returns the next ``due``."""
        sampler, heartbeat, watchdog, invariants = observers
        events = self.scheduler.events_fired
        instructions = self._instructions()
        if sampler is not None:
            sampler.maybe_sample(cycle)
        if heartbeat is not None:
            heartbeat.maybe_heartbeat(cycle, instructions, events,
                                      self._wall())
        if watchdog is not None and watchdog.due <= cycle:
            watchdog.observe(cycle, instructions, events)
        if invariants is not None:
            invariants.maybe_check(cycle, instructions)
        return min((observer.due for observer in observers
                    if observer is not None), default=1 << 62)

    def _cycle_loop(self, observers, chrome, profiler,
                    pause_at: int | None = None) -> None:
        """The optimised cycle loop.

        Identical observable behaviour to the straight-line per-cycle
        loop spec, ``tests/coyote/loop_spec.py`` (the differential tests
        assert it).  One scheduling *kernel* decides which cycles need
        any work and one per-core *visit* does that work
        (docs/INTERNALS.md, "The hot loop & fast-forward").

        Kernel.  A 128-slot due-ring (``slot = cycle & 127``) holds every
        active core at the cycle it next has something to do: the cycle
        after its last instruction, or the cycle after the micro-block it
        is inside retires.  A dispatch retires at most ``MAX_BLOCK`` (64)
        instructions and a visit re-enters the ring within 128 cycles,
        so live entries never wrap onto the slot being visited.  The
        kernel visits the cores due at ``now`` in ascending id.  A cycle
        in which a visit submitted a request or changed the active set,
        or an event or observation is next, ends through
        ``advance_cycle()``; any other cycle is a bare clock bump, and a
        run of cycles in which nobody is due is one jump — bounded by
        the next event, ``pause_at``, the cycle budget and the next
        observation (``due``), between which the loop spec would do
        nothing but increment the clock.  A stretch stops ``MAX_BLOCK``
        cycles short of ``due``; inside that window every visit takes
        ``single`` and the stretch syncs at ``due - 1``, so no block has
        run past the cycle :meth:`_observe` shows.  With no core active
        a stretch jumps to the next event (or ``pause_at``) at once and
        fires it in the same pass, unseen by the budget and observers as
        in the loop spec.  The ring is rebuilt from ``_resume_at`` on
        entry, fed by :meth:`_wake`, and settled back on every exit, so
        ``_resume_at`` is what a checkpoint carries.

        Visit.  RAW gate (only for a core with pending fills, which then
        gets a budget of one instruction), then a translated dispatch,
        then — when that made no progress — one interpreter step.  A
        compiled block takes no argument and runs to its end
        (``translate.py``), so the visit picks a shape that fits:

        * exactly one live core and at least ``MAX_BLOCK`` silent cycles
          before ``bound``: the ``whole`` block — nothing can interleave
          with it, so it need not stop at memory accesses, and the visit
          dispatches block after block in place;
        * otherwise one block: ``single`` at budget 1 (pending fills on
          this core, or within ``MAX_BLOCK`` of the next observation),
          else ``micro`` — its one memory access is instruction 0,
          executed on this cycle, and the register-private tail runs
          ahead, which is safe across events.
        """
        config = self.config
        scheduler = self.scheduler
        cores = self.cores
        states = self._states
        machine = self.machine
        active_set = self._active_set
        raw_waiting = self._raw_waiting
        fetch_waits = self._fetch_waits
        activity = self._activity
        blocks = self.scoreboard.blocks
        outstanding = self.scoreboard.outstanding
        # Live per-core busy-register maps, hoisted once: when a core's
        # map is empty no RAW dependency can block it, so the visit skips
        # the pre-step decode entirely (the common case on hit streaks).
        busy_maps = [self.scoreboard.busy_map(core_id)
                     for core_id in range(config.num_cores)]
        harts = [core.hart for core in cores]
        resume = self._resume_at
        # The translators' block tables are mutated in place by
        # invalidation, so their bound ``get``s stay valid.  Without
        # translators every budget is -1: no dispatch, always the step.
        translators = self.translators
        if translators is not None:
            wgets, ugets, sgets = (
                [translator.blocks[shape].get for translator in translators]
                for shape in ("whole", "micro", "single"))
            gated_budget = 1
        else:
            gated_budget = -1

        advance_cycle = scheduler.advance_cycle
        next_event_cycle = scheduler.next_event_cycle
        max_cycles = config.max_cycles
        clock = time.perf_counter
        # Resume-aware: cores halted before a pause stay halted.
        remaining_cores = sum(1 for core in cores if not core.halted)
        due = 0     # the first cycle asks the observers when they are due
        fetch_miss = StepStatus.FETCH_MISS
        clean_step = CLEAN_STEP
        tint = int

        now = scheduler.current_cycle
        ring = self._ring = [[] for _ in range(128)]
        for core_id in sorted(active_set):
            cycle = resume[core_id]
            ring[(cycle if cycle > now else now) & 127].append(core_id)

        try:
            while remaining_cores:
                if pause_at is not None and now >= pause_at:
                    self.paused = True
                    break
                if now >= max_cycles:
                    raise SimulationError(
                        f"cycle budget exhausted ({max_cycles})",
                        current_cycle=now, max_cycles=max_cycles,
                        pending_events=scheduler.pending_events)
                live = len(active_set)
                next_event = next_event_cycle()
                if profiler is not None:
                    section_start = clock()
                start = now
                if live:
                    # No event, pause point, budget edge or observation
                    # before ``bound``: up to there the scheduler is
                    # silent and ending a cycle is ``now += 1``.
                    bound = max_cycles
                    if next_event is not None and next_event < bound:
                        bound = next_event
                    if pause_at is not None and pause_at < bound:
                        bound = pause_at
                    # No block reaches ``due`` from before its last MAX_BLOCK
                    # cycles; inside them a visit retires one instruction.
                    watched = now >= due - MAX_BLOCK
                    edge = due - 1 if watched else due - MAX_BLOCK
                    if edge < bound:
                        bound = edge
                    # Busy maps fill only by a submission and drain only
                    # by an event, and either ends the stretch below, so
                    # one look covers it: with nothing outstanding no
                    # visit needs the RAW gate.
                    gated = outstanding() != 0
                    if watched or translators is None:
                        budget = gated_budget
                    elif live == 1:
                        budget = MAX_BLOCK
                    else:
                        budget = 0
                    free_budget = budget
                    sync = bound <= now
                    while True:
                        todo = ring[now & 127]
                        if not todo and now < bound:
                            # Nobody is due: every active core is inside
                            # a dispatched block, so jump to the first
                            # cycle one comes due (or to ``bound``).
                            now += 1
                            while now < bound and not ring[now & 127]:
                                now += 1
                            if now == bound:
                                sync = False
                                break
                            todo = ring[now & 127]
                        # A slot fills from different source cycles;
                        # restore ascending core order (determinism).
                        if len(todo) > 1:
                            todo.sort()
                        for core_id in todo:
                            if gated:
                                budget = free_budget
                                if busy_maps[core_id]:
                                    # RAW check against pending misses
                                    # (paper: the core is inactive until
                                    # the dependency is satisfied).
                                    try:
                                        registers = \
                                            cores[core_id].peek_registers()
                                    except Trap as exc:
                                        raise SimulationError(
                                            f"core {core_id}: {exc}",
                                            current_cycle=now) from exc
                                    if blocks(core_id, registers):
                                        active_set.remove(core_id)
                                        raw_waiting.add(core_id)
                                        states[core_id].stall_start = now
                                        if chrome is not None:
                                            chrome.set_state(
                                                core_id, RAW_STALL, now)
                                        sync = True
                                        continue
                                    # Pending fills: one instruction per
                                    # cycle, so the gate sees every one.
                                    budget = gated_budget

                            if budget > 1 and bound - now >= MAX_BLOCK:
                                # Whatever the block's length, it fits:
                                # with nothing to interleave, the visit
                                # consumes its cycles on the spot, and
                                # while the stretch stays silent the
                                # lone core dispatches its next block in
                                # place — coming back through the ring
                                # within 128 cycles, so its slot never
                                # wraps onto the one being visited.
                                horizon = now + MAX_BLOCK
                                while True:
                                    fn = wgets[core_id](harts[core_id].pc)
                                    if fn is None:
                                        fn = translators[core_id].translate(
                                            harts[core_id].pc)
                                    result = fn()
                                    if result.__class__ is not tint:
                                        break
                                    now += result
                                    if now >= horizon \
                                            or bound - now < MAX_BLOCK:
                                        break
                                if result.__class__ is tint:
                                    # Retired cleanly: due again the
                                    # cycle after its last instruction.
                                    ring[now & 127].append(core_id)
                                    now -= 1
                                    continue
                                span = result.executed
                            elif budget >= 0:
                                # One block: the core comes due again
                                # when the tail it ran ahead has retired.
                                gets = sgets if budget == 1 else ugets
                                fn = gets[core_id](harts[core_id].pc)
                                if fn is None:
                                    fn = translators[core_id].translate(
                                        harts[core_id].pc,
                                        "single" if budget == 1 else "micro")
                                result = fn()
                                if result.__class__ is tint:
                                    ring[(now + result) & 127].append(
                                        core_id)
                                    continue
                                span = result.executed
                            else:
                                span = 0

                            fetch_stall = False
                            if span:
                                # A block exit: its last instruction
                                # missed and/or halted the hart.  Only a
                                # whole block (one live core) retires
                                # more than that one before it exits;
                                # the last ran at ``now + span - 1``.
                                now += span - 1
                                misses = result.misses
                            else:
                                # No translated progress (fetch miss,
                                # untranslatable instruction, translation
                                # off): one interpreter step.  It may
                                # read the clock (rdcycle): settle it
                                # first.
                                scheduler.current_cycle = now
                                core = cores[core_id]
                                try:
                                    outcome = core.step()
                                except EnvironmentCall:
                                    # Bare-metal convention: ecall halts
                                    # the calling hart, exit code a0.
                                    machine.exit_codes[core_id] = \
                                        core.hart.regs[10]
                                    core.halted = True
                                    outcome = None
                                except Trap as exc:
                                    raise SimulationError(
                                        f"core {core_id}: {exc}",
                                        current_cycle=now) from exc
                                if outcome is clean_step:
                                    # Executed, no misses, still running.
                                    ring[(now + 1) & 127].append(core_id)
                                    continue
                                misses = None
                                if outcome is not None:
                                    misses = outcome.misses
                                    fetch_stall = \
                                        outcome.status is fetch_miss

                            if misses:
                                # Events enter the scheduler (with zero
                                # NoC latency even at this very cycle):
                                # settle the lazily kept clock first and
                                # end the cycle through the scheduler.
                                scheduler.current_cycle = now
                                fetch_id = self._submit_misses(core_id,
                                                               misses)
                                sync = True
                                if fetch_stall:
                                    state = states[core_id]
                                    state.waiting_fetch_id = fetch_id
                                    state.stall_start = now
                                    fetch_waits[fetch_id] = core_id
                                    active_set.remove(core_id)
                                    if chrome is not None:
                                        chrome.set_state(core_id,
                                                         FETCH_STALL, now)
                                    continue
                            if cores[core_id].halted:
                                states[core_id].halt_cycle = now
                                active_set.remove(core_id)
                                remaining_cores -= 1
                                if chrome is not None:
                                    chrome.halt(core_id, now)
                                sync = True
                                continue
                            ring[(now + 1) & 127].append(core_id)
                        todo.clear()
                        if sync:
                            break
                        now += 1
                        if now >= bound:
                            break
                elif next_event is not None:
                    # Nobody to visit: jump to the waking event and fire
                    # it in this pass, unseen by the budget check as in
                    # the loop spec (a pause at or before it wins).
                    sync = pause_at is None or next_event < pause_at
                    now = next_event if sync else pause_at
                else:
                    stalled = [core.core_id for core in cores
                               if not core.halted]
                    raise deadlock_error(self, f"cores {stalled} stalled "
                                         "with no pending events")
                # The active count is constant over a stretch (a core
                # leaving ends it), so the histogram gets one addition.
                scheduler.current_cycle = now
                activity[live] = activity.get(live, 0) + now - start + sync
                if profiler is not None:
                    wall = clock()
                    profiler.spike_seconds += wall - section_start
                if not sync:
                    continue

                # Advance Sparta in sync with functional execution;
                # completions fired here re-activate stalled cores.
                advance_cycle()
                if profiler is not None:
                    profiler.sparta_seconds += clock() - wall
                now = scheduler.current_cycle
                if now >= due:
                    due = self._observe(observers, now)
        finally:
            # Settle the ring's due cycles into ``_resume_at`` (every
            # entry sits in ``[now, now + 64]``).
            self._ring = None
            for slot, bucket in enumerate(ring):
                if bucket:
                    cycle = now + ((slot - now) & 127)
                    for core_id in bucket:
                        resume[core_id] = cycle

    # -- telemetry --------------------------------------------------------------

    def _collect_telemetry_values(self) -> dict[str, float]:
        """One flat snapshot of every counter the sampler tracks.

        Hierarchy counters keep their dotted unit names; functional-side
        aggregates are added under ``cores.*`` and the activity
        histogram under ``activity.<N>``.
        """
        values = self.hierarchy.collect_values()
        l1d_accesses = l1d_misses = l1i_accesses = l1i_misses = 0
        for core in self.cores:
            l1d = core.l1d.stats
            l1i = core.l1i.stats
            l1d_accesses += l1d.accesses
            l1d_misses += l1d.misses
            l1i_accesses += l1i.accesses
            l1i_misses += l1i.misses
        values["cores.instructions"] = self._instructions()
        values["cores.l1d_accesses"] = l1d_accesses
        values["cores.l1d_misses"] = l1d_misses
        values["cores.l1i_accesses"] = l1i_accesses
        values["cores.l1i_misses"] = l1i_misses
        for count, cycles in self._activity.items():
            values[f"activity.{count}"] = cycles
        return values

    def _instructions(self) -> int:
        """Instructions retired so far: the cores' ``instret`` summed."""
        return sum(core.instructions for core in self.cores)

    # -- results ---------------------------------------------------------------

    def _build_results(self, wall_seconds: float) -> SimulationResults:
        core_stats = []
        for core, state in zip(self.cores, self._states):
            core_stats.append(CoreStats(
                core_id=core.core_id,
                instructions=core.instructions,
                raw_stall_cycles=state.raw_stall_cycles,
                fetch_stall_cycles=state.fetch_stall_cycles,
                halt_cycle=state.halt_cycle,
                exit_code=self.machine.exit_codes.get(core.core_id),
                l1i=core.l1i.stats,
                l1d=core.l1d.stats))
        telemetry = self.telemetry
        guest_profile = None
        if self._guestprof is not None:
            guest_profile = self._guestprof.finalize(
                self.scheduler.current_cycle, self._states,
                memory=self.machine.memory)
        return SimulationResults(
            cycles=self.scheduler.current_cycle,
            instructions=self._instructions(),
            wall_seconds=wall_seconds,
            cores=core_stats,
            hierarchy_samples=self.hierarchy.collect_stats(),
            console=self.machine.console_text(),
            exit_codes=dict(self.machine.exit_codes),
            events_fired=self.scheduler.events_fired,
            activity=dict(sorted(self._activity.items())),
            timeseries=telemetry.sampler if telemetry else None,
            latency=telemetry.latency if telemetry else None,
            guest_profile=guest_profile)
