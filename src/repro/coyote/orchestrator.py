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

``use_reference_loop = True`` selects the original straight-line
per-cycle loop; the differential tests run both and assert bit-identical
results, statistics and traces.
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


_KIND_MAP = {
    AccessKind.IFETCH: RequestKind.IFETCH,
    AccessKind.LOAD: RequestKind.LOAD,
    AccessKind.STORE: RequestKind.STORE,
    AccessKind.WRITEBACK: RequestKind.WRITEBACK,
}


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
        # dispatched by _cycle_loop (never by the reference loop, which
        # is what the differential tests compare against).  Each
        # translator registers itself with the machine's
        # CodeCacheRegistry for store invalidation and with its hart
        # for drop_code_caches().
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
        # Instructions retired by translated blocks but not yet settled
        # into instret / core.instructions / L1I reads (all zero
        # whenever the loop is not running).
        self._credit = [0] * config.num_cores
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
        # cycles spent with exactly N active cores (N = 0 during
        # fast-forwarded stall periods).
        self._activity: dict[int, int] = {}
        # Differential-testing escape hatch: run the original
        # straight-line per-cycle loop instead of the optimised one.
        self.use_reference_loop = False
        # Pause/resume bookkeeping (checkpoint support): instructions
        # executed so far, wall time of earlier segments, and whether
        # the last ``run`` call stopped at a pause point.
        self._instructions_total = 0
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
        for miss in misses:
            if miss.kind is AccessKind.WRITEBACK:
                # Fire-and-forget: no completion will arrive.
                self.hierarchy.submit(-1, core_id, miss.line_address,
                                      RequestKind.WRITEBACK)
                continue
            if aggregating and miss.kind is AccessKind.LOAD:
                aggregate.append(miss)
                continue
            registers = miss.registers if miss.kind is AccessKind.LOAD \
                else ()
            miss_id = self.scoreboard.register_miss(core_id, registers)
            if guestprof is not None:
                guestprof.note_miss(miss_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            self.hierarchy.submit(miss_id, core_id, miss.line_address,
                                  _KIND_MAP[miss.kind])
            if miss.kind is AccessKind.IFETCH:
                fetch_id = miss_id
        if aggregate:
            self._submit_aggregate(core_id, aggregate)
        return fetch_id

    def _submit_aggregate(self, core_id: int, misses: list) -> None:
        """Send one instruction's load misses as an MCPU group
        (or singly when there is no group to form)."""
        guestprof = self._guestprof
        if len(misses) == 1:
            miss = misses[0]
            miss_id = self.scoreboard.register_miss(core_id,
                                                    miss.registers)
            if guestprof is not None:
                guestprof.note_miss(miss_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            self.hierarchy.submit(miss_id, core_id, miss.line_address,
                                  RequestKind.LOAD)
            return
        member_ids = []
        lines = []
        for miss in misses:
            member_id = self.scoreboard.register_miss(core_id,
                                                      miss.registers)
            if guestprof is not None:
                guestprof.note_miss(member_id, core_id, miss.pc,
                                    miss.kind.value, miss.line_address)
            member_ids.append(member_id)
            lines.append(miss.line_address)
        self.hierarchy.submit_aggregate(tuple(member_ids), core_id,
                                        lines, RequestKind.LOAD)

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
        config = self.config
        scheduler = self.scheduler
        start_wall = time.perf_counter()

        # Telemetry hooks, hoisted into locals: when telemetry is
        # disabled each stays None and the loop pays only a handful of
        # local is-None tests per cycle (no attribute lookups).
        telemetry = self.telemetry
        sampler = chrome = profiler = heartbeat = None
        if telemetry is not None:
            sampler = telemetry.sampler
            chrome = telemetry.chrome
            profiler = telemetry.profiler
            if profiler is not None and config.telemetry.progress:
                heartbeat = profiler
            if sampler is not None and not self._started:
                sampler.start(scheduler.current_cycle)
        self._started = True
        clock = time.perf_counter

        self.paused = False
        if self.use_reference_loop:
            total_instructions = self._cycle_loop_reference(
                sampler, chrome, profiler, heartbeat, pause_at)
        else:
            total_instructions = self._cycle_loop(
                sampler, chrome, profiler, heartbeat, pause_at)
        self._instructions_total = total_instructions
        if self.paused:
            self._wall_accum += time.perf_counter() - start_wall
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

        wall_seconds = self._wall_accum + time.perf_counter() - start_wall
        if profiler is not None:
            section_start = clock()
        if sampler is not None:
            sampler.finalize(scheduler.current_cycle)
        if chrome is not None:
            chrome.finalize(scheduler.current_cycle)
        results = self._build_results(total_instructions, wall_seconds)
        if profiler is not None:
            profiler.stats_seconds += clock() - section_start
            results.host_profile = profiler.to_dict()
        return results

    def _cycle_loop(self, sampler, chrome, profiler, heartbeat,
                    pause_at: int | None = None) -> int:
        """The optimised cycle loop; returns instructions executed.

        Identical observable behaviour to :meth:`_cycle_loop_reference`
        (the differential tests assert it).  One scheduling *kernel*
        decides which cycles need any work and one per-core *visit* does
        that work (docs/INTERNALS.md, "The hot loop & fast-forward").

        Kernel.  A 128-slot due-ring (``slot = cycle & 127``) holds every
        active core at the cycle it next has something to do: the cycle
        after its last instruction, or the cycle after the micro-block it
        is inside retires.  A dispatch retires at most ``MAX_BLOCK`` (64)
        instructions and a visit re-enters the ring within 128 cycles,
        so live entries never wrap onto the slot being visited.  The
        kernel visits the cores due at ``now`` in ascending id.  A cycle
        in which a visit submitted a
        request or changed the active set, an event is due, or a
        per-cycle observer is live ends through ``advance_cycle()`` and
        the tail hooks; any other cycle is a bare clock bump, and a run
        of cycles in which nobody is due is one jump — bounded by the
        next event, ``pause_at`` and the cycle budget, between which the
        reference loop would do nothing but increment the clock.  The
        ring is rebuilt from ``_resume_at`` on entry, fed by
        :meth:`_wake`, and settled back on every exit, so ``_resume_at``
        is what a checkpoint carries.

        Visit.  RAW gate (only for a core with pending fills, which then
        gets a budget of one instruction), then a translated dispatch,
        then — when that made no progress — one interpreter step.  A
        compiled block takes no argument and runs to its end
        (``translate.py``), so the visit picks a shape that fits:

        * exactly one live core and at least ``MAX_BLOCK`` silent cycles
          before ``bound``: the ``whole`` block — nothing can interleave
          with it, so it need not stop at memory accesses, and the visit
          dispatches block after block in place;
        * otherwise one block: ``single`` at budget 1 (pending fills, or
          the interval sampler live), else ``micro`` — its one memory
          access is instruction 0, executed on this cycle, and the
          register-private tail runs ahead, which is safe across events.
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
        all_cores = range(config.num_cores)
        # Live per-core busy-register maps, hoisted once: when a core's
        # map is empty no RAW dependency can block it, so the visit skips
        # the pre-step decode entirely (the common case on hit streaks).
        busy_maps = [self.scoreboard.busy_map(core_id)
                     for core_id in all_cores]
        harts = [core.hart for core in cores]
        istats = [core.l1i.stats for core in cores]
        # Block functions return how many instructions they retired but
        # do not touch the pure counters (translate.py module docstring);
        # the visit accrues the counts here and flush_credits settles
        # them wherever they become observable.
        credit = self._credit
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

        def flush_credits(core_ids) -> int:
            """Settle accrued instruction counts into ``hart.instret``,
            ``core.instructions`` and the L1I read statistics; returns
            their sum, which the caller owes to the running total."""
            settled = 0
            for cid in core_ids:
                n = credit[cid]
                if n:
                    credit[cid] = 0
                    harts[cid].instret += n
                    cores[cid].instructions += n
                    istats[cid].reads += n
                    settled += n
            return settled

        # The per-cycle activity tally accumulates in a flat list and is
        # folded into the shared histogram where somebody reads it: the
        # interval sampler (tail hooks) and the loop exit.
        tally = [0] * (config.num_cores + 1)

        def fold_activity() -> None:
            for cores_active, cycles in enumerate(tally):
                if cycles:
                    tally[cores_active] = 0
                    activity[cores_active] = \
                        activity.get(cores_active, 0) + cycles

        advance_cycle = scheduler.advance_cycle
        next_event_cycle = scheduler.next_event_cycle
        max_cycles = config.max_cycles
        clock = time.perf_counter
        # Resume-aware: cores halted before a pause stay halted and the
        # instruction count continues from the previous segment.
        remaining_cores = sum(1 for core in cores if not core.halted)
        total_instructions = self._instructions_total
        watchdog = self.watchdog
        invariants = self.invariants
        # The sampler needs its boundary check on every cycle, so its
        # presence holds every dispatch to one instruction; the other
        # observers are content with the cycles that get visited.
        unit = sampler is not None
        tail_hooks = (unit or heartbeat is not None
                      or watchdog is not None or invariants is not None)
        executed = StepStatus.EXECUTED
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
                now = scheduler.current_cycle
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

                if not live:
                    # Every live core is stalled and only a completion
                    # can wake one: jump to the next event.
                    if next_event is None:
                        total_instructions += flush_credits(all_cores)
                        stalled = [core.core_id for core in cores
                                   if not core.halted]
                        raise deadlock_error(
                            self,
                            f"cores {stalled} stalled with no pending "
                            f"events")
                    if pause_at is not None and next_event >= pause_at:
                        # Stop inside the gap, before the event fires;
                        # the resumed run re-enters this branch and
                        # counts the remaining ``next_event - pause_at +
                        # 1`` stalled cycles, so the split accounting
                        # matches an uninterrupted run exactly.
                        tally[0] += pause_at - now
                        scheduler.advance_to(pause_at)
                        self.paused = True
                        break
                    tally[0] += next_event - now + 1
                    if profiler is not None:
                        wall = clock()
                    scheduler.advance_to(next_event)
                    now = next_event
                else:
                    if profiler is not None:
                        section_start = clock()
                    # No event, pause point or budget edge before
                    # ``bound``: up to there the scheduler is silent and
                    # ending a cycle is ``now += 1``.
                    bound = max_cycles
                    if next_event is not None and next_event < bound:
                        bound = next_event
                    if pause_at is not None and pause_at < bound:
                        bound = pause_at
                    lockstep = tail_hooks or bound <= now
                    # Busy maps fill only by a submission and drain only
                    # by an event, and either ends the stretch below, so
                    # one look covers it: with nothing outstanding no
                    # visit needs the RAW gate.
                    gated = outstanding() != 0
                    if unit or translators is None:
                        budget = gated_budget
                    elif live == 1:
                        budget = MAX_BLOCK
                    else:
                        budget = 0
                    free_budget = budget
                    # ``live`` cores count as active on every cycle of
                    # this stretch (a core leaving ends it), so the
                    # activity tally is one addition at its end.
                    start = now
                    sync = lockstep
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
                                horizon = now if sync else now + MAX_BLOCK
                                while True:
                                    fn = wgets[core_id](harts[core_id].pc)
                                    if fn is None:
                                        fn = translators[core_id].translate(
                                            harts[core_id].pc)
                                    result = fn()
                                    if result.__class__ is not tint:
                                        break
                                    credit[core_id] += result
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
                                    credit[core_id] += result
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
                                credit[core_id] += span
                                now += span - 1
                                misses = result.misses
                            else:
                                # No translated progress (fetch miss,
                                # untranslatable instruction, translation
                                # off): one interpreter step.  It may
                                # read the clock (rdcycle) and instret
                                # (rdinstret): settle both first.
                                scheduler.current_cycle = now
                                if credit[core_id]:
                                    total_instructions += \
                                        flush_credits((core_id,))
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
                                    total_instructions += 1
                                    ring[(now + 1) & 127].append(core_id)
                                    continue
                                misses = None
                                if outcome is not None:
                                    misses = outcome.misses
                                    status = outcome.status
                                    if status is executed:
                                        total_instructions += 1
                                    elif status is fetch_miss:
                                        fetch_stall = True

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
                    scheduler.current_cycle = now
                    tally[live] += now - start + sync
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
                if tail_hooks:
                    # Every observer needs the credits settled first.
                    total_instructions += flush_credits(all_cores)
                    if sampler is not None:
                        fold_activity()
                        sampler.maybe_sample(now)
                    if heartbeat is not None:
                        heartbeat.maybe_heartbeat(now, total_instructions,
                                                  scheduler.events_fired)
                    if watchdog is not None:
                        watchdog.observe(now, total_instructions,
                                         scheduler.events_fired)
                    if invariants is not None:
                        invariants.maybe_check(now, total_instructions)
        finally:
            # Settle what the loop deferred: the ring's due cycles into
            # ``_resume_at`` (every entry sits in ``[now, now + 64]``),
            # the credits, the activity tally.
            self._ring = None
            for slot, bucket in enumerate(ring):
                if bucket:
                    cycle = now + ((slot - now) & 127)
                    for core_id in bucket:
                        resume[core_id] = cycle
            total_instructions += flush_credits(all_cores)
            fold_activity()
        return total_instructions

    def _cycle_loop_reference(self, sampler, chrome, profiler, heartbeat,
                              pause_at: int | None = None) -> int:
        """The original per-cycle loop, kept verbatim as the behavioural
        reference for the differential tests.

        It operates on ``_active_set`` with a fresh ``sorted()`` every
        cycle (the optimised loop and the reference loop never run in
        the same simulation).
        """
        config = self.config
        scheduler = self.scheduler
        cores = self.cores
        states = self._states
        scoreboard = self.scoreboard
        active = self._active_set
        remaining_cores = sum(1 for core in cores if not core.halted)
        total_instructions = self._instructions_total
        watchdog = self.watchdog
        invariants = self.invariants
        clock = time.perf_counter

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
                if profiler is not None:
                    section_start = clock()
                while scheduler.current_cycle < next_event:
                    scheduler.advance_cycle()
                scheduler.advance_cycle()
                if profiler is not None:
                    profiler.sparta_seconds += clock() - section_start
                if sampler is not None:
                    sampler.maybe_sample(scheduler.current_cycle)
                if heartbeat is not None:
                    heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                              total_instructions,
                                              scheduler.events_fired)
                if watchdog is not None:
                    watchdog.observe(scheduler.current_cycle,
                                     total_instructions,
                                     scheduler.events_fired)
                if invariants is not None:
                    invariants.maybe_check(scheduler.current_cycle)
                continue

            active_now = len(active)
            self._activity[active_now] = \
                self._activity.get(active_now, 0) + 1

            if profiler is not None:
                section_start = clock()
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
                        total_instructions += 1
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
            if profiler is not None:
                now_wall = clock()
                profiler.spike_seconds += now_wall - section_start
                section_start = now_wall

            scheduler.advance_cycle()
            if profiler is not None:
                profiler.sparta_seconds += clock() - section_start
            if sampler is not None:
                sampler.maybe_sample(scheduler.current_cycle)
            if heartbeat is not None:
                heartbeat.maybe_heartbeat(scheduler.current_cycle,
                                          total_instructions,
                                          scheduler.events_fired)
            if watchdog is not None:
                watchdog.observe(scheduler.current_cycle,
                                 total_instructions,
                                 scheduler.events_fired)
            if invariants is not None:
                invariants.maybe_check(scheduler.current_cycle)
        return total_instructions

    # -- telemetry --------------------------------------------------------------

    def _collect_telemetry_values(self) -> dict[str, float]:
        """One flat snapshot of every counter the sampler tracks.

        Hierarchy counters keep their dotted unit names; functional-side
        aggregates are added under ``cores.*`` and the activity
        histogram under ``activity.<N>``.
        """
        values = self.hierarchy.collect_values()
        instructions = 0
        l1d_accesses = l1d_misses = l1i_accesses = l1i_misses = 0
        for core in self.cores:
            instructions += core.instructions
            l1d = core.l1d.stats
            l1i = core.l1i.stats
            l1d_accesses += l1d.accesses
            l1d_misses += l1d.misses
            l1i_accesses += l1i.accesses
            l1i_misses += l1i.misses
        values["cores.instructions"] = instructions
        values["cores.l1d_accesses"] = l1d_accesses
        values["cores.l1d_misses"] = l1d_misses
        values["cores.l1i_accesses"] = l1i_accesses
        values["cores.l1i_misses"] = l1i_misses
        for count, cycles in self._activity.items():
            values[f"activity.{count}"] = cycles
        return values

    # -- results ---------------------------------------------------------------

    def _build_results(self, total_instructions: int,
                       wall_seconds: float) -> SimulationResults:
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
            instructions=total_instructions,
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
