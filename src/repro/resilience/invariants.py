"""Periodic conservation checks over live simulation state.

The simulator's correctness rests on a handful of conservation laws:
every response-needing request is physically somewhere, every busy
scoreboard register is owned by a pending miss, every MSHR gauge agrees
with the MSHR file it mirrors.  A model bug (or a ``drop`` fault) that
violates one of them normally surfaces minutes later as a hang or a
wrong statistic; the :class:`InvariantChecker` catches it at the next
check boundary and raises :class:`InvariantViolation` naming the
component and the numbers that disagree.

The checks only run at cycle-loop boundaries (between simulated
cycles), where the event-driven state is quiescent: no callback is
mid-flight, so a request is in *exactly one* of the scheduler queue, an
MSHR waiter list, or a bank pending queue.
"""

from __future__ import annotations

from repro.coyote.errors import SimulationError
from repro.memhier.noc import MeshNoC
from repro.resilience import introspect


class InvariantViolation(SimulationError):
    """A conservation law of the simulation state no longer holds.

    ``violations`` is the structured list of everything the check found
    wrong (each entry names the invariant and the offending component);
    ``cycle`` is the check cycle.
    """

    def __init__(self, message: str, violations: list[dict], cycle: int):
        super().__init__(message, cycle=cycle)
        self.violations = violations
        self.cycle = cycle


class InvariantChecker:
    """Runs the conservation checks every ``interval`` cycles.

    The orchestrator calls :meth:`maybe_check` once its clock reaches
    :attr:`due`; :meth:`check` can also be called directly (tests,
    post-mortem inspection) and returns the violation list instead of
    raising when ``raise_on_violation`` is False.
    """

    def __init__(self, orchestrator, interval: int):
        if interval < 1:
            raise ValueError(
                f"invariant interval must be >= 1, got {interval}")
        self.orchestrator = orchestrator
        self.interval = interval
        self.checks_run = 0
        self._next_check = interval
        self._last_cycle = -1
        self._last_events_fired = -1

    @property
    def due(self) -> int:
        """The first cycle at which :meth:`maybe_check` checks."""
        return self._next_check

    def maybe_check(self, cycle: int,
                    instructions: int | None = None) -> None:
        """Run the full check once ``interval`` cycles have passed."""
        if cycle < self._next_check:
            return
        self._next_check = cycle + self.interval
        self.check(instructions=instructions)

    # -- the checks ------------------------------------------------------------

    def check(self, raise_on_violation: bool = True,
              instructions: int | None = None) -> list[dict]:
        """Run every conservation check against the live state.

        ``instructions`` is the retire total the caller's other
        observers were shown (both cycle loops pass it).  It is accepted
        but unused: retire conservation is checked per core.
        """
        orchestrator = self.orchestrator
        scheduler = orchestrator.scheduler
        cycle = scheduler.current_cycle
        violations: list[dict] = []

        # Time and event counts only move forward.
        if cycle < self._last_cycle:
            violations.append({
                "invariant": "monotonic_cycle",
                "component": "scheduler",
                "detail": f"cycle moved backwards: {self._last_cycle} "
                          f"-> {cycle}",
            })
        if scheduler.events_fired < self._last_events_fired:
            violations.append({
                "invariant": "monotonic_events",
                "component": "scheduler",
                "detail": f"events_fired moved backwards: "
                          f"{self._last_events_fired} -> "
                          f"{scheduler.events_fired}",
            })
        self._last_cycle = cycle
        self._last_events_fired = scheduler.events_fired

        # Request conservation: submitted == completed + physically
        # in flight.  A shortfall means a response was lost (a dropped
        # message or a real accounting bug); an excess means something
        # was counted twice.
        in_flight = introspect.in_flight_requests(orchestrator)
        outstanding = orchestrator.hierarchy.outstanding()
        if outstanding != len(in_flight):
            violations.append({
                "invariant": "request_conservation",
                "component": "hierarchy",
                "detail": f"{outstanding} requests outstanding by the "
                          f"books but {len(in_flight)} physically in "
                          f"flight",
                "outstanding": outstanding,
                "in_flight": len(in_flight),
            })

        # Scoreboard <-> hierarchy: every pending miss must have a
        # physical request that will eventually complete it.
        orphans = introspect.orphaned_misses(orchestrator, in_flight)
        if orphans:
            violations.append({
                "invariant": "no_orphaned_misses",
                "component": "scoreboard",
                "detail": "scoreboard entries with no physical request: "
                          + ", ".join(
                              f"miss {miss['miss_id']} of core "
                              f"{miss['core_id']}" for miss in orphans),
                "orphans": orphans,
            })

        # NoC flit conservation (mesh/torus contention model): the
        # link queues must neither lose nor duplicate messages, and the
        # occupancy gauge must agree with the event queue.
        noc = orchestrator.hierarchy.noc
        if isinstance(noc, MeshNoC):
            violations.extend(noc.check_conservation(
                introspect.in_network_messages(orchestrator)))

        # Scoreboard internal consistency: the per-register busy
        # refcounts must equal a recount over the pending misses.
        violations.extend(self._check_scoreboard(orchestrator))

        # Retire conservation: translated blocks commit their retire
        # counts and fetches at every exit, as a step does.
        violations.extend(self._check_retire(orchestrator))

        # The L1I's MRU shadow, which translated fetch probes trust.
        violations.extend(self._check_mru_shadow(orchestrator))

        # Per-bank structural checks.
        for bank in orchestrator.hierarchy.all_cache_banks():
            violations.extend(self._check_bank(bank))

        self.checks_run += 1
        if violations and raise_on_violation:
            names = sorted({entry["invariant"] for entry in violations})
            raise InvariantViolation(
                f"invariant check failed at cycle {cycle}: "
                f"{len(violations)} violation(s) [{', '.join(names)}]; "
                f"first: {violations[0]['detail']}",
                violations, cycle)
        return violations

    @staticmethod
    def _check_scoreboard(orchestrator) -> list[dict]:
        scoreboard = orchestrator.scoreboard
        violations = []
        expected: dict[int, dict] = {}
        for miss in scoreboard.pending():
            per_core = expected.setdefault(miss.core_id, {})
            for reg in miss.registers:
                per_core[reg] = per_core.get(reg, 0) + 1
        for core in orchestrator.cores:
            core_id = core.core_id
            actual = scoreboard.busy_map(core_id)
            if actual != expected.get(core_id, {}):
                violations.append({
                    "invariant": "scoreboard_refcounts",
                    "component": f"core{core_id}",
                    "detail": f"core {core_id} busy-register refcounts "
                              f"disagree with its pending misses: "
                              f"busy={dict(actual)} "
                              f"expected={expected.get(core_id, {})}",
                })
        return violations

    @staticmethod
    def _check_retire(orchestrator) -> list[dict]:
        """A core's retire count (``instret``) and its L1I read
        statistics must have moved together."""
        violations = []
        for core in orchestrator.cores:
            core_id = core.core_id
            # Every step fetches once: a retire, a fetch miss, or the
            # one ``ecall`` that halts a hart without retiring.
            fetches = core.l1i.stats.reads - core.fetch_stalls
            if fetches != core.instructions and not (
                    core.halted and fetches == core.instructions + 1):
                violations.append({
                    "invariant": "retire_conservation",
                    "component": f"core{core_id}",
                    "detail": f"core {core_id} retired "
                              f"{core.instructions} instructions but "
                              f"its L1I served {fetches} fetches "
                              f"(reads minus fetch misses)",
                })
        return violations

    @staticmethod
    def _check_mru_shadow(orchestrator) -> list[dict]:
        """On every core's L1I, a shadow entry that names a tag must
        name the newest way of its set (``L1Cache._mru``): a block
        skips the LRU touch of a fetch on the strength of it."""
        violations = []
        for core in orchestrator.cores:
            l1i = core.l1i
            for index, (tag, ways) in enumerate(zip(l1i._mru, l1i._sets)):
                newest = next(reversed(ways), -1)
                if tag not in (-1, newest):
                    violations.append({
                        "invariant": "l1_mru_shadow",
                        "component": l1i.name,
                        "detail": f"{l1i.name} set {index}: the MRU "
                                  f"shadow names line {tag:#x} but the "
                                  f"newest way is {newest:#x}",
                    })
        return violations

    @staticmethod
    def _check_bank(bank) -> list[dict]:
        violations = []
        mshrs = len(bank._mshrs)
        if mshrs > bank.max_in_flight:
            violations.append({
                "invariant": "mshr_capacity",
                "component": bank.path,
                "detail": f"{bank.path} holds {mshrs} MSHRs, limit "
                          f"{bank.max_in_flight}",
            })
        occupancy = bank._stat_occupancy.value
        if occupancy != mshrs:
            violations.append({
                "invariant": "mshr_gauge",
                "component": bank.path,
                "detail": f"{bank.path} occupancy gauge says "
                          f"{occupancy} but the MSHR file holds {mshrs}",
            })
        queued = bank._stat_queue.value
        if queued != len(bank._pending):
            violations.append({
                "invariant": "pending_gauge",
                "component": bank.path,
                "detail": f"{bank.path} pending gauge says {queued} but "
                          f"the queue holds {len(bank._pending)}",
            })
        # A line with an in-flight fill must not simultaneously be
        # resident: its install happens only when the fill returns, and
        # a resident line never allocates an MSHR (the late-hit
        # re-check guarantees it).
        resident = [line for line in bank._mshrs
                    if bank.tags.contains(line)]
        if resident:
            violations.append({
                "invariant": "mshr_tags_disjoint",
                "component": bank.path,
                "detail": f"{bank.path} lines both resident and "
                          f"awaiting a fill: "
                          + ", ".join(f"{line:#x}" for line in resident),
            })
        return violations
