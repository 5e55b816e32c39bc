"""Read-only views over live simulation state.

Shared by the watchdog (diagnostic snapshots) and the invariant checker
(conservation checks): both need to answer "where, physically, is every
in-flight request right now?"  An outstanding L1 miss lives in exactly
one of three places — the scheduler's event queue (in transit on the
NoC or inside a latency), a bank's MSHR waiter list, or a bank's
pending queue — so scanning those three containers accounts for every
request the hierarchy still owes a response.
"""

from __future__ import annotations

from repro.memhier.noc import NocMessage
from repro.memhier.request import MemRequest


def _describe_request(request: MemRequest, now: int, where: str) -> dict:
    return {
        "request_id": request.request_id,
        "member_ids": list(request.member_ids),
        "core_id": request.core_id,
        "line_address": request.line_address,
        "kind": request.kind.value,
        "issue_cycle": request.issue_cycle,
        "age": now - request.issue_cycle,
        "where": where,
    }


def in_flight_requests(orchestrator) -> list[dict]:
    """Every response-needing request physically present in the
    hierarchy, with its location and age."""
    now = orchestrator.scheduler.current_cycle
    hierarchy = orchestrator.hierarchy
    found: list[dict] = []

    def wants_response(request) -> bool:
        return (isinstance(request, MemRequest)
                and request.request_id >= 0
                and request.kind.needs_response
                and not request.duplicate)

    for _cycle, _seq, _callback, args \
            in orchestrator.scheduler.iter_events():
        for arg in args:
            if isinstance(arg, NocMessage):
                # Contention-model traffic wraps its payload in a
                # NocMessage while hopping between routers.
                arg = arg.payload
            if wants_response(arg):
                found.append(_describe_request(arg, now, "scheduler"))
    for bank in hierarchy.all_cache_banks():
        for line, waiters in bank._mshrs.items():
            for waiter in waiters:
                if wants_response(waiter):
                    found.append(_describe_request(
                        waiter, now, f"{bank.path}.mshr[{line:#x}]"))
        for queued in bank._pending:
            if wants_response(queued):
                found.append(_describe_request(
                    queued, now, f"{bank.path}.pending_queue"))
    return found


def in_network_messages(orchestrator) -> int:
    """The number of :class:`NocMessage` objects physically present in
    the scheduler — the ground truth the mesh/torus occupancy gauge and
    flit-conservation invariant are checked against.  At a cycle-loop
    boundary every in-network message owns exactly one pending event
    (its next hop or its delivery)."""
    count = 0
    for _cycle, _seq, _callback, args \
            in orchestrator.scheduler.iter_events():
        for arg in args:
            if isinstance(arg, NocMessage):
                count += 1
    return count


def core_states(orchestrator) -> list[dict]:
    """Per-core execution/stall state at the current cycle."""
    now = orchestrator.scheduler.current_cycle
    result = []
    for core, state in zip(orchestrator.cores, orchestrator._states):
        core_id = core.core_id
        if core.halted:
            mode = "halted"
        elif core_id in orchestrator._active_set:
            mode = "active"
        elif state.waiting_fetch_id is not None:
            mode = "fetch-stall"
        elif core_id in orchestrator._raw_waiting:
            mode = "raw-stall"
        else:
            mode = "stalled"
        entry = {
            "core_id": core_id,
            "pc": core.hart.pc,
            "state": mode,
            "instructions": core.instructions,
            "waiting_fetch_id": state.waiting_fetch_id,
            "busy_registers": sorted(
                f"{bank}{index}" for bank, index
                in orchestrator.scoreboard.busy_registers(core_id)),
        }
        if mode not in ("active", "halted"):
            entry["stalled_for"] = now - state.stall_start
        result.append(entry)
    return result


def pending_misses(orchestrator) -> list[dict]:
    """Every scoreboard entry still awaiting completion."""
    return [
        {
            "miss_id": miss.miss_id,
            "core_id": miss.core_id,
            "registers": sorted(f"{bank}{index}"
                                for bank, index in miss.registers),
        }
        for miss in orchestrator.scoreboard.pending()
    ]


def orphaned_misses(orchestrator,
                    in_flight: list[dict] | None = None) -> list[dict]:
    """Scoreboard entries with no physically-present request.

    A non-empty result means a response was lost (a dropped message, or
    a real model bug): the core will wait forever.  This is the needle
    a deadlock diagnosis needs — *which* request vanished.
    """
    if in_flight is None:
        in_flight = in_flight_requests(orchestrator)
    present: set[int] = set()
    for entry in in_flight:
        present.add(entry["request_id"])
        present.update(entry["member_ids"])
    return [miss for miss in pending_misses(orchestrator)
            if miss["miss_id"] not in present]


def bank_states(orchestrator) -> list[dict]:
    """MSHR and queue occupancy of every cache bank."""
    now = orchestrator.scheduler.current_cycle
    result = []
    for bank in orchestrator.hierarchy.all_cache_banks():
        result.append({
            "bank": bank.path,
            "mshrs": {
                f"{line:#x}": {
                    "waiters": [waiter.request_id for waiter in waiters],
                    "oldest_age": max(
                        (now - waiter.issue_cycle for waiter in waiters),
                        default=0),
                }
                for line, waiters in bank._mshrs.items()
            },
            "pending_queue": len(bank._pending),
        })
    return result


def noc_state(orchestrator) -> dict:
    """Interconnect congestion at the current cycle.

    Under the contention-modelled mesh/torus this is the structured
    ``congestion_report`` (per-link/per-router traversal counts and
    queueing totals) plus the *live* arbitration frontier: for each
    directed link whose next free slot lies in the future, how many
    cycles of backlog have already been granted — the queue depth a
    message arriving now would sit behind.  A deadlock snapshot showing
    a deep ``busy_links`` entry names the wire the wedge is parked on.

    The latency-only crossbar has no queues; its state is the
    per-endpoint port-wire counts.
    """
    noc = orchestrator.hierarchy.noc
    now = orchestrator.scheduler.current_cycle
    if hasattr(noc, "congestion_report"):
        state = noc.congestion_report()
        state["topology"] = noc.noc_config.kind
        state["busy_links"] = noc.busy_links(now)
        return state
    return {
        "topology": "crossbar",
        "ports": {f"{endpoint}.{direction}": count
                  for (endpoint, direction), count
                  in sorted(noc.link_utilisation().items())},
    }


def memctrl_states(orchestrator) -> list[dict]:
    """Channel backlog of every memory controller."""
    now = orchestrator.scheduler.current_cycle
    return [
        {
            "controller": mc.path,
            "busy_until": mc.busy_until,
            "backlog_cycles": max(0, mc.busy_until - now),
        }
        for mc in orchestrator.hierarchy.memory_controllers
    ]
