"""The multi-node cluster tier: one dispatcher, N node executors.

:class:`ClusterDispatcher` scales the durable campaign service past one
host.  It owns the authoritative journal/store/cache at the cluster root
(the single-node layout, so ``coyote-sim jobs`` and
``repro.api.status/result`` read a cluster root unchanged) and grants
points to :class:`ClusterNode` executors over a pluggable
:class:`~repro.service.transport.Transport`: a shared filesystem between
processes and hosts, in-process deques for deterministic tests.  A node
runs the campaign executor itself, over a :class:`GrantStore`, so the
deadlines its workers are held to, the reaping, the pool and the
spawn-failure ladder are the service's own code.

Robust by construction:

* **Grants are fenced leases.**  The dispatcher claims each point on a
  node's behalf; the claim mints a monotonic fencing token which rides
  the grant — with the dispatcher's deadlines — and is echoed on every
  ``complete``/``failure``/``release``.  A SIGSTOP'd zombie node that
  wakes after its lease was reaped and re-granted sends a stale token,
  as does a node that sends none or one it was never granted; the store
  rejects the write *before* journaling
  (:class:`~repro.service.store.StaleWriteError`), records a durable
  ``stale_write`` event, and the journal keeps one ``complete`` a point.
* **Every death is charged once, by the dispatcher.**  A node reports a
  worker it reaped or lost as a fenced ``failure``; a node silent past
  its deadline is declared dead and its leases reaped under the fences
  they hold.  Both go through the executor's one ``_record_failure``
  and the dispatcher's seeded
  :class:`~repro.resilience.supervisor.RetryPolicy`.
* **The transport is allowed to misbehave.**  Every message may be
  dropped, delayed, duplicated, or partitioned away (see
  :class:`~repro.service.transport.FaultyTransport`); lost grants
  expire, duplicate completes are rejected by the fence, and the
  campaign still drains to a :class:`~repro.coyote.sweep.SweepTable`
  bit-identical to a serial sweep.
* **Degradation is graceful, not silent.**  A cluster whose nodes all
  die (or never arrive) takes the first step of the executor's one
  ladder, ``cluster → N → N/2 → … → 1 → in-process``: the dispatcher
  runs the remaining points itself.  Each step logs a
  :class:`~repro.resilience.supervisor.DegradationEvent`, surfaced on
  the final table's host-side ``degradations`` field.

A node owns nothing durable: it never touches the journal and writes
only content-addressed cache entries (same key => same bytes, atomic
replace), so a zombie's cache write is harmless.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace
from functools import partialmethod
from pathlib import Path
from typing import Any, Callable

from repro.service.cache import ResultCache
from repro.service.service import (
    CampaignExecutor,
    CampaignService,
    held_lease,
)
from repro.service.store import ServiceError
from repro.service.transport import (
    FaultyTransport,
    FilesystemTransport,
    ServiceFaultPlan,
    Transport,
)
from repro.telemetry.campaign import CampaignMetrics

__all__ = [
    "ClusterDispatcher",
    "ClusterNode",
    "GrantStore",
    "NodeRegistry",
    "DISPATCHER_ENDPOINT",
]

# The dispatcher's transport mailbox name.
DISPATCHER_ENDPOINT = "dispatcher"

# The SupervisorPolicy fields a grant carries: what a node holds the
# point's workers to, and how many pool failures step it down the ladder.
DEADLINES = ("point_timeout_seconds", "heartbeat_interval_seconds",
             "heartbeat_misses", "max_rss_mb", "degrade_after")


class NodeRegistry:
    """Liveness of every node, judged by heartbeat wall-clock age.

    A node is ``alive`` from registration (or its first heartbeat)
    until it stays silent past ``deadline_seconds``; :meth:`reap`
    flips such nodes to dead exactly once and returns them, so the
    dispatcher rebalances each dead node's leases exactly once.  A
    dead node that speaks again (a woken zombie) is simply
    re-registered — its *old* leases are gone and its old fencing
    tokens are dead, so re-admission is safe.
    """

    def __init__(self, deadline_seconds: float,
                 clock: Callable[[], float] = time.time):
        if deadline_seconds <= 0:
            raise ValueError(f"deadline_seconds must be > 0, "
                             f"got {deadline_seconds}")
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self.nodes: dict[str, dict] = {}

    def register(self, node: str, workers: int = 1) -> bool:
        """Admit (or re-admit) a node; True when it was unknown."""
        fresh = node not in self.nodes or not self.nodes[node]["alive"]
        self.nodes[node] = {"workers": workers,
                            "last_seen": self._clock(),
                            "alive": True}
        return fresh

    def heartbeat(self, node: str) -> bool:
        """Refresh a node's deadline; False when the node is unknown
        or was already declared dead (the caller should re-register
        it)."""
        info = self.nodes.get(node)
        if info is None or not info["alive"]:
            return False
        info["last_seen"] = self._clock()
        return True

    def alive(self) -> list[str]:
        return [node for node, info in self.nodes.items()
                if info["alive"]]

    def age(self, node: str) -> float:
        info = self.nodes[node]
        return self._clock() - info["last_seen"]

    def reap(self) -> list[str]:
        """Declare overdue nodes dead (once each) and return them."""
        now = self._clock()
        dead = []
        for node, info in self.nodes.items():
            if info["alive"] and \
                    now - info["last_seen"] > self.deadline_seconds:
                info["alive"] = False
                dead.append(node)
        return dead


class GrantStore:
    """The store a node's executor claims its dispatcher's grants from.

    ``claim`` pops the oldest grant; ``complete``, ``attempt`` and
    ``release`` go to the dispatcher as ``complete``, ``failure`` and
    ``release`` under the grant's fence, for its store to judge.  No
    lease expires here: the dispatcher's does, unless a node heartbeat
    lists the grant.
    """

    def __init__(self, send: Callable[[dict], None]):
        self.send = send
        self.grants: list[dict] = []
        self.jobs: dict[str, dict] = {}   # the claimed grant, by its job
        self.shutdown = False

    def claim(self, *_lease_terms: Any, **_eligible: Any):
        if not self.grants:
            return None
        grant = self.grants.pop(0)
        self.jobs = {grant["job"]: grant}
        # The grant is the point's record: index, settings, cache key,
        # and the lease's fence.
        return grant["job"], {**grant, "lease": grant, "attempts": ()}

    def _write(self, kind: str, job_id: str, index: int, *, fence: int,
               **fields: Any) -> None:
        self.send({"type": kind, "job": job_id, "index": index,
                   "fence": fence, **fields})

    complete = partialmethod(_write, "complete")
    attempt = partialmethod(_write, "failure")
    release = partialmethod(_write, "release")

    def expired_leases(self, now: float) -> list:
        return []

    def outstanding_points(self) -> int:
        return len(self.grants)

    active_leases = outstanding_points   # a queued grant is a held lease

    def has_work(self) -> bool:
        return not self.shutdown or bool(self.grants)


class ClusterNode(CampaignExecutor):
    """One node: the campaign executor over a :class:`GrantStore`.

    It registers, heartbeats the grants it holds and requests work for
    idle slots; the rest is the executor's loop.  A grant runs in a pool
    worker held to the deadlines the grant carries, its dispatcher's; a
    result is cached and reported, a reaped or dead worker reported as a
    ``failure`` for the dispatcher to charge, and a spawn the host
    refuses released, uncharged, while the node steps down the ladder.
    It holds no durable state and takes no locks: killing it loses only
    its in-flight leases, which expire and rebalance.
    """

    def __init__(self, root: str | Path, node_id: str | None = None,
                 transport: Transport | None = None, *,
                 workers: int = 1, heartbeat_seconds: float = 0.5,
                 clock: Callable[[], float] = time.time,
                 mp_context: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        super().__init__(GrantStore(self._send),
                         ResultCache(self.root / "cache"), slots=workers,
                         mp_context=mp_context)
        # Host- and pid-qualified, collision-resistant: the executor's id.
        self.node_id = node_id or self.worker_id.replace(":", "-")
        self.transport = transport if transport is not None \
            else FilesystemTransport(self.root, self.node_id)
        self.heartbeat_seconds = heartbeat_seconds
        self._clock = clock
        self._registered = False
        self._last_beat = float("-inf")
        self._last_request = float("-inf")

    # -- outbound ----------------------------------------------------------

    def _send(self, message: dict) -> None:
        message.setdefault("node", self.node_id)
        self.transport.send(DISPATCHER_ENDPOINT, message)

    def _speak(self) -> None:
        """Heartbeat the grants held, queued or running, and ask for work
        for idle slots, each at most once a ``heartbeat_seconds``.  Only
        the leases listed are renewed: a grant lost in transit expires
        and rebalances, not renewed forever by an oblivious node."""
        now = self._clock()
        held = [[grant["job"], grant["index"]] for grant in self.store.grants]
        held += [[worker.context["job_id"], worker.index]
                 for worker in self.pool.workers]
        if now - self._last_beat >= self.heartbeat_seconds:
            self._last_beat = now
            self._send({"type": "heartbeat", "held": held})
        slots = max(self.slots, 1) - len(held)
        if slots > 0 and not self.store.shutdown \
                and now - self._last_request >= self.heartbeat_seconds:
            self._last_request = now
            self._send({"type": "request", "slots": slots})

    def _record_failure(self, lease: dict, outcome: str,
                        exit_code: int | None, tail: str,
                        beats: list = ()) -> None:
        """A death here is the dispatcher's to charge, by its policy."""
        self._fenced(lease, self.store.attempt, outcome=outcome,
                     exit_code=exit_code, stderr_tail=tail,
                     heartbeats=[list(beat) for beat in beats])

    # -- inbound -----------------------------------------------------------

    def _drain_mailbox(self) -> bool:
        progressed = False
        for message in self.transport.receive(self.node_id):
            kind = message.get("type")
            if kind == "grant":
                if not self.store.shutdown:
                    self._hold_to(message["deadlines"])
                    self.store.grants.append(message)
                    progressed = True
                # A grant after shutdown is ignored; its lease expires
                # and the point rebalances.
            elif kind == "shutdown":
                self.store.shutdown = True
                progressed = True
        return progressed

    def _hold_to(self, deadlines: dict) -> None:
        """Take on the deadlines a grant carries, its dispatcher's."""
        policy = replace(self.policy, **deadlines)
        if policy != self.policy:
            self.policy = policy
            self.pool.retire()   # idle workers beat at the old cadence
            self.pool.heartbeat_seconds = self._beat_seconds()

    # -- the node loop -----------------------------------------------------

    def step(self) -> bool:
        """One protocol turn around the executor's; returns True when
        anything progressed.

        Exposed so deterministic tests can interleave dispatcher and
        node turns explicitly instead of racing threads.
        """
        if not self._registered:
            self._send({"type": "register", "workers": self.slots})
            self._registered = True
        progressed = self._drain_mailbox()
        progressed |= super().step()
        self._speak()
        return progressed

    def run(self, *, max_seconds: float | None = None,
            stop: Callable[[], bool] | None = None) -> int:
        """Serve until the dispatcher says shutdown (or ``stop``); a
        worker still running then is stopped and its grant released."""
        try:
            return super().run(max_seconds=max_seconds, stop=stop)
        finally:
            self._drain()
            self.transport.close()


class ClusterDispatcher(CampaignService):
    """The cluster-level coordinator over N node executors.

    A :class:`~repro.service.service.CampaignService` that *grants*
    points to remote nodes over a transport instead of (only) running
    them locally.  All single-node behaviour is inherited — journal
    ownership, inbox ingestion, bounded queue, cache-hit service,
    expired-lease reaping, retry/quarantine policy — and stays the
    degradation target: it starts with no local slots (``slots is
    None``: every point is granted out), and when every node is dead
    or none ever arrives the ladder gives it ``local_workers`` of them.
    """

    def __init__(self, root: str | Path,
                 transport: Transport | None = None, *,
                 fault_plan: ServiceFaultPlan | None = None,
                 node_deadline_seconds: float | None = None,
                 grace_seconds: float = 5.0, local_workers: int = 1,
                 clock: Callable[[], float] = time.time,
                 monitor: CampaignMetrics | None = None,
                 **service_kwargs: Any):
        super().__init__(root, workers=local_workers, monitor=monitor,
                         **service_kwargs)
        self.slots = None   # the cluster rung: every point is granted out
        base = transport if transport is not None \
            else FilesystemTransport(self.root, DISPATCHER_ENDPOINT)
        if fault_plan is not None:
            base = FaultyTransport(base, fault_plan)
        self.transport = base
        self.grace_seconds = grace_seconds
        self._clock = clock
        if node_deadline_seconds is None:
            node_deadline_seconds = self.lease_seconds
        self.registry = NodeRegistry(node_deadline_seconds, clock=clock)
        self._started = clock()
        self._ever_had_nodes = False

    def _now(self) -> float:
        return self._clock()

    # -- transport protocol ------------------------------------------------

    def _pump_transport(self) -> bool:
        progressed = False
        for message in self.transport.receive(DISPATCHER_ENDPOINT):
            handler = getattr(
                self, f"_on_{message.get('type', 'unknown')}", None)
            if handler is None:
                continue  # unknown message kinds are dropped
            handler(message)
            progressed = True
        return progressed

    def _on_register(self, message: dict) -> None:
        node = str(message["node"])
        workers = int(message.get("workers", 1))
        if self.registry.register(node, workers):
            self.monitor.count(
                "nodes_registered", f"cluster: node {node} registered "
                                    f"({workers} worker slot(s))")
            self.monitor.node_gauges[node] = {"last_seen_age": 0.0,
                                              "leases_held": 0}
        self._ever_had_nodes = True

    def _on_heartbeat(self, message: dict) -> None:
        node = str(message["node"])
        if not self.registry.heartbeat(node):
            # A node we never met (or met before a restart), or one
            # declared dead (a woken zombie, its leases reaped): admit
            # it fresh and renew what it still holds.
            self._on_register(message)
        held_keys = set()
        for entry in message.get("held") or []:
            if isinstance(entry, (list, tuple)) and len(entry) >= 2:
                held_keys.add((str(entry[0]), int(entry[1])))
        self.monitor.count("node_heartbeats")
        self.monitor.node_gauges[node] = {
            "last_seen_age": round(self.registry.age(node), 3),
            "leases_held": len(held_keys)}
        # A heartbeat renews exactly the leases the node acknowledges.
        # A lease the node does not know about (its grant was dropped
        # in transit) is deliberately left to expire and rebalance.
        for job_id, point in self._node_leases(node):
            if (job_id, point["index"]) in held_keys:
                self._renew(held_lease(job_id, point))

    def _on_request(self, message: dict) -> None:
        node = str(message["node"])
        if node not in self.registry.alive():
            return  # no grants for the silent or unknown
        slots = max(0, int(message.get("slots", 1)))
        for _slot in range(slots):
            if not self._grant(node):
                break

    def _node_write(self, message: dict) -> None:
        """A node's ``complete``, ``failure`` or ``release``, applied by
        the executor's own path under whatever fence it sent (the store's
        check judges it).  A write naming no known point is dropped."""
        job_id, index = message["job"], int(message["index"])
        if not 0 <= index < len(
                self.store.jobs.get(job_id, {}).get("points", ())):
            return
        lease = {"job_id": job_id, "index": index,
                 "fence": message.get("fence")}
        kind = message["type"]
        if kind == "complete":
            outcome = "complete" if self._settle(lease, message) else "stale"
        elif kind == "release":   # the node could not start it: uncharged
            outcome = "released"
            self._release(lease)
        else:
            outcome = str(message.get("outcome", "crash"))
            self._record_failure(lease, outcome, message.get("exit_code"),
                                 str(message.get("stderr_tail", "")),
                                 message.get("heartbeats") or ())
        self._grant_settled(str(message.get("node", "?")), lease, outcome)

    _on_complete = _on_failure = _on_release = _node_write

    def _grant(self, node: str) -> bool:
        lease = self._claim_next(node)
        if lease is None:
            return False
        if lease["settled"]:
            # Cache hits are served dispatcher-side; the node never
            # sees the point.
            return True
        self.transport.send(node, {
            "type": "grant", "src": DISPATCHER_ENDPOINT,
            "job": lease["job_id"], "index": lease["index"],
            "settings": lease["settings"], "spec": lease["spec"],
            "fence": lease["fence"],
            "cache_key": lease["cache_key"],
            "deadlines": {name: getattr(self.policy, name)
                          for name in DEADLINES}})
        self.monitor.count("grants")
        self.monitor.span_open((node, lease["job_id"], lease["index"]))
        return True

    def _grant_settled(self, node: str, lease: dict, outcome: str) -> None:
        job_id, index = lease["job_id"], lease["index"]
        self.monitor.span_close((node, job_id, index),
                                f"{job_id}[{index}]", node,
                                node=node, outcome=outcome)

    def _node_leases(self, node: str) -> list[tuple[str, dict]]:
        return [(job_id, point) for job_id, point in self.store.leases()
                if point["lease"].get("worker") == node]

    # -- node death and rebalancing ----------------------------------------

    def _reap_dead_nodes(self) -> bool:
        progressed = False
        for node in self.registry.reap():
            leases = self._node_leases(node)
            self.monitor.node_gauges.pop(node, None)
            self.monitor.count(
                "nodes_dead",
                f"cluster: node {node} declared dead (silent "
                f"{self.registry.age(node):.1f}s, {len(leases)} "
                f"lease(s) to rebalance)")
            for job_id, point in leases:
                lease = held_lease(job_id, point)
                self._grant_settled(node, lease, "node-lost")
                self.monitor.count(
                    "rebalanced", f"cluster: {job_id}[{point['index']}] "
                                  f"reaped from dead node {node}; point "
                                  f"re-queued")
                # Charged as an attempt: a lost node's in-flight work
                # is indistinguishable from a wedged point, so the
                # seeded RetryPolicy governs the re-dispatch (and a
                # point that keeps killing nodes quarantines).
                self._record_failure(lease, "node-lost", None, "")
            progressed = True
        return progressed

    # -- the cluster rung of the ladder -----------------------------------

    def _should_degrade(self) -> bool:
        if self.slots is not None or not self.store.has_work():
            return False
        if self.registry.alive():
            return False
        if self._ever_had_nodes:
            return True  # had a fleet, lost it
        return self._now() - self._started > self.grace_seconds

    # -- the dispatcher loop -----------------------------------------------

    def step(self) -> bool:
        """One dispatcher turn (what the inherited ``run`` loops
        over); the unit deterministic tests drive."""
        progressed = self._pump_transport()
        progressed |= self._reap_dead_nodes()
        if self._should_degrade():
            self._degrade(
                "no live nodes; dispatcher running points itself"
                if self._ever_had_nodes else
                f"no node registered within {self.grace_seconds:.1f}s; "
                f"dispatcher running points itself",
                self.workers, from_workers=len(self.registry.nodes))
        return super().step() | progressed

    def close(self) -> None:
        """Tell every node, alive or not, to finish and exit; close."""
        if self._opened:
            for node in list(self.registry.nodes):
                with contextlib.suppress(ServiceError):
                    self.transport.send(node, {"type": "shutdown",
                                               "src": DISPATCHER_ENDPOINT})
            self.transport.close()
        super().close()

