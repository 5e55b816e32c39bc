"""The multi-node cluster tier: one dispatcher, N node executors.

:class:`ClusterDispatcher` scales the durable campaign service past
one host.  It owns the authoritative journal/store/cache at the
cluster root (exactly the single-node layout, so every existing tool —
``coyote-sim jobs``, ``repro.api.status/result`` — reads a cluster
root unchanged) and coordinates :class:`ClusterNode` executors over a
pluggable :class:`~repro.service.transport.Transport`: shared
filesystem between processes/hosts, in-process deques for
deterministic tests.

Robust by construction:

* **Grants are fenced leases.**  The dispatcher claims each point on a
  node's behalf; the claim mints a monotonic fencing token which rides
  the grant and must be echoed on every ``complete``/``failure``.  A
  SIGSTOP'd zombie node that wakes after its lease was reaped and
  re-granted sends a stale token; the store rejects the write *before*
  journaling (:class:`~repro.service.store.StaleWriteError`), records
  a durable ``stale_write`` event, and the journal keeps exactly one
  ``complete`` per point.
* **Nodes are leased too.**  A node registry tracks per-node
  heartbeats against a wall-clock deadline; a silent node is declared
  dead, its leases reaped, and its points rebalanced to live nodes
  under the existing seeded
  :class:`~repro.resilience.supervisor.RetryPolicy` backoff.
* **The transport is allowed to misbehave.**  Every message may be
  dropped, delayed, duplicated, or partitioned away (see
  :class:`~repro.service.transport.FaultyTransport`); lost grants
  expire, duplicate completes are rejected by the fence, and the
  campaign still drains to a :class:`~repro.coyote.sweep.SweepTable`
  bit-identical to a serial sweep.
* **Degradation is graceful, not silent.**  A cluster whose nodes all
  die (or never arrive) takes the first step of the executor's one
  ladder, ``cluster → N → N/2 → … → 1 → in-process``: the dispatcher
  runs the remaining points itself in the inherited worker pool, and
  repeated fork failures step that pool down to in-process execution.
  Each step logs a
  :class:`~repro.resilience.supervisor.DegradationEvent`, surfaced on
  the final table's host-side ``degradations`` field.

The node tier deliberately owns nothing durable: a node never touches
the journal and writes only content-addressed cache entries (same key
=> same bytes, atomic replace), so a zombie's cache write is harmless
and all authority stays with the dispatcher's fenced journal.
"""

from __future__ import annotations

import os
import secrets
import socket
import time
from pathlib import Path
from typing import Any, Callable

from repro.coyote.parallel import PointPool
from repro.coyote.sweep import SweepPoint, run_point
from repro.service.cache import ResultCache
from repro.service.service import (
    CampaignService,
    completion_record,
    spec_recipe,
)
from repro.service.store import (
    DONE_STATES,
    ServiceError,
    StaleWriteError,
)
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
    "NodeRegistry",
    "DISPATCHER_ENDPOINT",
]

# The dispatcher's transport mailbox name.
DISPATCHER_ENDPOINT = "dispatcher"

_POLL_SECONDS = 0.05


def new_node_id() -> str:
    """A fresh node id: host-qualified, collision-resistant."""
    return (f"{socket.gethostname()}-{os.getpid()}-"
            f"{secrets.token_hex(3)}")


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


class ClusterNode:
    """One node-local executor: leases work, runs it, reports fenced.

    The node half of the cluster protocol.  It registers with the
    dispatcher, heartbeats on a wall-clock cadence (which renews every
    lease it holds, dispatcher-side), requests work when it has idle
    worker slots, runs each granted point in a
    :class:`~repro.coyote.parallel.PointPool` worker (the same one as
    the single-node service), writes results into the shared
    content-addressed cache, and reports completion with the grant's
    fencing token echoed back.

    The node holds no durable state and takes no locks: killing it at
    any instant loses nothing but its in-flight leases, which expire
    and rebalance.
    """

    def __init__(self, root: str | Path, node_id: str | None = None,
                 transport: Transport | None = None, *,
                 workers: int = 1, heartbeat_seconds: float = 0.5,
                 clock: Callable[[], float] = time.time,
                 mp_context: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        self.node_id = node_id or new_node_id()
        self.transport = transport if transport is not None \
            else FilesystemTransport(self.root, self.node_id)
        self.workers = workers
        self.heartbeat_seconds = heartbeat_seconds
        self.cache = ResultCache(self.root / "cache")
        self._clock = clock
        # In-flight workers (context: the grant).  No worker heartbeats:
        # the node heartbeats for itself.
        self.pool = PointPool(mp_context)
        self._recipes: tuple = (None, None)   # (job id, its one recipe)
        self._queued: list[dict] = []
        self._registered = False
        self._shutdown = False
        self._last_beat = float("-inf")
        self._last_request = float("-inf")

    # -- outbound ----------------------------------------------------------

    def _send(self, message: dict) -> None:
        message.setdefault("node", self.node_id)
        self.transport.send(DISPATCHER_ENDPOINT, message)

    def _register(self) -> None:
        self._send({"type": "register", "workers": self.workers})
        self._registered = True

    def _held_leases(self) -> list[list]:
        """The (job, index) pairs this node knows it holds — queued or
        running.  Heartbeats carry this list so the dispatcher renews
        exactly these leases: a grant the transport dropped is *not*
        in it, so its lease expires on schedule and rebalances instead
        of being renewed forever by an oblivious node."""
        held = [[grant["job"], grant["index"]]
                for grant in self._queued]
        held += [[worker.context["job"], worker.index]
                 for worker in self.pool.workers]
        return held

    def _beat(self) -> None:
        now = self._clock()
        if now - self._last_beat >= self.heartbeat_seconds:
            self._last_beat = now
            self._send({"type": "heartbeat",
                        "held": self._held_leases()})

    def _request_work(self) -> None:
        slots = self.workers - len(self.pool) - len(self._queued)
        if slots <= 0 or self._shutdown:
            return
        now = self._clock()
        if now - self._last_request >= self.heartbeat_seconds:
            self._last_request = now
            self._send({"type": "request", "slots": slots})

    # -- inbound -----------------------------------------------------------

    def _drain_mailbox(self) -> bool:
        progressed = False
        for message in self.transport.receive(self.node_id):
            kind = message.get("type")
            if kind == "grant":
                if not self._shutdown:
                    self._queued.append(message)
                    progressed = True
                # A grant after shutdown is ignored; its lease expires
                # and the point rebalances.
            elif kind == "shutdown":
                self._shutdown = True
                progressed = True
        return progressed

    # -- execution ---------------------------------------------------------

    def _fill_slots(self) -> bool:
        progressed = False
        while self._queued and len(self.pool) < self.workers:
            grant = self._queued.pop(0)
            if self._recipes[0] != grant["job"]:
                self._recipes = (grant["job"], spec_recipe(grant["spec"]))
            recipe = self._recipes[1]
            try:
                self.pool.spawn(grant["index"], grant["settings"],
                                *recipe, context=grant)
            except OSError:
                # Fork pressure: run the point in-process instead of
                # silently dropping the grant on the floor.
                self._report(grant, run_point(grant["settings"], *recipe))
            progressed = True
        return progressed

    def _report(self, grant: dict, point: SweepPoint) -> None:
        self._send({"type": "complete", "job": grant["job"],
                    "index": grant["index"], "fence": grant.get("fence"),
                    **completion_record(self.cache,
                                        grant.get("cache_key"), point)})

    def _pump(self) -> bool:
        progressed = False
        for kind, worker, *payload in self.pool.poll(_POLL_SECONDS):
            grant = worker.context
            if kind == "result":
                self._report(grant, payload[0])
            else:   # "died" — this pool's worker heartbeats are off
                exit_code, tail = payload
                self._send({"type": "failure", "job": grant["job"],
                            "index": grant["index"],
                            "fence": grant.get("fence"),
                            "outcome": "crash", "exit_code": exit_code,
                            "stderr_tail": tail})
            progressed = True
        return progressed

    # -- the node loop -----------------------------------------------------

    def step(self) -> bool:
        """One protocol turn; returns True when anything progressed.

        Exposed so deterministic tests can interleave dispatcher and
        node turns explicitly instead of racing threads.
        """
        if not self._registered:
            self._register()
        self._beat()
        progressed = self._drain_mailbox()
        progressed |= self._fill_slots()
        progressed |= self._pump()
        self._request_work()
        return progressed

    @property
    def idle(self) -> bool:
        return not self.pool and not self._queued

    def run(self, *, max_seconds: float | None = None,
            stop: Callable[[], bool] | None = None) -> None:
        """Serve until the dispatcher says shutdown (or ``stop``)."""
        deadline = (time.monotonic() + max_seconds
                    if max_seconds is not None else None)
        try:
            while True:
                if stop is not None and stop():
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                progressed = self.step()
                if self._shutdown and self.idle:
                    break
                if not progressed and not self.pool:
                    time.sleep(_POLL_SECONDS)
        finally:
            self.pool.close()
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
            # A node we never met, or one already declared dead (a
            # woken zombie): admit it fresh.  Its old leases are gone;
            # its old fences protect the journal.
            self._on_register(message)
            return
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
            if (job_id, point["index"]) not in held_keys:
                continue
            fence = (point["lease"] or {}).get("fence")
            try:
                self.store.renew(job_id, point["index"], self._now(),
                                 self.lease_seconds, fence=fence)
            except StaleWriteError:
                self._stale_write({"job_id": job_id,
                                   "index": point["index"]})

    def _on_request(self, message: dict) -> None:
        node = str(message["node"])
        if node not in self.registry.alive():
            return  # no grants for the silent or unknown
        slots = max(0, int(message.get("slots", 1)))
        for _slot in range(slots):
            if not self._grant(node):
                break

    def _on_complete(self, message: dict) -> None:
        node = str(message.get("node", "?"))
        job_id, index = message["job"], int(message["index"])
        fence = message.get("fence")
        try:
            point = self.store.jobs[job_id]["points"][index]
        except (KeyError, IndexError):
            return  # a completion for a job this root never had
        if fence is None and point["state"] in DONE_STATES:
            # A duplicate that came back without the token its grant
            # carried: drop it without journaling (a fenced one goes on
            # to _settle, whose check records the rejection durably).
            return
        settled = self._settle(
            {"job_id": job_id, "index": index, "fence": fence}, message)
        self._grant_settled(node, job_id, index,
                            "complete" if settled else "stale")

    def _on_failure(self, message: dict) -> None:
        node = str(message.get("node", "?"))
        job_id, index = message["job"], int(message["index"])
        points = self.store.jobs.get(job_id, {}).get("points", ())
        if not 0 <= index < len(points):
            return  # a failure for a point this root never had
        self._grant_settled(node, job_id, index,
                            message.get("outcome", "failure"))
        self._record_failure(
            {"job_id": job_id, "index": index,
             "fence": message.get("fence")},
            str(message.get("outcome", "crash")),
            message.get("exit_code"),
            str(message.get("stderr_tail", "")))

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
            "lease_seconds": self.lease_seconds})
        self.monitor.count("grants")
        self.monitor.span_open((node, lease["job_id"], lease["index"]))
        return True

    def _grant_settled(self, node: str, job_id: str, index: int,
                       outcome: str) -> None:
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
                index = point["index"]
                self._grant_settled(node, job_id, index, "node-lost")
                self.monitor.count(
                    "rebalanced", f"cluster: {job_id}[{index}] reaped "
                                  f"from dead node {node}; point re-queued")
                # Charged as an attempt: a lost node's in-flight work
                # is indistinguishable from a wedged point, so the
                # seeded RetryPolicy governs the re-dispatch (and a
                # point that keeps killing nodes quarantines).
                self._record_failure(
                    {"job_id": job_id, "index": index, "fence": None},
                    "node-lost", None, "")
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

    def shutdown_nodes(self) -> None:
        """Tell every node (alive or not) to finish and exit."""
        for node in list(self.registry.nodes):
            try:
                self.transport.send(node, {"type": "shutdown",
                                           "src": DISPATCHER_ENDPOINT})
            except ServiceError:
                continue

    def close(self) -> None:
        if self._opened:
            self.shutdown_nodes()
            self.transport.close()
        super().close()

