"""Pluggable cluster transports and deterministic service faults.

The cluster tier (:mod:`repro.service.cluster`) exchanges small JSON
messages between one dispatcher and N node executors.  Two transports
cover the deployment shapes:

* :class:`InProcessTransport` — per-destination deques in one process.
  The test transport: no filesystem, no timing, fully deterministic.
* :class:`FilesystemTransport` — one spool directory per destination
  under a shared root.  Messages are written with the same atomic
  write as the result cache (``repro.utils.atomic``), so a reader can
  never observe a torn message; names embed a per-sender sequence
  number so each sender's messages arrive in order.

Faults are injected *between* the endpoints, never inside them:
:class:`FaultyTransport` wraps any transport and applies a seeded
:class:`ServiceFaultPlan` (mirroring the simulator's
``repro.resilience.faults`` plan shape — ``{"seed": N, "faults":
[...]}`` — see ``examples/service_fault_plan.json``).  Fault decisions
draw from one ``random.Random(seed)`` and windows are measured in
*operations* (sends), not wall time, so a chaos campaign replays
bit-identically.  Kinds:

``drop``       the message vanishes.
``delay``      delivery is deferred for ``extra`` further sends.
``duplicate``  the message is delivered twice.
``partition``  messages crossing the boundary of ``nodes`` are dropped
               while the window is open (both directions).

The protocol above this layer is built to survive all four: grants are
leased (a dropped grant expires and is rebalanced), completions are
fenced (a duplicated or stale completion is rejected before it reaches
the journal), and heartbeats are idempotent.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.config import FOREVER, PlanDocument
from repro.service.store import ServiceError
from repro.utils.atomic import write_atomically

SERVICE_FAULT_KINDS = ("drop", "delay", "duplicate", "partition")


class TransportError(ServiceError):
    """A cluster-transport usage or delivery error."""


@dataclass
class ServiceFaultSpec:
    """One transport fault: what to do, to which flows, and when.

    ``start``/``end`` bound an operation-count window (each ``send`` is
    one operation).  ``src``/``dst`` name endpoints, ``"*"`` matching
    any; ``nodes`` lists the isolated group of a ``partition``.
    """

    kind: str
    probability: float = 1.0
    start: int = 0
    end: int = FOREVER
    src: str = "*"
    dst: str = "*"
    extra: int = 3
    nodes: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown service fault kind {self.kind!r} "
                f"(expected one of {SERVICE_FAULT_KINDS})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"fault window [{self.start}, {self.end}) is invalid")
        if self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")
        if self.kind == "partition" and not self.nodes:
            raise ValueError(
                "a partition fault needs a non-empty 'nodes' group")

    def matches(self, op: int, src: str, dst: str) -> bool:
        if not self.start <= op < self.end:
            return False
        if self.kind == "partition":
            # Crossing the partition boundary, either direction.
            return (src in self.nodes) != (dst in self.nodes)
        if self.src != "*" and self.src != src:
            return False
        if self.dst != "*" and self.dst != dst:
            return False
        return True


@dataclass
class ServiceFaultPlan(PlanDocument):
    """A named, replayable transport-fault campaign: specs plus seed.

    The service-tier sibling of
    :class:`~repro.resilience.faults.FaultPlan`, sharing its JSON
    document shape and lifecycle
    (:class:`~repro.resilience.config.PlanDocument`).
    """

    faults: list[ServiceFaultSpec] = field(default_factory=list)


class Transport:
    """The cluster messaging contract: ordered-per-sender datagrams.

    ``send`` never blocks and never confirms delivery; ``receive``
    drains every message currently queued for one endpoint.  The
    cluster protocol assumes nothing stronger — messages may be lost,
    delayed or duplicated (and under a :class:`FaultyTransport`,
    deliberately are).
    """

    def send(self, dst: str, message: dict) -> None:
        raise NotImplementedError

    def receive(self, endpoint: str) -> list[dict]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any transport resources (optional)."""


class InProcessTransport(Transport):
    """Per-destination deques in one process — the test transport."""

    def __init__(self):
        self._queues: dict[str, list[dict]] = {}

    def send(self, dst: str, message: dict) -> None:
        # JSON round-trip: the in-process transport must reject exactly
        # what the filesystem transport would, and a receiver must
        # never share mutable state with the sender.
        try:
            encoded = json.dumps(message, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise TransportError(
                f"message to {dst!r} is not JSON-serialisable: "
                f"{exc}") from exc
        self._queues.setdefault(dst, []).append(json.loads(encoded))

    def receive(self, endpoint: str) -> list[dict]:
        messages = self._queues.get(endpoint, [])
        self._queues[endpoint] = []
        return messages


class FilesystemTransport(Transport):
    """Atomic spool files under ``root/mail/<dst>/`` on a shared tree.

    Each sender stamps its messages with a private monotonic sequence
    number embedded in the file name, so a receiver's sorted directory
    scan yields every sender's messages in send order.  Files appear
    atomically (temp file + ``os.replace``) and are unlinked once read
    (renamed ``*.corrupt`` if unreadable); a crash between read and
    unlink re-delivers — which the fenced protocol above absorbs by
    design.
    """

    def __init__(self, root: str | Path, sender: str):
        self.root = Path(root)
        self.sender = sender
        self._mail = self.root / "mail"
        self._seq = 0

    def _box(self, endpoint: str) -> Path:
        box = self._mail / endpoint
        box.mkdir(parents=True, exist_ok=True)
        return box

    def send(self, dst: str, message: dict) -> None:
        try:
            body = json.dumps(message, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise TransportError(
                f"message to {dst!r} is not JSON-serialisable: "
                f"{exc}") from exc
        box = self._box(dst)
        self._seq += 1
        name = f"{self.sender}-{self._seq:010d}.msg"
        write_atomically(box / name, body.encode())

    def receive(self, endpoint: str) -> list[dict]:
        box = self._box(endpoint)
        messages = []
        for path in sorted(box.glob("*.msg")):
            try:
                messages.append(json.loads(path.read_text()))
            except FileNotFoundError:
                continue            # unlinked by a concurrent receive
            except (OSError, ValueError):
                # Unreadable (torn messages cannot exist — os.replace is
                # atomic): set it aside so no later receive re-reads it.
                path.rename(path.with_suffix(".corrupt"))
                continue
            path.unlink(missing_ok=True)
        return messages


class FaultyTransport(Transport):
    """A transport wrapper that injects a seeded fault plan.

    Deterministic: the fault clock is the count of ``send`` operations
    (never wall time) and every probabilistic decision draws from one
    ``random.Random(plan.seed)``, so the same message sequence under
    the same plan yields the same faults.  Counters expose what fired.
    """

    def __init__(self, inner: Transport, plan: ServiceFaultPlan):
        plan.validate()
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed or 0)
        self.op = 0
        # (release_op, dst, message) for in-flight delayed deliveries.
        self._delayed: list[tuple[int, str, dict]] = []
        self.counters = {"sent": 0, "dropped": 0, "delayed": 0,
                         "duplicated": 0, "partitioned": 0}

    def _flush_delayed(self) -> None:
        matured = [entry for entry in self._delayed
                   if entry[0] <= self.op]
        self._delayed = [entry for entry in self._delayed
                         if entry[0] > self.op]
        for _release, dst, message in matured:
            self.inner.send(dst, message)

    def send(self, dst: str, message: dict) -> None:
        src = str(message.get("node", message.get("src", "dispatcher")))
        self.op += 1
        self.counters["sent"] += 1
        deliveries = 1
        delay_ops = 0
        for spec in self.plan.faults:
            if not spec.matches(self.op, src, dst):
                continue
            if spec.probability < 1.0 \
                    and self._rng.random() >= spec.probability:
                continue
            if spec.kind == "partition":
                self.counters["partitioned"] += 1
                deliveries = 0
                break
            if spec.kind == "drop":
                self.counters["dropped"] += 1
                deliveries = 0
                break
            if spec.kind == "delay":
                self.counters["delayed"] += 1
                delay_ops = max(delay_ops, spec.extra)
            elif spec.kind == "duplicate":
                self.counters["duplicated"] += 1
                deliveries = 2
        for _copy in range(deliveries):
            if delay_ops:
                self._delayed.append((self.op + delay_ops, dst,
                                      message))
            else:
                self.inner.send(dst, message)
        self._flush_delayed()

    def receive(self, endpoint: str) -> list[dict]:
        self._flush_delayed()
        return self.inner.receive(endpoint)

    def close(self) -> None:
        # Deliver whatever is still in flight, then close the inner
        # transport: a closing wrapper must not strand messages a test
        # expects to audit.
        self._delayed, pending = [], self._delayed
        for _release, dst, message in pending:
            self.inner.send(dst, message)
        self.inner.close()
