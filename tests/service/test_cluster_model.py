"""Model-based check of the cluster lease protocol: explored, not enumerated.

``test_cluster.py`` walks the fencing scenarios somebody thought of;
this file lets Hypothesis interleave them.  A ``RuleBasedStateMachine``
drives a real :class:`ClusterDispatcher` over a real root (journal,
store, cache) under a fake clock.  The node side of the protocol is
spoken by rules — virtual nodes that register, heartbeat, request, and
complete or fail the grants they hold, with results the serial sweep
computed once per session, written to the shared cache under each
grant's ``cache_key`` — so no worker ever forks.  A dishonest node also
writes to leased points under no token, or one nobody was granted.
Every message waits in flight until its receiver takes a turn, and
rules drop, duplicate or reorder it first, or cut a node off from the
dispatcher.  The
dispatcher is killed between turns and at a journal write boundary in
the middle of one (its journal closed where it stopped, no compaction,
its lock released) and reopened on the same root.

After every step the journal, folded from the start, must show:

* at most one ``complete`` per point (exactly one once drained);
* claim fences strictly increasing for each point, and every grant on
  the wire carrying a fresh fence whose claim is in the journal;
* no ``complete`` or ``attempt`` under a token that is not the one the
  point's journaled lease holds;
* every node write the dispatcher took in was either journaled under
  its fence or rejected by a durable ``stale_write`` — a partitioned
  node's late result is rejected, not lost and not counted twice, and
  a dishonest write is always rejected;
* a lease whose holder's heartbeats reached the dispatcher at least
  once every third of a term never expired (a rule lets time pass
  while one node beats that steadily).

At teardown the partitions heal, honest nodes finish every grant, and
each job's table must equal the serial sweep's.

The examples are derandomized.  Tier-1 runs 100 of them; CI's
``cluster-chaos`` job runs the ``ci`` profile (``tests/conftest.py``).
"""

import functools
import itertools
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import api  # noqa: E402
from repro.resilience.supervisor import RetryPolicy  # noqa: E402
from repro.service.cache import ResultCache  # noqa: E402
from repro.service.cluster import (  # noqa: E402
    DISPATCHER_ENDPOINT,
    ClusterDispatcher,
)
from repro.service.service import completion_record  # noqa: E402
from repro.service.transport import (  # noqa: E402
    InProcessTransport,
    Transport,
)
from tests.service.test_cluster import (  # noqa: E402
    CORES,
    KERNEL,
    METRICS,
    SIZE,
    FakeClock,
)

LEASE = 30.0
NODES = st.sampled_from(("n0", "n1"))
SLOTS = 2
# Each job sweeps one of these latency lists; the second shares a point
# with the first, so a later submit can be served from the cache.
JOBS = st.sampled_from(((2, 6), (6, 4)))
REAPS = ("lease-expired", "node-lost")
FORGED = 10 ** 9    # a fence no claim ever mints here


@functools.lru_cache(maxsize=None)
def serial_table(latencies: tuple):
    return api.sweep(KERNEL, cores=CORES, size=SIZE,
                     axes={"noc.latency": list(latencies)}, on_error="skip")


def serial_point(settings: dict):
    """The point a node computes for ``settings``: the serial sweep's."""
    latency = settings["noc.latency"]
    return serial_table((latency,)).points[0]


class Killed(Exception):
    """The dispatcher died at a journal write boundary."""


class ModelDispatcher(ClusterDispatcher):
    """The real dispatcher, held on the cluster rung: the ladder's
    local pool forks, and this model runs every point on its nodes."""

    def _should_degrade(self) -> bool:
        return False


class RuleTransport(Transport):
    """An :class:`InProcessTransport` behind a fault layer the rules
    drive: a message waits in ``flight`` until its receiver takes a
    turn; a node in ``cut`` neither sends nor receives."""

    def __init__(self):
        self.inner = InProcessTransport()
        self.flight: list[tuple[str, str, dict]] = []   # (src, dst, message)
        self.cut: set[str] = set()
        self.grants: list[dict] = []    # every grant the dispatcher sent
        self.handed: list[dict] = []    # the dispatcher's last receive

    def send(self, dst: str, message: dict) -> None:
        message = json.loads(json.dumps(message))
        src = message.get("node", message.get("src"))
        if message["type"] == "grant":
            self.grants.append(message)
        if not {src, dst} & self.cut:
            self.flight.append((src, dst, message))

    def receive(self, endpoint: str) -> list[dict]:
        for src, dst, message in self.flight:
            if dst == endpoint and not {src, dst} & self.cut:
                self.inner.send(dst, message)
        self.flight = [entry for entry in self.flight if entry[1] != endpoint]
        messages = self.inner.receive(endpoint)
        if endpoint == DISPATCHER_ENDPOINT:
            self.handed = messages
        return messages


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="coyote-cluster-model-"))
        self.clock = FakeClock()
        self.transport = RuleTransport()
        self.cache = ResultCache(self.root / "cache")   # the nodes' view
        self.held = {"n0": [], "n1": []}
        self.registered: set[str] = set()
        self.jobs: dict[str, tuple] = {}
        # The journal, folded from the start: the audit's own state.
        self._offset = 0
        self.current: dict[tuple, int] = {}     # point -> live lease fence
        self.fences: dict[tuple, list] = {}     # point -> claimed fences
        self.completes: Counter = Counter()
        self.leases: dict[tuple, dict] = {}     # (point, fence) -> acks
        self.dispatcher = self.open_dispatcher()

    def open_dispatcher(self) -> ClusterDispatcher:
        return ModelDispatcher(
            self.root, self.transport, clock=self.clock,
            lease_seconds=LEASE, compact_every=0,
            policy=api.SupervisorPolicy(retry=RetryPolicy(
                max_attempts=10 ** 6, base_delay=0.0, max_delay=0.0))).open()

    def teardown(self):
        try:
            if sys.exc_info()[0] is None:   # the run itself passed
                self.drain()
        finally:
            self.dispatcher.close()
            shutil.rmtree(self.root, ignore_errors=True)

    # -- the audit ---------------------------------------------------------

    def new_events(self) -> list[dict]:
        with (self.root / "journal.jsonl").open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._offset += len(chunk)
        events = [json.loads(line) for line in chunk.splitlines()]
        self.fold(events)
        return events

    def fold(self, events: list[dict]) -> None:
        for event in events:
            kind = event["type"]
            if kind in ("submit", "renew", "stale_write", "cancel"):
                continue
            point = (event["job"], event["index"])
            if kind == "claim":
                fence = event["fence"]
                assert fence > max(self.fences.get(point, [0])), \
                    f"{point}: fence {fence} after {self.fences.get(point)}"
                self.fences.setdefault(point, []).append(fence)
                self.current[point] = fence
                self.leases[point, fence] = {
                    "node": event["worker"], "gapless": True,
                    "acked": event["expires"] - LEASE}
            elif kind in ("complete", "attempt"):
                held = self.current.pop(point, None)
                fence = event.get("fence")
                assert held is not None and fence == held, \
                    f"{kind} on {point} under {fence}, lease holds {held}"
                if kind == "complete":
                    self.completes[point] += 1
                    assert self.completes[point] == 1, \
                        f"{point} completed twice"
                elif event["outcome"] in REAPS:
                    lease = self.leases[point, held]
                    assert not (lease["gapless"] and self.clock.now
                                - lease["acked"] <= LEASE / 3), \
                        f"{point}: lease lapsed under steady heartbeats"
            elif kind == "release":
                self.current.pop(point, None)
            elif kind == "invalidate":
                self.completes[point] = 0

    def acknowledge(self, handed: list[dict]) -> None:
        """Heartbeats the dispatcher took in: which leases they reach."""
        for message in handed:
            if message["type"] != "heartbeat":
                continue
            for job, index in message["held"]:
                fence = self.current.get((job, index))
                lease = self.leases.get(((job, index), fence))
                if lease is None or lease["node"] != message["node"]:
                    continue
                if self.clock.now - lease["acked"] > LEASE / 3:
                    lease["gapless"] = False
                lease["acked"] = self.clock.now

    @staticmethod
    def account(handed: list[dict], events: list[dict]) -> None:
        """Every node write taken in left exactly one journal trace:
        its own event under its fence, or a ``stale_write``."""
        writes = [event for event in events if event["type"]
                  in ("complete", "attempt", "stale_write")]
        for message in handed:
            if message["type"] not in ("complete", "failure"):
                continue
            own = "complete" if message["type"] == "complete" else "attempt"
            for position, event in enumerate(writes):
                if (event["job"], event["index"], event.get("fence")) \
                        == (message["job"], message["index"],
                            message["fence"]) \
                        and event["type"] in (own, "stale_write"):
                    del writes[position]
                    break
            else:
                raise AssertionError(
                    f"node write {message} left no trace in the journal")
            assert event["type"] == "stale_write" \
                or message["fence"] not in (None, FORGED), \
                f"dishonest write {message} was journaled"

    # -- the dispatcher ----------------------------------------------------

    def turn(self, die_at: int | None = None) -> None:
        """One dispatcher step; with ``die_at``, a SIGKILL at that
        journal append of the step (nothing after it happens)."""
        journal = self.dispatcher.store.journal
        if die_at is not None:
            append, calls = journal.append, itertools.count(1)

            def dying(type, **fields):
                if next(calls) == die_at:
                    raise Killed
                return append(type, **fields)

            journal.append = dying
        self.transport.handed = []
        try:
            self.dispatcher.step()
        except Killed:
            self.new_events()
            self.restart()
            return
        journal.__dict__.pop("append", None)
        handed = self.transport.handed
        self.acknowledge(handed)
        self.account(handed, self.new_events())

    def restart(self) -> None:
        """The dispatcher is gone: its journal closed where it stopped
        (no compaction), its lock released; a new one opens the root."""
        self.dispatcher.store.close()
        self.dispatcher._lock.release()
        self.dispatcher = self.open_dispatcher()
        self.new_events()

    def submit(self, latencies: tuple) -> None:
        job = self.dispatcher.submit(
            KERNEL, {"noc.latency": list(latencies)}, cores=CORES,
            size=SIZE)
        self.jobs[job] = latencies
        self.new_events()

    @initialize(latencies=JOBS)
    def first_submit(self, latencies):
        self.submit(latencies)

    @precondition(lambda self: len(self.jobs) < 3)
    @rule(latencies=JOBS)
    def another_submit(self, latencies):
        self.submit(latencies)

    @rule()
    def dispatcher_step(self):
        self.turn()

    @rule(at=st.integers(1, 3))
    def dispatcher_dies_mid_step(self, at):
        self.turn(die_at=at)

    @rule()
    def dispatcher_dies_between_steps(self):
        self.restart()

    @rule(seconds=st.sampled_from((LEASE / 6, LEASE / 3, LEASE + 1)))
    def tick(self, seconds):
        self.clock.advance(seconds)

    # -- the nodes ---------------------------------------------------------

    def mail(self, node: str) -> None:
        for message in self.transport.receive(node):
            if message["type"] == "grant":
                self.held[node].append(message)

    def speak(self, node: str, kind: str) -> None:
        message = {"type": kind, "node": node}
        if kind == "register":
            message["workers"] = SLOTS
        elif kind == "heartbeat":
            message["held"] = [[grant["job"], grant["index"]]
                               for grant in self.held[node]]
        else:
            message["slots"] = SLOTS - len(self.held[node])
            if message["slots"] <= 0:
                return
        self.transport.send(DISPATCHER_ENDPOINT, message)

    def report(self, node: str, grant: dict, ok: bool) -> None:
        message = {"node": node, "job": grant["job"],
                   "index": grant["index"], "fence": grant["fence"]}
        if ok:
            message.update(type="complete", **completion_record(
                self.cache, grant["cache_key"],
                serial_point(grant["settings"])))
        else:
            message.update(type="failure", outcome="crash", exit_code=-9,
                           stderr_tail="boom")
        self.transport.send(DISPATCHER_ENDPOINT, message)

    @rule(node=NODES, report=st.sampled_from((None, "complete", "failure")))
    def node_step(self, node, report):
        """One node turn, as ``ClusterNode.step`` takes it: register on
        the first, read the mail, report the oldest grant held (when
        ``report`` says how), heartbeat, request work for free slots."""
        if node not in self.registered:
            self.registered.add(node)
            self.speak(node, "register")
        self.mail(node)
        if report is not None and self.held[node]:
            self.report(node, self.held[node].pop(0), report == "complete")
        self.speak(node, "heartbeat")
        self.speak(node, "request")

    @rule(node=NODES, beats=st.integers(2, 5))
    def node_beats_steadily(self, node, beats):
        """Time passes while a node heartbeats every third of a term
        and the dispatcher takes each beat in: no lease it holds may
        lapse."""
        for _beat in range(beats):
            self.node_step(node, None)
            self.turn()
            self.clock.advance(LEASE / 3)

    @precondition(lambda self: self.current)
    @rule(data=st.data(), node=NODES,
          kind=st.sampled_from(("complete", "failure")),
          fence=st.sampled_from((None, FORGED)))
    def node_forges(self, data, node, kind, fence):
        """A dishonest node writes to a leased point — one it may not
        hold — under no token, or under one nobody was granted."""
        job, index = data.draw(st.sampled_from(sorted(self.current)))
        message = {"type": kind, "node": node, "job": job, "index": index,
                   "fence": fence}
        if kind == "complete":
            message.update(cache_key=None, verified=True, failure=None)
        else:
            message.update(outcome="crash", exit_code=-9,
                           stderr_tail="forged")
        self.transport.send(DISPATCHER_ENDPOINT, message)

    # -- the wire ----------------------------------------------------------

    @precondition(lambda self: self.transport.flight)
    @rule(data=st.data(),
          fault=st.sampled_from(("drop", "duplicate", "reorder")))
    def message_fault(self, data, fault):
        flight = self.transport.flight
        position = data.draw(st.integers(0, len(flight) - 1))
        if fault == "drop":
            del flight[position]
        elif fault == "duplicate":
            flight.insert(position, flight[position])
        else:   # overtaken by everything sent after it
            flight.append(flight.pop(position))

    @rule(node=NODES)
    def partition(self, node):
        self.transport.cut.add(node)

    @rule(node=NODES)
    def heal(self, node):
        self.transport.cut.discard(node)

    # -- invariants --------------------------------------------------------

    @invariant()
    def grants_carry_fresh_journaled_fences(self):
        fences = [grant["fence"] for grant in self.transport.grants]
        assert fences == sorted(set(fences)), f"a fence reused: {fences}"
        for grant in self.transport.grants:
            point = (grant["job"], grant["index"])
            assert grant["fence"] in self.fences.get(point, ()), \
                f"grant {grant['fence']} for {point} has no journaled claim"

    # -- the drain ---------------------------------------------------------

    def drain(self) -> None:
        """Heal the wire; honest nodes finish every grant they get
        until the queue is empty; then each point has completed exactly
        once and each job's table is the serial sweep's."""
        self.transport.cut.clear()
        for turns in itertools.count():
            if not self.dispatcher.store.has_work():
                break
            assert turns < 60, "the cluster did not drain"
            for node in self.held:
                self.mail(node)
                for grant in self.held[node]:
                    self.report(node, grant, ok=True)
                self.held[node] = []
                self.speak(node, "heartbeat")
                self.speak(node, "request")
            self.turn()
            if turns % 3 == 2:
                self.clock.advance(LEASE + 1)   # grants lost on the wire
        self.grants_carry_fresh_journaled_fences()
        for job, latencies in self.jobs.items():
            assert [self.completes[job, index]
                    for index in range(len(latencies))] \
                == [1] * len(latencies)
            assert self.dispatcher.result(job).to_dict(METRICS) \
                == serial_table(latencies).to_dict(METRICS)


# 100 examples in tier-1; ``--hypothesis-profile=ci`` runs the profile's
# 500.
_CI = settings.get_profile("ci")
_EXAMPLES = _CI.max_examples if settings.default is _CI else 100

TestClusterModel = ClusterMachine.TestCase
TestClusterModel.settings = settings(
    max_examples=_EXAMPLES, stateful_step_count=40, derandomize=True,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
