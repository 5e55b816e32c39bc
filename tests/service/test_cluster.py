"""The multi-node cluster tier: fenced grants, chaos, degradation.

The contract under test (ISSUE 10): a cluster campaign drains to a
:class:`SweepTable` bit-identical to a serial in-process sweep under
node death, transport partitions and SIGSTOP zombies, with exactly one
``complete`` journal event per point and every stale write rejected
*before* it reaches the journal.

Three layers of test:

* deterministic in-process protocol tests — one
  :class:`InProcessTransport`, explicit ``step()`` interleaving, fake
  clocks for lease/deadline arithmetic (no sleeps, no races);
* seeded transport-fault campaigns through :class:`FaultyTransport`
  (drop/delay/duplicate/partition) with real forked node workers;
* a cross-process chaos drill: real ``coyote-sim cluster --node``
  subprocesses on a shared filesystem root, one SIGKILLed and one
  SIGSTOPped mid-campaign.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.resilience.supervisor import RetryPolicy, SupervisorPolicy
from repro.service.cluster import (
    ClusterDispatcher,
    ClusterNode,
    NodeRegistry,
)
from repro.service.transport import (
    InProcessTransport,
    ServiceFaultPlan,
    ServiceFaultSpec,
)

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")


def fast_policy():
    return SupervisorPolicy(
        retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0))


def serial_reference(axes=None):
    return api.sweep(KERNEL, cores=CORES, size=SIZE, axes=axes or AXES,
                     on_error="skip")


class FakeClock:
    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_cluster(root, n_nodes=2, clock=None, node_kwargs=None,
                 **kwargs):
    kwargs.setdefault("transport", InProcessTransport())
    kwargs.setdefault("policy", fast_policy())
    if clock is not None:
        kwargs["clock"] = clock
    dispatcher = ClusterDispatcher(root, **kwargs)
    node_kwargs = dict(node_kwargs or {})
    node_kwargs.setdefault("heartbeat_seconds", 0.0)
    if clock is not None:
        node_kwargs.setdefault("clock", clock)
    nodes = [ClusterNode(root, f"n{rank}",
                         transport=dispatcher.transport, **node_kwargs)
             for rank in range(n_nodes)]
    return dispatcher, nodes


def drive(dispatcher, nodes, timeout=120.0):
    """Interleave dispatcher and node turns until the queue drains."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        progressed = dispatcher.step()
        for node in nodes:
            progressed |= node.step()
        if not dispatcher.pool and not dispatcher.store.has_work():
            return
        if not progressed:
            time.sleep(0.01)
    raise AssertionError("cluster did not drain within the timeout")


def journal_events(root, kind):
    """Raw journal events of one type (call before close() compacts)."""
    events = []
    for line in (root / "journal.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event.get("type") == kind:
            events.append(event)
    return events


def completes_per_point(root):
    counts: dict = {}
    for event in journal_events(root, "complete"):
        key = (event["job"], event["index"])
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestNodeRegistry:
    def test_liveness_follows_the_injected_clock(self):
        clock = FakeClock()
        registry = NodeRegistry(deadline_seconds=5.0, clock=clock)
        assert registry.register("n1", workers=2)
        assert not registry.register("n1")  # known and alive: not fresh
        clock.advance(4.0)
        assert registry.heartbeat("n1")
        clock.advance(4.0)
        assert registry.reap() == []  # heartbeat reset the deadline
        clock.advance(2.0)
        assert registry.reap() == ["n1"]
        assert registry.reap() == []  # dead exactly once
        assert not registry.heartbeat("n1")  # dead: caller re-registers
        assert registry.register("n1")  # a woken zombie is re-admitted
        assert registry.alive() == ["n1"]

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            NodeRegistry(deadline_seconds=0.0)


class TestClusterDrains:
    def test_two_nodes_bit_identical_to_serial(self, tmp_path):
        dispatcher, nodes = make_cluster(tmp_path / "root", n_nodes=2)
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            drive(dispatcher, nodes)
            assert dispatcher.status(job).complete
            assert completes_per_point(tmp_path / "root") \
                == {(job, 0): 1, (job, 1): 1}
            counters = dispatcher.monitor.counters
            assert counters["nodes_registered"] == 2
            assert counters["stale_writes"] == 0
            assert counters["degradations"] == 0
            table = dispatcher.result(job)
        assert table.degradations == []
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_dispatcher_serves_cache_hits_itself(self, tmp_path):
        root = tmp_path / "root"
        dispatcher, nodes = make_cluster(root, n_nodes=1)
        with dispatcher:
            first = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                      size=SIZE)
            drive(dispatcher, nodes)
            simulated = dispatcher.cache.writes
            again = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                      size=SIZE)
            drive(dispatcher, nodes)
            status = dispatcher.status(again)
            assert status.complete and status.cache_hits == 2
            assert dispatcher.cache.writes == simulated  # no re-sim
            assert dispatcher.result(again).to_dict(METRICS) \
                == dispatcher.result(first).to_dict(METRICS)


class TestSeededTransportFaults:
    def test_drop_delay_duplicate_still_exactly_once(self, tmp_path):
        root = tmp_path / "root"
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="drop", probability=0.25,
                                     start=1, end=60),
                    ServiceFaultSpec(kind="delay", probability=0.25,
                                     extra=3, start=1, end=60),
                    ServiceFaultSpec(kind="duplicate", probability=0.5,
                                     dst="dispatcher")],
            seed=7)
        dispatcher, nodes = make_cluster(
            root, n_nodes=2, fault_plan=plan, lease_seconds=0.5)
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            drive(dispatcher, nodes)
            assert dispatcher.status(job).complete
            # The headline guarantee: chaos or not, the journal holds
            # exactly one complete per point.
            assert completes_per_point(root) \
                == {(job, 0): 1, (job, 1): 1}
            faults = dispatcher.transport.counters
            assert faults["sent"] > 0
            table = dispatcher.result(job)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_partition_heals_and_drains(self, tmp_path):
        root = tmp_path / "root"
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="partition", nodes=["n0"],
                                     start=4, end=40)],
            seed=3)
        dispatcher, nodes = make_cluster(
            root, n_nodes=2, fault_plan=plan, lease_seconds=0.5,
            node_deadline_seconds=0.5)
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            drive(dispatcher, nodes)
            assert dispatcher.status(job).complete
            assert dispatcher.transport.counters["partitioned"] > 0
            assert completes_per_point(root) \
                == {(job, 0): 1, (job, 1): 1}
            table = dispatcher.result(job)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)


class TestFencing:
    """Protocol-level tests: messages are crafted by hand, the clock
    is fake, and no worker ever forks."""

    ONE_POINT = {"noc.latency": [2]}

    def grant_for(self, transport, endpoint):
        grants = [message for message in transport.receive(endpoint)
                  if message["type"] == "grant"]
        assert grants, f"no grant delivered to {endpoint}"
        return grants[-1]

    def test_zombie_fenced_write_is_rejected_not_journaled(
            self, tmp_path):
        root = tmp_path / "root"
        clock = FakeClock()
        dispatcher, _ = make_cluster(
            root, n_nodes=0, clock=clock, lease_seconds=30.0,
            node_deadline_seconds=120.0)
        transport = dispatcher.transport
        with dispatcher:
            job = dispatcher.submit(KERNEL, self.ONE_POINT,
                                    cores=CORES, size=SIZE)
            transport.send("dispatcher", {"type": "register",
                                          "node": "zombie",
                                          "workers": 1})
            transport.send("dispatcher", {"type": "request",
                                          "node": "zombie", "slots": 1})
            dispatcher.step()
            stale = self.grant_for(transport, "zombie")
            assert stale["fence"] == 1
            # The zombie goes silent (SIGSTOP); its lease lapses and
            # the point is re-granted to a live node under a new fence.
            clock.advance(31.0)
            dispatcher.step()
            transport.send("dispatcher", {"type": "register",
                                          "node": "live", "workers": 1})
            transport.send("dispatcher", {"type": "request",
                                          "node": "live", "slots": 1})
            dispatcher.step()
            fresh = self.grant_for(transport, "live")
            assert fresh["fence"] == 2
            # The zombie wakes and tries to commit under its old token.
            transport.send("dispatcher", {
                "type": "complete", "node": "zombie", "job": job,
                "index": 0, "fence": stale["fence"], "cache_key": None,
                "verified": True, "failure": None})
            dispatcher.step()
            assert dispatcher.monitor.counters["stale_writes"] == 1
            assert dispatcher.store.stale_writes == 1
            point = dispatcher.store.jobs[job]["points"][0]
            assert point["state"] == "leased"  # the live grant holds
            assert point["lease"]["worker"] == "live"
            # The live node commits under the fresh token.
            transport.send("dispatcher", {
                "type": "complete", "node": "live", "job": job,
                "index": 0, "fence": fresh["fence"], "cache_key": None,
                "verified": True, "failure": None})
            dispatcher.step()
            assert point["state"] == "done"
            completes = journal_events(root, "complete")
            assert len(completes) == 1
            assert completes[0]["fence"] == fresh["fence"]
            rejections = journal_events(root, "stale_write")
            assert len(rejections) == 1
            assert rejections[0]["fence"] == stale["fence"]

    def test_dead_node_leases_rebalance_once(self, tmp_path):
        root = tmp_path / "root"
        clock = FakeClock()
        dispatcher, _ = make_cluster(
            root, n_nodes=0, clock=clock, lease_seconds=300.0,
            node_deadline_seconds=5.0)
        transport = dispatcher.transport
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            transport.send("dispatcher", {"type": "register",
                                          "node": "doomed",
                                          "workers": 2})
            transport.send("dispatcher", {"type": "request",
                                          "node": "doomed", "slots": 2})
            dispatcher.step()
            grants = [message
                      for message in transport.receive("doomed")
                      if message["type"] == "grant"]
            assert len(grants) == 2
            # Heartbeats keep both leases fresh while the node lives.
            clock.advance(3.0)
            transport.send("dispatcher", {"type": "heartbeat",
                                          "node": "doomed",
                                          "held": [[job, 0], [job, 1]]})
            dispatcher.step()
            # Then it goes silent past the node deadline.  An idle
            # bystander keeps the fleet alive, so this is a rebalance,
            # not a degradation.
            transport.send("dispatcher", {"type": "register",
                                          "node": "bystander",
                                          "workers": 1})
            clock.advance(6.0)
            transport.send("dispatcher", {"type": "heartbeat",
                                          "node": "bystander",
                                          "held": []})
            dispatcher.step()
            counters = dispatcher.monitor.counters
            assert counters["nodes_dead"] == 1
            assert counters["rebalanced"] == 2
            states = [point["state"]
                      for point in dispatcher.store.jobs[job]["points"]]
            assert states == ["pending", "pending"]
            attempts = journal_events(root, "attempt")
            assert [event["outcome"] for event in attempts] \
                == ["node-lost", "node-lost"]
            # A live replacement finishes the job under new fences.
            transport.send("dispatcher", {"type": "register",
                                          "node": "live", "workers": 2})
            transport.send("dispatcher", {"type": "request",
                                          "node": "live", "slots": 2})
            dispatcher.step()
            for grant in [message
                          for message in transport.receive("live")
                          if message["type"] == "grant"]:
                assert grant["fence"] > 2  # reminted, never reused
                transport.send("dispatcher", {
                    "type": "complete", "node": "live", "job": job,
                    "index": grant["index"], "fence": grant["fence"],
                    "cache_key": None, "verified": True,
                    "failure": None})
            dispatcher.step()
            assert dispatcher.status(job).complete
            assert completes_per_point(root) \
                == {(job, 0): 1, (job, 1): 1}
            # The zombie's late heartbeat re-admits it harmlessly.
            before = counters["nodes_registered"]
            transport.send("dispatcher", {"type": "heartbeat",
                                          "node": "doomed",
                                          "held": []})
            dispatcher.step()
            assert counters["nodes_registered"] == before + 1

    def test_unfenced_or_forged_write_is_a_stale_write(self, tmp_path):
        """A write that names no lease, or one its sender was never
        granted, is rejected like any stale write: one durable
        ``stale_write`` each, and the point stays leased to its holder,
        whose fenced complete then settles it — computed once."""
        root = tmp_path / "root"
        dispatcher, _ = make_cluster(root, n_nodes=0)
        transport = dispatcher.transport
        with dispatcher:
            job = dispatcher.submit(KERNEL, self.ONE_POINT,
                                    cores=CORES, size=SIZE)
            transport.send("dispatcher", {"type": "register",
                                          "node": "n", "workers": 1})
            transport.send("dispatcher", {"type": "request",
                                          "node": "n", "slots": 1})
            dispatcher.step()
            grant = self.grant_for(transport, "n")
            forged = grant["fence"] + 100
            failure = {"type": "failure", "job": job, "index": 0,
                       "outcome": "crash", "exit_code": -9,
                       "stderr_tail": ""}
            complete = {"type": "complete", "job": job, "index": 0,
                        "cache_key": None, "verified": True,
                        "failure": None}
            for write, node, fence in ((failure, "intruder", None),
                                       (complete, "intruder", None),
                                       (failure, "intruder", forged),
                                       (complete, "intruder", forged),
                                       (complete, "n", None)):
                transport.send("dispatcher",
                               {**write, "node": node, "fence": fence})
            dispatcher.step()
            point = dispatcher.store.jobs[job]["points"][0]
            assert point["state"] == "leased"
            assert (point["lease"]["worker"], point["lease"]["fence"]) \
                == ("n", grant["fence"])
            assert point["attempts"] == []   # nothing charged
            assert [event["fence"] for event
                    in journal_events(root, "stale_write")] \
                == [None, None, forged, forged, None]
            # The holder reports under its token; a replay of that
            # report is one more stale write.
            for _copy in range(2):
                transport.send("dispatcher", {**complete, "node": "n",
                                              "fence": grant["fence"]})
            dispatcher.step()
            assert dispatcher.status(job).complete
            assert completes_per_point(root) == {(job, 0): 1}
            assert len(journal_events(root, "claim")) == 1   # never re-run
            assert dispatcher.store.stale_writes == 6
            assert dispatcher.monitor.counters["stale_writes"] == 6


class TestDegradation:
    def test_no_nodes_degrades_to_local_and_completes(self, tmp_path):
        root = tmp_path / "root"
        clock = FakeClock()
        dispatcher, _ = make_cluster(root, n_nodes=0, clock=clock,
                                     grace_seconds=2.0)
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            dispatcher.step()
            assert dispatcher.slots is None  # still in grace
            clock.advance(3.0)
            drive(dispatcher, [])
            assert dispatcher.slots == 1  # its own local_workers
            assert dispatcher.status(job).complete
            table = dispatcher.result(job)
        assert len(table.degradations) == 1
        assert "no node registered" in table.degradations[0].reason
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_losing_the_whole_fleet_degrades(self, tmp_path):
        root = tmp_path / "root"
        clock = FakeClock()
        dispatcher, _ = make_cluster(
            root, n_nodes=0, clock=clock, lease_seconds=300.0,
            node_deadline_seconds=5.0, grace_seconds=300.0)
        transport = dispatcher.transport
        with dispatcher:
            job = dispatcher.submit(KERNEL, AXES, cores=CORES,
                                    size=SIZE)
            transport.send("dispatcher", {"type": "register",
                                          "node": "only", "workers": 1})
            dispatcher.step()
            clock.advance(6.0)  # the fleet of one goes silent
            drive(dispatcher, [])
            assert dispatcher.slots == 1  # its own local_workers
            assert dispatcher.status(job).complete
            table = dispatcher.result(job)
        assert len(table.degradations) == 1
        assert "no live nodes" in table.degradations[0].reason
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)


CHAOS_AXES = {"noc.latency": [2, 4, 6, 8]}


def _node_process(root, node_id, repo_env):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.coyote.cli", "cluster", "--node",
         "--root", str(root), "--node-id", node_id, "--workers", "1",
         "--heartbeat-seconds", "0.1", "--max-seconds", "120"],
        env=repo_env)


class TestCrossProcessChaos:
    def test_sigkill_and_sigstop_nodes_drain_exactly_once(
            self, tmp_path):
        """Three real node subprocesses on a filesystem transport; one
        is SIGKILLed mid-campaign and one SIGSTOPped past its node
        deadline (a zombie), then resumed.  The campaign must drain
        bit-identically with zero duplicate completes."""
        root = tmp_path / "root"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"),
                          env.get("PYTHONPATH", "")]))
        dispatcher = ClusterDispatcher(
            root, lease_seconds=1.0, node_deadline_seconds=1.0,
            policy=SupervisorPolicy(retry=RetryPolicy(
                max_attempts=5, base_delay=0.0, max_delay=0.0)))
        children = {}
        try:
            with dispatcher:
                job = dispatcher.submit(KERNEL, CHAOS_AXES,
                                        cores=CORES, size=SIZE)
                for name in ("victim", "zombie", "survivor"):
                    children[name] = _node_process(root, name, env)
                counters = dispatcher.monitor.counters
                killed = stopped = False
                resume_at = None
                deadline = time.monotonic() + 180.0
                while time.monotonic() < deadline:
                    dispatcher.step()
                    if not killed and counters["grants"] >= 1:
                        children["victim"].kill()
                        killed = True
                    if killed and not stopped \
                            and counters["grants"] >= 2:
                        os.kill(children["zombie"].pid, signal.SIGSTOP)
                        stopped = True
                        resume_at = time.monotonic() + 1.5
                    if resume_at is not None \
                            and time.monotonic() >= resume_at:
                        os.kill(children["zombie"].pid, signal.SIGCONT)
                        resume_at = None
                    if not dispatcher.store.has_work() \
                            and not dispatcher.pool:
                        break
                    time.sleep(0.02)
                if resume_at is not None:
                    os.kill(children["zombie"].pid, signal.SIGCONT)
                assert killed, "chaos never fired: no grant observed"
                assert dispatcher.status(job).complete
                # Zero duplicate completes, ever.
                assert completes_per_point(root) \
                    == {(job, index): 1 for index in range(4)}
                table = dispatcher.result(job)
        finally:
            for child in children.values():
                try:
                    os.kill(child.pid, signal.SIGCONT)
                except (OSError, ProcessLookupError):
                    pass
                child.terminate()
            for child in children.values():
                try:
                    child.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait()
        assert table.to_dict(METRICS) == api.sweep(
            KERNEL, cores=CORES, size=SIZE, axes=CHAOS_AXES,
            on_error="skip").to_dict(METRICS)
