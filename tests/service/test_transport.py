"""Cluster transports and the seeded service-fault layer.

The transport contract is deliberately weak (datagrams, ordered per
sender, may be lost/delayed/duplicated); these tests pin the parts the
cluster protocol leans on: per-sender ordering and atomicity on the
filesystem spool, JSON-strictness on both transports, and — most
importantly — that :class:`FaultyTransport` is a pure function of
(plan, message sequence): the same seed replays the same faults.
"""

import json

import pytest

from repro.service.transport import (
    FaultyTransport,
    FilesystemTransport,
    InProcessTransport,
    ServiceFaultPlan,
    ServiceFaultSpec,
    TransportError,
)


class TestInProcessTransport:
    def test_send_receive_drains_in_order(self):
        transport = InProcessTransport()
        transport.send("a", {"n": 1})
        transport.send("a", {"n": 2})
        transport.send("b", {"n": 3})
        assert transport.receive("a") == [{"n": 1}, {"n": 2}]
        assert transport.receive("a") == []
        assert transport.receive("b") == [{"n": 3}]

    def test_messages_do_not_share_mutable_state(self):
        transport = InProcessTransport()
        message = {"inner": {"n": 1}}
        transport.send("a", message)
        message["inner"]["n"] = 99
        assert transport.receive("a") == [{"inner": {"n": 1}}]

    def test_unserialisable_message_rejected(self):
        transport = InProcessTransport()
        with pytest.raises(TransportError, match="JSON"):
            transport.send("a", {"bad": object()})


class TestFilesystemTransport:
    def test_per_sender_order_survives_interleaving(self, tmp_path):
        alice = FilesystemTransport(tmp_path, "alice")
        bob = FilesystemTransport(tmp_path, "bob")
        alice.send("dispatcher", {"from": "alice", "n": 1})
        bob.send("dispatcher", {"from": "bob", "n": 1})
        alice.send("dispatcher", {"from": "alice", "n": 2})
        reader = FilesystemTransport(tmp_path, "dispatcher")
        messages = reader.receive("dispatcher")
        assert [m["n"] for m in messages if m["from"] == "alice"] \
            == [1, 2]
        assert [m["n"] for m in messages if m["from"] == "bob"] == [1]
        assert reader.receive("dispatcher") == []  # consumed

    def test_scratch_files_are_invisible_to_receivers(self, tmp_path):
        transport = FilesystemTransport(tmp_path, "w")
        transport.send("dst", {"n": 1})
        box = tmp_path / "mail" / "dst"
        (box / ".send-torn.tmp").write_text("{not json")
        assert transport.receive("dst") == [{"n": 1}]
        # The scratch file is ignored, not consumed or crashed on.
        assert (box / ".send-torn.tmp").exists()

    def test_unreadable_spool_entry_is_skipped(self, tmp_path):
        transport = FilesystemTransport(tmp_path, "w")
        transport.send("dst", {"n": 1})
        box = tmp_path / "mail" / "dst"
        (box / "rot-0000000000.msg").write_text("{torn")
        assert transport.receive("dst") == [{"n": 1}]
        # Set aside, so no later receive re-reads it.
        assert [path.name for path in box.iterdir()] \
            == ["rot-0000000000.corrupt"]


class TestFaultPlan:
    def test_roundtrip_matches_the_resilience_plan_shape(self, tmp_path):
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="drop", probability=0.5,
                                     start=2, end=9, dst="node-1"),
                    ServiceFaultSpec(kind="partition",
                                     nodes=["node-2"])],
            seed=42)
        path = plan.save(tmp_path / "plan.json")
        document = json.loads(path.read_text())
        assert document["seed"] == 42
        assert [f["kind"] for f in document["faults"]] \
            == ["drop", "partition"]
        loaded = ServiceFaultPlan.load(path)
        assert loaded.to_dict() == plan.to_dict()

    def test_validation_failures_name_the_problem(self, tmp_path):
        with pytest.raises(ValueError, match="unknown service fault"):
            ServiceFaultSpec(kind="corrupt").validate()
        with pytest.raises(ValueError, match="probability"):
            ServiceFaultSpec(kind="drop", probability=1.5).validate()
        with pytest.raises(ValueError, match="window"):
            ServiceFaultSpec(kind="drop", start=9, end=2).validate()
        with pytest.raises(ValueError, match="nodes"):
            ServiceFaultSpec(kind="partition").validate()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"faults": [{"kind": "nope"}]}))
        with pytest.raises(ValueError, match="bad.json"):
            ServiceFaultPlan.load(bad)
        bad.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(ValueError, match="'faults' list"):
            ServiceFaultPlan.load(bad)


def _run_sequence(plan):
    """Feed a fixed message sequence through a fresh FaultyTransport
    and return (delivered messages per endpoint, counters)."""
    transport = FaultyTransport(InProcessTransport(), plan)
    for n in range(20):
        transport.send("dispatcher", {"node": "node-1", "n": n})
        transport.send("node-1", {"src": "dispatcher", "n": n})
    received = {"dispatcher": transport.receive("dispatcher"),
                "node-1": transport.receive("node-1")}
    transport.close()
    return received, dict(transport.counters)


class TestFaultyTransport:
    def test_same_seed_same_faults(self):
        def plan():
            return ServiceFaultPlan(
                faults=[ServiceFaultSpec(kind="drop", probability=0.4),
                        ServiceFaultSpec(kind="duplicate",
                                         probability=0.3),
                        ServiceFaultSpec(kind="delay", probability=0.3,
                                         extra=2)],
                seed=7)
        first = _run_sequence(plan())
        second = _run_sequence(plan())
        assert first == second
        # And a different seed really does change the outcome.
        different = ServiceFaultPlan(faults=plan().faults, seed=8)
        assert _run_sequence(different) != first

    def test_partition_cuts_both_directions_only_across(self):
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="partition",
                                     nodes=["node-1"])])
        transport = FaultyTransport(InProcessTransport(), plan)
        transport.send("dispatcher", {"node": "node-1", "n": 1})
        transport.send("node-1", {"src": "dispatcher", "n": 2})
        transport.send("dispatcher", {"node": "node-2", "n": 3})
        assert transport.receive("dispatcher") == [{"node": "node-2",
                                                    "n": 3}]
        assert transport.receive("node-1") == []
        assert transport.counters["partitioned"] == 2

    def test_partition_window_heals(self):
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="partition", nodes=["node-1"],
                                     start=0, end=3)])
        transport = FaultyTransport(InProcessTransport(), plan)
        for n in range(5):
            transport.send("dispatcher", {"node": "node-1", "n": n})
        delivered = [m["n"] for m in transport.receive("dispatcher")]
        assert delivered == [2, 3, 4]  # ops 3.. are past the window

    def test_duplicate_delivers_twice(self):
        # The op clock counts sends from 1: window [1, 2) is exactly
        # the first send.
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="duplicate", start=1, end=2)])
        transport = FaultyTransport(InProcessTransport(), plan)
        transport.send("dispatcher", {"node": "n", "n": 1})
        transport.send("dispatcher", {"node": "n", "n": 2})
        assert [m["n"] for m in transport.receive("dispatcher")] \
            == [1, 1, 2]

    def test_delay_defers_by_operations_and_close_flushes(self):
        plan = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="delay", start=1, end=2,
                                     extra=2)])
        transport = FaultyTransport(InProcessTransport(), plan)
        transport.send("dispatcher", {"node": "n", "n": 1})  # delayed
        assert transport.receive("dispatcher") == []
        transport.send("dispatcher", {"node": "n", "n": 2})
        assert [m["n"] for m in transport.receive("dispatcher")] == [2]
        transport.send("dispatcher", {"node": "n", "n": 3})  # op 3: release
        assert sorted(m["n"] for m in transport.receive("dispatcher")) \
            == [1, 3]
        # A straggler still delayed at close is delivered, not lost.
        plan2 = ServiceFaultPlan(
            faults=[ServiceFaultSpec(kind="delay", start=1, end=2,
                                     extra=50)])
        inner = InProcessTransport()
        wrapper = FaultyTransport(inner, plan2)
        wrapper.send("dispatcher", {"node": "n", "n": 9})
        assert wrapper.receive("dispatcher") == []
        wrapper.close()
        assert [m["n"] for m in inner.receive("dispatcher")] == [9]
