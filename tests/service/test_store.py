"""The job store: lifecycle transitions, leases, bounds, replay.

Everything here runs against the real journal on disk, and the key
invariant — live state equals replayed state — is asserted by folding
the journal in a fresh store after each scenario.
"""

import pytest

from repro.service.journal import Journal
from repro.service.store import (
    JobNotFoundError,
    JobStore,
    QueueFullError,
    StaleWriteError,
)

POINTS = [{"noc.latency": 2}, {"noc.latency": 4}, {"noc.latency": 6}]
SPEC = {"kernel": "vector-axpy", "cores": 2, "size": 64,
        "axes": {"noc.latency": [2, 4, 6]}, "overrides": {},
        "require_verified": True}


def open_store(tmp_path, **kwargs):
    store = JobStore(Journal(tmp_path / "journal.jsonl"), **kwargs)
    store.open()
    return store


def claim_fence(store, *args, **kwargs):
    """Claim the next point; returns the fence its lease holds."""
    _job_id, point = store.claim(*args, **kwargs)
    return point["lease"]["fence"]


def replayed(tmp_path):
    """A fresh store folded purely from the journal on disk."""
    store = JobStore(Journal(tmp_path / "journal.jsonl"))
    store.open(readonly=True)
    return store


class TestLifecycle:
    def test_submit_claim_complete(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        assert store.outstanding_points() == 3
        claimed = store.claim("w", now=100.0, lease_seconds=30.0)
        assert claimed is not None
        job_id, point = claimed
        assert (job_id, point["index"]) == ("job-1", 0)
        assert point["state"] == "leased"
        assert point["lease"] == {"worker": "w", "expires": 130.0,
                                  "fence": 1}
        store.complete("job-1", 0, cache_key="k0", verified=True,
                       failure=None, fence=1)
        assert store.jobs["job-1"]["points"][0]["state"] == "done"
        status = store.status("job-1")
        assert (status.done, status.pending, status.leased) == (1, 2, 0)
        assert not status.complete
        assert replayed(tmp_path).jobs == store.jobs
        store.close()

    def test_resubmit_known_id_is_a_noop(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        before = store.journal.seq
        store.submit("job-1", SPEC, POINTS)
        assert store.journal.seq == before
        store.close()

    def test_claims_follow_submission_order(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-b", SPEC, POINTS[:1])
        store.submit("job-a", SPEC, POINTS[:1])
        job_id, _ = store.claim("w", now=0.0, lease_seconds=1.0)
        assert job_id == "job-b"  # first submitted, despite the name
        store.close()

    def test_eligible_veto_skips_points(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        _, point = store.claim(
            "w", now=0.0, lease_seconds=1.0,
            eligible=lambda job, record: record["index"] != 0)
        assert point["index"] == 1
        store.close()

    def test_duplicate_complete_is_idempotent(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.complete("job-1", 0, cache_key="first", verified=True,
                       failure=None, fence=fence)
        with pytest.raises(StaleWriteError):   # the lease it names is gone
            store.complete("job-1", 0, cache_key="second", verified=False,
                           failure={"kind": "X", "message": "dup"},
                           fence=fence)
        point = store.jobs["job-1"]["points"][0]
        assert point["cache_key"] == "first"  # the first one won
        assert point["failure"] is None
        assert replayed(tmp_path).jobs == store.jobs
        store.close()

    def test_attempt_retry_then_quarantine(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.attempt("job-1", 0, outcome="crash", exit_code=-9,
                      stderr_tail="boom", final=False, fence=fence)
        point = store.jobs["job-1"]["points"][0]
        assert point["state"] == "pending"  # back in the queue
        assert len(point["attempts"]) == 1
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.attempt("job-1", 0, outcome="crash", exit_code=-9,
                      stderr_tail="boom", final=True, fence=fence,
                      failure={"kind": "QuarantinedPoint",
                               "message": "poison"})
        assert point["state"] == "quarantined"
        status = store.status("job-1")
        assert status.quarantined == 1
        assert status.complete  # nothing left to execute
        assert replayed(tmp_path).jobs == store.jobs
        store.close()

    def test_release_returns_point_to_queue(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.release("job-1", 0, fence=fence)
        point = store.jobs["job-1"]["points"][0]
        assert point["state"] == "pending"
        assert point["lease"] is None
        assert len(point["attempts"]) == 0  # release charges nothing
        store.close()

    def test_invalidate_requeues_a_done_point(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.complete("job-1", 0, cache_key="k", verified=True,
                       failure=None, fence=fence)
        store.invalidate("job-1", 0)
        point = store.jobs["job-1"]["points"][0]
        assert point["state"] == "pending"
        assert point["cache_key"] is None
        assert replayed(tmp_path).jobs == store.jobs
        store.close()

    def test_cancel_settles_pending_not_leased(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        fence = claim_fence(store, "w", now=0.0, lease_seconds=30.0)
        store.cancel("job-1")
        states = [point["state"]
                  for point in store.jobs["job-1"]["points"]]
        assert states == ["leased", "cancelled", "cancelled"]
        # The in-flight lease settles normally.
        store.complete("job-1", 0, cache_key="k", verified=True,
                       failure=None, fence=fence)
        assert store.status("job-1").complete
        assert not store.has_work()
        store.close()

    def test_unknown_job_raises(self, tmp_path):
        store = open_store(tmp_path)
        with pytest.raises(JobNotFoundError, match="no job"):
            store.status("job-missing")
        with pytest.raises(JobNotFoundError):
            store.cancel("job-missing")
        store.close()


class TestBoundsAndLeases:
    def test_queue_bound_rejects_without_journaling(self, tmp_path):
        store = open_store(tmp_path, max_queue=4)
        store.submit("job-1", SPEC, POINTS)
        before = store.journal.seq
        with pytest.raises(QueueFullError, match="rejected"):
            store.submit("job-2", SPEC, POINTS)
        assert store.journal.seq == before
        # Completions free capacity.
        fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
        store.complete("job-1", 0, cache_key="k", verified=True,
                       failure=None, fence=fence)
        store.submit("job-2", SPEC, POINTS[:1])
        store.close()

    def test_expired_leases(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:2])
        store.claim("w", now=100.0, lease_seconds=30.0)
        store.claim("w", now=100.0, lease_seconds=90.0)
        assert store.expired_leases(now=120.0) == []
        lapsed = store.expired_leases(now=140.0)
        assert [point["index"] for _, point in lapsed] == [0]
        assert store.active_leases() == 2
        store.close()

    def test_renew_extends_a_lease(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        fence = claim_fence(store, "w", now=100.0, lease_seconds=30.0)
        store.renew("job-1", 0, now=125.0, lease_seconds=30.0, fence=fence)
        assert store.expired_leases(now=140.0) == []
        assert store.expired_leases(now=156.0) != []
        store.close()


class TestFencing:
    def test_fences_are_minted_monotonically(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        fences = []
        for _ in range(3):
            _, point = store.claim("w", now=0.0, lease_seconds=30.0)
            fences.append(point["lease"]["fence"])
        assert fences == [1, 2, 3]
        # A reclaim after release mints a strictly newer token.
        store.release("job-1", 0, fence=fences[0])
        _, point = store.claim("w2", now=0.0, lease_seconds=30.0)
        assert point["lease"]["fence"] == 4
        store.close()

    def test_stale_fence_rejected_before_journaling(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        zombie = claim_fence(store, "zombie", now=0.0, lease_seconds=30.0)
        store.release("job-1", 0, fence=zombie)
        _, point = store.claim("live", now=0.0, lease_seconds=30.0)
        fresh = point["lease"]["fence"]
        with pytest.raises(StaleWriteError, match="stale fence"):
            store.complete("job-1", 0, cache_key="zombie-k",
                           verified=True, failure=None, fence=zombie)
        # The rejection itself is durable, the complete is not.
        assert store.stale_writes == 1
        assert point["state"] == "leased"
        store.complete("job-1", 0, cache_key="live-k", verified=True,
                       failure=None, fence=fresh)
        assert point["cache_key"] == "live-k"
        replay = replayed(tmp_path)
        assert replay.jobs == store.jobs
        assert replay.stale_writes == 1
        assert replay.fence_counter == store.fence_counter
        store.close()

    def test_fence_guards_attempt_and_renew_and_release(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        zombie = claim_fence(store, "zombie", now=0.0, lease_seconds=30.0)
        store.release("job-1", 0, fence=zombie)
        store.claim("live", now=0.0, lease_seconds=30.0)
        with pytest.raises(StaleWriteError):
            store.attempt("job-1", 0, outcome="crash", exit_code=-9,
                          stderr_tail="", final=False, fence=zombie)
        with pytest.raises(StaleWriteError):
            store.renew("job-1", 0, now=1.0, lease_seconds=30.0,
                        fence=zombie)
        with pytest.raises(StaleWriteError):
            store.release("job-1", 0, fence=zombie)
        assert store.stale_writes == 3
        assert store.jobs["job-1"]["points"][0]["state"] == "leased"
        store.close()

    def test_unfenced_commands_are_rejected(self, tmp_path):
        # A write that names no lease is a stale write like any other.
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        fence = claim_fence(store, "w", now=0.0, lease_seconds=30.0)
        with pytest.raises(StaleWriteError):
            store.complete("job-1", 0, cache_key="k", verified=True,
                           failure=None, fence=None)
        with pytest.raises(StaleWriteError):
            store.attempt("job-1", 0, outcome="crash", exit_code=-9,
                          stderr_tail="", final=False, fence=None)
        with pytest.raises(StaleWriteError):
            store.renew("job-1", 0, now=1.0, lease_seconds=30.0,
                        fence=None)
        with pytest.raises(StaleWriteError):
            store.release("job-1", 0, fence=None)
        assert store.stale_writes == 4
        point = store.jobs["job-1"]["points"][0]
        assert point["state"] == "leased"
        assert point["lease"]["fence"] == fence
        store.close()

    def test_a_complete_leaving_the_fence_out_acts_on_the_held_lease(
            self, tmp_path):
        # The single-owner settle (claim, then complete, in one thread):
        # journaled under the lease's token, and a stale write on a
        # point that holds no lease.
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:2])
        fence = claim_fence(store, "w", now=0.0, lease_seconds=30.0)
        store.complete("job-1", 0, cache_key="k", verified=True,
                       failure=None)
        with pytest.raises(StaleWriteError):
            store.complete("job-1", 0, cache_key="again", verified=True,
                           failure=None)
        with pytest.raises(StaleWriteError):
            store.complete("job-1", 1, cache_key="k1", verified=True,
                           failure=None)
        assert store.stale_writes == 2
        points = store.jobs["job-1"]["points"]
        assert (points[0]["state"], points[0]["cache_key"]) == ("done", "k")
        assert points[1]["state"] == "pending"
        _state, events = Journal(tmp_path / "journal.jsonl").load(
            readonly=True)
        completes = [event for event in events
                     if event["type"] == "complete"]
        assert [event["fence"] for event in completes] == [fence]
        assert replayed(tmp_path).jobs == store.jobs
        store.close()

    def test_a_journal_with_unfenced_reclaims_replays_as_written(
            self, tmp_path):
        # Before every write was fenced, the store-authoritative
        # reclaims journaled ``fence: null`` against fenced claims: an
        # expired lease charged (a retry), a lost node's lease charged
        # (here its final attempt), and a complete that named no token.
        # They replay as they applied when they were written.
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS)
        for _ in POINTS:
            claim_fence(store, "node-a", now=0.0, lease_seconds=30.0)
        journal = store.journal
        journal.append("attempt", job="job-1", index=0,
                       outcome="lease-expired", exit_code=None,
                       stderr_tail="", final=False, failure=None,
                       fence=None, heartbeats=[], backoff_seconds=0.0)
        journal.append("attempt", job="job-1", index=1,
                       outcome="node-lost", exit_code=None,
                       stderr_tail="", final=True,
                       failure={"kind": "quarantined"}, fence=None,
                       heartbeats=[], backoff_seconds=0.0)
        journal.append("complete", job="job-1", index=2, cache_key="k2",
                       verified=True, failure=None, cached=False,
                       fence=None)
        store.close()
        reopened = open_store(tmp_path)
        points = reopened.jobs["job-1"]["points"]
        assert [point["state"] for point in points] == [
            "pending", "quarantined", "done"]
        assert [point["lease"] for point in points] == [None] * 3
        assert [[attempt["outcome"] for attempt in point["attempts"]]
                for point in points] == [["lease-expired"], ["node-lost"],
                                         []]
        assert points[1]["failure"] == {"kind": "quarantined"}
        assert points[2]["cache_key"] == "k2"
        assert reopened.stale_writes == 0
        # The retried point is claimed again, above the old tokens.
        assert claim_fence(reopened, "node-b", now=0.0,
                           lease_seconds=30.0) == 4
        reopened.close()

    def test_snapshot_roundtrip_preserves_fence_state(self, tmp_path):
        store = open_store(tmp_path)
        store.submit("job-1", SPEC, POINTS[:1])
        zombie = claim_fence(store, "zombie", now=0.0, lease_seconds=30.0)
        store.release("job-1", 0, fence=zombie)
        store.claim("live", now=0.0, lease_seconds=30.0)
        with pytest.raises(StaleWriteError):
            store.complete("job-1", 0, cache_key="k", verified=True,
                           failure=None, fence=zombie)
        store.compact()
        store.close()
        reopened = open_store(tmp_path)
        assert reopened.fence_counter == 2
        assert reopened.stale_writes == 1
        # New claims keep minting above the compacted high-water mark.
        reopened.release("job-1", 0, fence=2)
        _, point = reopened.claim("w", now=0.0, lease_seconds=30.0)
        assert point["lease"]["fence"] == 3
        reopened.close()


class TestCompactionIntegration:
    def test_auto_compaction_preserves_state(self, tmp_path):
        store = open_store(tmp_path, compact_every=4)
        store.submit("job-1", SPEC, POINTS)
        for index in range(3):
            fence = claim_fence(store, "w", now=0.0, lease_seconds=1.0)
            store.complete("job-1", index, cache_key=f"k{index}",
                           verified=True, failure=None, fence=fence)
        # 7 events with compact_every=4: at least one compaction ran.
        assert (tmp_path / "journal.jsonl.snap").exists()
        assert replayed(tmp_path).jobs == store.jobs
        store.close()
