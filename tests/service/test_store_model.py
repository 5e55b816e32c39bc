"""Model-based check of the job store: explored, not enumerated.

``test_store.py`` walks the lifecycle scenarios somebody thought of;
this file lets Hypothesis interleave them.  A ``RuleBasedStateMachine``
drives a real :class:`JobStore` — submit, idempotent re-submit, claim,
renew, lease expiry under an injected clock, complete (first, duplicate,
under a stale fence and under none), attempt (retry and final), release,
invalidate, cancel, compaction, close-and-reopen — next to a
few-dozen-line executable model of what the store promises, and after
every step asserts:

* every point is in the state the model says, under the lease fence
  the model says, holding the cache key of its *first* effective
  completion (at most one ``complete`` ever takes effect per point
  incarnation);
* fencing tokens are strictly monotone store-wide;
* a write under a stale fence, or under none, raises, changes nothing,
  and is counted in ``stale_writes``;
* a store folded from the journal alone equals the live one;
* ``outstanding_points()`` / ``has_work()`` / ``expired_leases()``
  agree with the model;
* ``outstanding_points()`` / ``active_leases()`` / ``leases()`` /
  ``has_work()`` and the point ``claim`` would lease next equal a
  brute-force fold over the store's own records (the contract any
  index kept by the fold must meet);
* the journal's byte counts equal its files' sizes, and a close
  (``close_and_reopen``) leaves the journal smaller than its snapshot.

The same machine runs twice: over the durable journal file, and over
a journal with no file behind it (what an in-process sweep's store
uses) — same ``JobStore``, same guarantees, replay included.

The examples are derandomized.  Tier-1 runs 100 of them; CI's
``service-smoke`` job runs the ``ci`` profile (``tests/conftest.py``).
"""

import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.service.journal import Journal  # noqa: E402
from repro.service.store import (  # noqa: E402
    DONE_STATES,
    JobStore,
    QueueFullError,
    StaleWriteError,
)

JOBS = ("job-a", "job-b", "job-c")
MAX_QUEUE = 6
SPEC = {"axes": {}}

# How a write names its lease: the token the point is held under now,
# one that was never (or is no longer) current, or no token at all.
FENCES = st.sampled_from(("current", "stale", "none"))


class StoreModel:
    """What the store promises, in the fewest lines that say it."""

    def __init__(self):
        self.jobs = {}          # job -> "active" | "cancelled", in order
        self.points = {}        # (job, index) -> record
        self.fence = 0
        self.stale = 0

    def outstanding(self):
        return sum(1 for point in self.points.values()
                   if point["state"] in ("pending", "leased"))

    def submit(self, job, count):
        self.jobs[job] = "active"
        for index in range(count):
            self.points[job, index] = {
                "state": "pending", "fence": None, "was": None,
                "expires": None, "attempts": 0, "key": None}

    def next_claim(self):
        for key, point in self.points.items():
            if self.jobs[key[0]] == "active" \
                    and point["state"] == "pending":
                return key
        return None

    def token(self, key, which):
        """The token a writer presents, and whether it is accepted."""
        point = self.points[key]
        if which == "none":
            return None, False
        if which == "current" and point["state"] == "leased":
            return point["fence"], True
        # The zombie's token: the one this point was last held under,
        # or one that was never minted at all.
        return point["was"] or self.fence + 7, False

    def unlease(self, point, state):
        point.update(state=state, was=point["fence"] or point["was"],
                     fence=None, expires=None)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="coyote-store-model-"))
        self.model = StoreModel()
        self.now = 1000.0
        self.minted = []
        self.keys = 0
        self.memory = Journal()
        self.store = self.open_store()

    def journal(self):
        """The journal every (re)open and every replay folds."""
        return Journal(self.root / "journal.jsonl")

    def open_store(self, **kwargs):
        return JobStore(self.journal(), max_queue=MAX_QUEUE,
                        compact_every=0).open(**kwargs)

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    # -- helpers -----------------------------------------------------------

    def some_point(self, data, *states):
        keys = [key for key, point in self.model.points.items()
                if not states or point["state"] in states]
        return data.draw(st.sampled_from(keys))

    def fenced(self, key, which, write):
        """Run ``write(fence)``; returns True when it was accepted."""
        token, accepted = self.model.token(key, which)
        before = (self.store.jobs[key[0]]["points"][key[1]]).copy()
        if accepted:
            write(token)
            return True
        with pytest.raises(StaleWriteError):
            write(token)
        self.model.stale += 1
        assert self.store.jobs[key[0]]["points"][key[1]] == before
        return False

    def has_points(self):
        return bool(self.model.points)

    # -- rules -------------------------------------------------------------

    @initialize(job=st.sampled_from(JOBS), count=st.integers(1, 3))
    def first_submit(self, job, count):
        self.submit(job, count)

    @rule(job=st.sampled_from(JOBS), count=st.integers(1, 3))
    def submit(self, job, count):
        points = [{"x": index} for index in range(count)]
        seq = self.store.journal.seq
        if job in self.model.jobs:
            self.store.submit(job, SPEC, points)   # idempotent no-op
            assert self.store.journal.seq == seq
        elif self.model.outstanding() + count > MAX_QUEUE:
            with pytest.raises(QueueFullError):
                self.store.submit(job, SPEC, points)
            assert self.store.journal.seq == seq
        else:
            self.store.submit(job, SPEC, points)
            self.model.submit(job, count)

    @rule(worker=st.sampled_from(("w1", "w2")),
          lease=st.sampled_from((5.0, 30.0)))
    def claim(self, worker, lease):
        expected = self.model.next_claim()
        claimed = self.store.claim(worker, self.now, lease)
        if expected is None:
            assert claimed is None
            return
        job, record = claimed
        assert (job, record["index"]) == expected
        fence = record["lease"]["fence"]
        assert fence == self.model.fence + 1
        self.minted.append(fence)
        self.model.fence = fence
        self.model.points[expected].update(
            state="leased", fence=fence, expires=self.now + lease)

    @precondition(has_points)
    @rule(data=st.data(), which=FENCES)
    def renew(self, data, which):
        key = self.some_point(data)
        accepted = self.fenced(key, which, lambda fence: self.store.renew(
            *key, self.now, 30.0, fence=fence))
        point = self.model.points[key]
        if accepted and point["state"] == "leased":
            point["expires"] = self.now + 30.0

    @rule(seconds=st.sampled_from((1.0, 6.0, 31.0)))
    def tick(self, seconds):
        self.now += seconds

    @precondition(has_points)
    @rule(final=st.booleans())
    def reap_expired(self, final):
        """What the executor does with a lapsed lease: charge it under
        the fence the lease holds (the store is the authority on its
        own clock)."""
        for job, record in self.store.expired_leases(self.now):
            self.store.attempt(job, record["index"],
                               outcome="lease-expired", exit_code=None,
                               stderr_tail="", final=final,
                               fence=record["lease"]["fence"])
            point = self.model.points[job, record["index"]]
            point["attempts"] += 1
            self.model.unlease(point,
                               "quarantined" if final else "pending")

    @precondition(has_points)
    @rule(data=st.data(), which=FENCES)
    def complete(self, data, which):
        """First, duplicate and stale completions are all this rule:
        the drawn point may be in any state."""
        key = self.some_point(data)
        self.keys += 1
        cache_key = f"k{self.keys}"
        accepted = self.fenced(key, which, lambda fence:
                               self.store.complete(
                                   *key, cache_key=cache_key,
                                   verified=True, failure=None,
                                   fence=fence))
        point = self.model.points[key]
        if accepted and point["state"] not in DONE_STATES:
            self.model.unlease(point, "done")
            point["key"] = cache_key     # the first one wins, for good

    @precondition(has_points)
    @rule(data=st.data(), which=FENCES, final=st.booleans())
    def attempt(self, data, which, final):
        key = self.some_point(data)
        accepted = self.fenced(key, which, lambda fence:
                               self.store.attempt(
                                   *key, outcome="crash", exit_code=-9,
                                   stderr_tail="boom", final=final,
                                   fence=fence))
        point = self.model.points[key]
        if accepted and point["state"] not in DONE_STATES:
            point["attempts"] += 1
            self.model.unlease(point,
                               "quarantined" if final else "pending")

    @precondition(has_points)
    @rule(data=st.data(), which=FENCES)
    def release(self, data, which):
        key = self.some_point(data)
        accepted = self.fenced(key, which, lambda fence:
                               self.store.release(*key, fence=fence))
        point = self.model.points[key]
        if accepted and point["state"] == "leased":
            self.model.unlease(point, "pending")

    @precondition(has_points)
    @rule(data=st.data())
    def invalidate(self, data):
        key = self.some_point(data)
        self.store.invalidate(*key)
        point = self.model.points[key]
        if point["state"] == "done":
            point.update(state="pending", key=None)

    @precondition(has_points)
    @rule(data=st.data())
    def cancel(self, data):
        job = data.draw(st.sampled_from(sorted(self.model.jobs)))
        self.store.cancel(job)
        self.model.jobs[job] = "cancelled"
        for key, point in self.model.points.items():
            if key[0] == job and point["state"] == "pending":
                point["state"] = "cancelled"

    @rule()
    def compact(self):
        self.store.compact()

    @rule()
    def close_and_reopen(self):
        """What a service's clean close does: compact if the journal
        has outgrown its snapshot, then close."""
        before = (self.store.jobs, self.store.fence_counter,
                  self.store.stale_writes)
        self.store.compact_if_outgrown()
        journal = self.store.journal
        if journal.path is not None:
            assert journal.bytes < journal.snapshot_bytes
        self.store.close()
        self.store = self.open_store()
        assert (self.store.jobs, self.store.fence_counter,
                self.store.stale_writes) == before

    # -- invariants --------------------------------------------------------

    @invariant()
    def points_match_the_model(self):
        assert set(self.store.jobs) == set(self.model.jobs)
        for (job, index), expected in self.model.points.items():
            record = self.store.jobs[job]["points"][index]
            lease = record["lease"] or {}
            assert (record["state"], record["cache_key"],
                    len(record["attempts"]), lease.get("fence"),
                    lease.get("expires")) \
                == (expected["state"], expected["key"],
                    expected["attempts"], expected["fence"],
                    expected["expires"]), (job, index)
        for job, state in self.model.jobs.items():
            assert self.store.jobs[job]["state"] == state

    @invariant()
    def fences_are_strictly_monotone(self):
        assert self.minted == sorted(set(self.minted))
        assert self.store.fence_counter == self.model.fence

    @invariant()
    def stale_writes_are_counted_and_nothing_else(self):
        assert self.store.stale_writes == self.model.stale

    @invariant()
    def queries_agree_with_the_model(self):
        assert self.store.outstanding_points() \
            == self.model.outstanding()
        assert self.store.has_work() == any(
            self.model.jobs[key[0]] == "active"
            and point["state"] in ("pending", "leased")
            for key, point in self.model.points.items())
        assert sorted((job, record["index"]) for job, record
                      in self.store.expired_leases(self.now)) \
            == sorted(key for key, point in self.model.points.items()
                      if point["state"] == "leased"
                      and point["expires"] <= self.now)
        assert list(self.store.jobs) == list(self.model.jobs)

    @invariant()
    def queries_agree_with_a_brute_force_fold(self):
        """Every query, and the point ``claim`` would lease next, read
        off the records themselves in submission order."""
        jobs = sorted(self.store.jobs.items(),
                      key=lambda item: item[1]["order"])
        records = [(job_id, job["state"], point) for job_id, job in jobs
                   for point in job["points"]]
        leased = [(job_id, point["index"]) for job_id, _, point in records
                  if point["state"] == "leased"]
        owed = [(job_id, point["index"]) for job_id, _, point in records
                if point["state"] in ("pending", "leased")]
        live = [(job_id, point) for job_id, state, point in records
                if state == "active"]
        assert self.store.outstanding_points() == len(owed)
        assert self.store.active_leases() == len(leased)
        assert [(job_id, point["index"]) for job_id, point
                in self.store.leases()] == leased
        assert self.store.has_work() == any(
            point["state"] in ("pending", "leased") for _, point in live)
        offered = []

        def veto(job_id, point):      # the first offer is claim's choice
            offered.append((job_id, point["index"]))
            return False

        seq = self.store.journal.seq
        assert self.store.claim("probe", self.now, 1.0, veto) is None
        assert self.store.journal.seq == seq
        assert offered[:1] == [(job_id, point["index"]) for job_id, point
                               in live if point["state"] == "pending"][:1]

    @invariant()
    def journal_counts_its_own_bytes(self):
        journal = self.store.journal
        if journal.path is None:
            return
        assert journal.bytes == journal.path.stat().st_size
        snapshot = journal.snapshot_path
        assert journal.snapshot_bytes == (
            snapshot.stat().st_size if snapshot.exists() else None)

    @invariant()
    def replayed_state_equals_live_state(self):
        replayed = JobStore(self.journal()).open(readonly=True)
        assert replayed.jobs == self.store.jobs
        assert replayed.fence_counter == self.store.fence_counter
        assert replayed.stale_writes == self.store.stale_writes


# 100 examples keep tier-1 at a few seconds; ``--hypothesis-profile=ci``
# runs the profile's 500.
_CI = settings.get_profile("ci")
_EXAMPLES = _CI.max_examples if settings.default is _CI else 100



class MemoryStoreMachine(StoreMachine):
    def journal(self):
        return self.memory


TestStoreModel = StoreMachine.TestCase
TestMemoryStoreModel = MemoryStoreMachine.TestCase
TestStoreModel.settings = TestMemoryStoreModel.settings = settings(
    max_examples=_EXAMPLES, stateful_step_count=40, derandomize=True,
    deadline=None)
