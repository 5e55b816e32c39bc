"""The durable job store: campaign queue state as a fold over events.

One :class:`JobStore` owns a campaign executor's whole queue: every
submitted job (a sweep campaign), every point's lifecycle state, every
lease, and every point's attempt book.  Over a journal file all state
is JSON-serialisable and reconstructed purely by replaying the
journal, so the store survives a hard kill at any write boundary (see
:mod:`repro.service.journal`); over a journal with no file — an
in-process sweep — the same code keeps its events in memory.  A record
holds only what a journal line can: a finished point's results live in
the cache, or with the executor waiting for its table.

Point lifecycle::

    pending --claim--> leased --complete--> done
       ^                  |
       |                  +--attempt (crash/timeout, retries left)--+
       |                  +--release (graceful drain)---------------+
       |                  +--attempt final----> quarantined
       +--invalidate (corrupt cache entry at result assembly)-- done

Leases are wall-clock (absolute epoch seconds, persisted), so a lease
taken by a crashed or wedged executor expires on its own and the point
is reclaimed by whichever service process observes the expiry —
at-least-once execution, made safe by the content-addressed result
cache (duplicate completions are idempotent: the first one wins).

Every lease grant also mints a **fencing token**: a store-wide
monotonic integer recorded on the ``claim`` event and persisted through
snapshot compaction.  Every ``complete`` / ``attempt`` / ``renew`` /
``release`` carries the token of the lease it acts on (a reclaim the
store is the authority for, and a single-owner ``complete`` that leaves
it out, the token the lease holds): one write path, check then journal.
A token that is not the point's *current* one (reaped and re-granted,
already settled, never held) raises :class:`StaleWriteError` *before*
anything is journaled, and the rejection itself is recorded as a
durable ``stale_write`` event.  This is what stops a SIGSTOP'd zombie
executor that wakes after its lease was rebalanced from committing a
stale result: the journal carries exactly one ``complete`` per point.

The store makes no policy decisions: *when* to retry versus quarantine
is the service's call (it consults the existing seeded
:class:`~repro.resilience.supervisor.RetryPolicy`); the store only
applies recorded transitions, identically live and during replay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.coyote.errors import SimulationError
from repro.service.journal import Journal

# Terminal point states (nothing left to execute).
DONE_STATES = ("done", "quarantined", "cancelled")


class ServiceError(SimulationError):
    """A campaign-service usage or lifecycle error."""


class QueueFullError(ServiceError):
    """The bounded submission queue is full; the submit was rejected.

    Backpressure by rejection: a full service refuses new campaigns
    loudly instead of wedging every caller behind an unbounded queue.
    """


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in this service."""


#: ``JobStore.complete``'s default fence: the token the lease holds.
_HELD_LEASE = object()


class StaleWriteError(ServiceError):
    """A fenced write carried a token that is no longer current.

    Raised *before* journaling, so a zombie executor (SIGSTOP'd past
    its lease, reaped, then resumed) can never append a ``complete`` or
    ``attempt`` for a lease it no longer holds.  The rejection is
    recorded separately as a ``stale_write`` journal event so operators
    can audit how often fencing fired.
    """


@dataclass
class JobStatus:
    """One job's queue-state summary (all counts are points)."""

    job_id: str
    state: str                  # "active" | "cancelled"
    total: int
    pending: int = 0
    leased: int = 0
    done: int = 0
    failed: int = 0             # done but with a failure record
    quarantined: int = 0
    cancelled: int = 0
    cache_hits: int = 0

    @property
    def complete(self) -> bool:
        """No point has execution left (done/quarantined/cancelled)."""
        return self.pending == 0 and self.leased == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "complete": self.complete}


class JobStore:
    """Queue state over a :class:`~repro.service.journal.Journal`.

    ``max_queue`` bounds the number of points with execution still
    outstanding (pending + leased) across all jobs; a submit that would
    exceed it raises :class:`QueueFullError` without journaling
    anything.
    """

    def __init__(self, journal: Journal, *, max_queue: int = 4096,
                 compact_every: int = 512):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.journal = journal
        self.max_queue = max_queue
        self.compact_every = compact_every
        self.jobs: dict[str, dict] = {}
        self.fence_counter = 0
        self.stale_writes = 0
        # Derived hints, never journaled: per job the lowest index that
        # may still be pending (claims resume there instead of
        # rescanning the finished prefix), and a lower bound on the
        # earliest lease expiry (no lease can have lapsed before it).
        self._cursor: dict[str, int] = {}
        self._earliest_expiry = float("-inf")

    # -- recovery ----------------------------------------------------------

    def open(self, *, readonly: bool = False) -> "JobStore":
        """Load the snapshot, replay the journal, ready for appends.

        ``readonly=True`` reconstructs state without opening the
        journal for writing — the lock-free path behind status reads
        while another process is serving.
        """
        state, events = self.journal.load(readonly=readonly)
        if state is not None:
            self.jobs = state["jobs"]
            # Pre-fencing snapshots carry neither counter; default 0.
            self.fence_counter = state.get("fence", 0)
            self.stale_writes = state.get("stale_writes", 0)
        for event in events:
            self._apply(event)
        # The snapshot loads back in job-id order (it is dumped with
        # sorted keys); submissions after this append in order.
        self.jobs = dict(sorted(self.jobs.items(),
                                key=lambda item: item[1]["order"]))
        return self

    def state_dict(self) -> dict:
        return {"jobs": self.jobs, "fence": self.fence_counter,
                "stale_writes": self.stale_writes}

    def compact(self) -> None:
        self.journal.compact(self.state_dict())

    def compact_if_outgrown(self) -> None:
        """Compact when the journal has outgrown its snapshot
        (:attr:`Journal.outgrown`): the rule a clean close follows."""
        if self.journal.outgrown:
            self.compact()

    def close(self) -> None:
        self.journal.close()

    def _record(self, type: str, **fields: Any) -> dict:
        event = self.journal.append(type, **fields)
        self._apply(event)
        if self.compact_every and self.journal.appends >= self.compact_every:
            self.compact()
        return event

    # -- event application (the single replay/live path) -------------------

    def _apply(self, event: dict) -> None:
        handler = getattr(self, f"_apply_{event['type']}", None)
        if handler is None:
            raise ServiceError(
                f"unknown journal event type {event['type']!r}")
        handler(event)

    def _apply_submit(self, event: dict) -> None:
        points = [
            {"index": index, "settings": settings, "state": "pending",
             "attempts": [], "lease": None, "cache_key": None,
             "verified": None, "failure": None, "cached": False}
            for index, settings in enumerate(event["points"])]
        self.jobs[event["job"]] = {
            "spec": event["spec"], "state": "active",
            "order": event["seq"], "points": points}

    def _apply_claim(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        fence = event.get("fence")
        point["state"] = "leased"
        point["lease"] = {"worker": event["worker"],
                          "expires": event["expires"],
                          "fence": fence}
        self._earliest_expiry = min(self._earliest_expiry,
                                    event["expires"])
        if fence is not None:
            self.fence_counter = max(self.fence_counter, fence)

    def _apply_stale_write(self, event: dict) -> None:
        self.stale_writes += 1

    def _apply_renew(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        if point["lease"] is not None:
            point["lease"]["expires"] = event["expires"]

    def _stale_fenced(self, point: dict, event: dict) -> bool:
        """True when an event's fence is not the live lease's.

        Commands reject stale fences before journaling, so this only
        fires on replay of a hand-edited journal — defence in depth,
        same outcome: stale writes never mutate a settled or re-leased
        point.  An event with no fence, which only a journal from
        before every write was fenced holds, applies as it did then.
        """
        if event.get("fence") is None:
            return False
        lease = point["lease"]
        return lease is None or lease.get("fence") != event["fence"]

    def _requeue(self, job_id: str, point: dict) -> None:
        point["state"] = "pending"
        point["lease"] = None
        self._cursor[job_id] = min(self._cursor.get(job_id, 0),
                                   point["index"])

    def _apply_attempt(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        if point["state"] in DONE_STATES:
            return  # stale observation of an already-settled point
        if self._stale_fenced(point, event):
            return
        point["attempts"].append({
            "outcome": event["outcome"],
            "exit_code": event.get("exit_code"),
            "stderr_tail": event.get("stderr_tail", ""),
            "heartbeats": event.get("heartbeats") or [],
            "backoff_seconds": event.get("backoff_seconds", 0.0)})
        if event["final"]:
            point["state"] = "quarantined"
            point["lease"] = None
            point["failure"] = event.get("failure")
        else:
            self._requeue(event["job"], point)

    def _apply_complete(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        if point["state"] in DONE_STATES:
            return  # at-least-once: later duplicate completions no-op
        if self._stale_fenced(point, event):
            return
        point["state"] = "done"
        point["lease"] = None
        point["cache_key"] = event.get("cache_key")
        point["verified"] = event.get("verified")
        point["failure"] = event.get("failure")
        point["cached"] = bool(event.get("cached"))

    def _apply_release(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        if point["state"] == "leased":
            self._requeue(event["job"], point)

    def _apply_invalidate(self, event: dict) -> None:
        point = self._point(event["job"], event["index"])
        if point["state"] == "done":
            self._requeue(event["job"], point)
            point["cache_key"] = None
            point["verified"] = None
            point["failure"] = None
            point["cached"] = False

    def _apply_cancel(self, event: dict) -> None:
        job = self._job(event["job"])
        job["state"] = "cancelled"
        for point in job["points"]:
            if point["state"] == "pending":
                point["state"] = "cancelled"
            # Leased points settle when their attempt finishes or the
            # lease expires; the claim loop stops handing out new ones.

    # -- commands (journal, then apply) ------------------------------------

    def submit(self, job_id: str, spec: dict,
               points: list[dict]) -> str:
        """Enqueue one job under ``job_id``.  Bounded: raises
        :class:`QueueFullError` when the new points would overflow.
        Re-submitting an id the store already knows is an idempotent
        no-op (crash-safe inbox ingestion relies on this)."""
        if job_id in self.jobs:
            return job_id
        outstanding = self.outstanding_points()
        if outstanding + len(points) > self.max_queue:
            raise QueueFullError(
                f"submission of {len(points)} point(s) rejected: "
                f"{outstanding} outstanding, queue bound is "
                f"{self.max_queue}",
                outstanding=outstanding, max_queue=self.max_queue)
        self._record("submit", job=job_id, spec=spec, points=points)
        return job_id

    def claim(self, worker: str, now: float, lease_seconds: float,
              eligible: Callable[[str, dict], bool] | None = None,
              ) -> tuple[str, dict] | None:
        """Lease the next pending point (submission order, then index).

        Returns ``(job_id, point_record)`` or ``None`` when nothing is
        claimable.  ``eligible`` lets the caller veto points (retry
        backoff windows live with the service, not the store).
        """
        for job_id, job in self.jobs.items():
            if job["state"] != "active":
                continue
            points = job["points"]
            first_pending = len(points)
            for index in range(self._cursor.get(job_id, 0), len(points)):
                point = points[index]
                if point["state"] != "pending":
                    continue
                first_pending = min(first_pending, index)
                if eligible is not None and not eligible(job_id, point):
                    continue
                self._cursor[job_id] = first_pending
                self._record("claim", job=job_id,
                             index=index, worker=worker,
                             expires=now + lease_seconds,
                             fence=self.fence_counter + 1)
                return job_id, point
            self._cursor[job_id] = first_pending
        return None

    def check_fence(self, job_id: str, index: int, fence: int) -> None:
        """Reject a write whose fencing token is not the point's current
        one.

        A mismatch — the point is not leased, or is leased under
        another token — journals a durable ``stale_write`` event and
        raises :class:`StaleWriteError`: the caller's write never
        reaches the journal.
        """
        point = self._point(job_id, index)
        lease = point["lease"]
        held = None if lease is None else lease.get("fence")
        if point["state"] == "leased" and held == fence:
            return
        self._record("stale_write", job=job_id, index=index,
                     fence=fence, held=held, state=point["state"])
        raise StaleWriteError(
            f"stale fenced write on {job_id}[{index}]: token {fence} "
            f"but point is {point['state']!r} under fence {held}",
            job=job_id, index=index, fence=fence, held=held,
            state=point["state"])

    def renew(self, job_id: str, index: int, now: float,
              lease_seconds: float, *, fence: int) -> None:
        self.check_fence(job_id, index, fence)
        self._record("renew", job=job_id, index=index,
                     expires=now + lease_seconds)

    def complete(self, job_id: str, index: int, *,
                 cache_key: str | None, verified: bool | None,
                 failure: dict | None, cached: bool = False,
                 fence: Any = _HELD_LEASE) -> None:
        """Settle a point.  Left out, ``fence`` is the token the lease
        holds: only for a caller that claims and completes in one
        thread (the benchmark's store probe); an explicit ``None`` is
        checked like any token."""
        if fence is _HELD_LEASE:
            lease = self._point(job_id, index)["lease"]
            fence = None if lease is None else lease["fence"]
        self.check_fence(job_id, index, fence)
        self._record("complete", job=job_id, index=index,
                     cache_key=cache_key, verified=verified,
                     failure=failure, cached=cached, fence=fence)

    def attempt(self, job_id: str, index: int, *, outcome: str,
                exit_code: int | None, stderr_tail: str, final: bool,
                fence: int, failure: dict | None = None,
                heartbeats: list | None = None,
                backoff_seconds: float = 0.0) -> None:
        self.check_fence(job_id, index, fence)
        self._record("attempt", job=job_id, index=index,
                     outcome=outcome, exit_code=exit_code,
                     stderr_tail=stderr_tail, final=final,
                     failure=failure, fence=fence,
                     heartbeats=heartbeats or [],
                     backoff_seconds=backoff_seconds)

    def release(self, job_id: str, index: int, *, fence: int) -> None:
        self.check_fence(job_id, index, fence)
        self._record("release", job=job_id, index=index)

    def invalidate(self, job_id: str, index: int) -> None:
        self._record("invalidate", job=job_id, index=index)

    def cancel(self, job_id: str) -> None:
        self._job(job_id)  # raise JobNotFoundError before journaling
        self._record("cancel", job=job_id)

    # -- queries -----------------------------------------------------------

    def _job(self, job_id: str) -> dict:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobNotFoundError(
                f"no job {job_id!r} in this service "
                f"(known: {sorted(self.jobs) or 'none'})") from None

    def _point(self, job_id: str, index: int) -> dict:
        return self._job(job_id)["points"][index]

    def outstanding_points(self) -> int:
        """Points still owed execution (pending + leased), all jobs."""
        return sum(1 for job in self.jobs.values()
                   for point in job["points"]
                   if point["state"] in ("pending", "leased"))

    def leases(self) -> list[tuple[str, dict]]:
        """Every leased ``(job_id, point)``, jobs in submission order."""
        return [(job_id, point) for job_id, job in self.jobs.items()
                for point in job["points"]
                if point["state"] == "leased"
                and point["lease"] is not None]

    def expired_leases(self, now: float) -> list[tuple[str, dict]]:
        """Every leased point whose wall-clock lease has lapsed."""
        if now < self._earliest_expiry:
            return []
        leases = self.leases()
        self._earliest_expiry = min(
            (point["lease"]["expires"] for _, point in leases),
            default=float("inf"))
        return [(job_id, point) for job_id, point in leases
                if point["lease"]["expires"] <= now]

    def active_leases(self) -> int:
        return sum(1 for job in self.jobs.values()
                   for point in job["points"]
                   if point["state"] == "leased")

    def has_work(self) -> bool:
        return any(job["state"] == "active"
                   and any(point["state"] in ("pending", "leased")
                           for point in job["points"])
                   for job in self.jobs.values())

    def status(self, job_id: str) -> JobStatus:
        job = self._job(job_id)
        status = JobStatus(job_id=job_id, state=job["state"],
                           total=len(job["points"]))
        for point in job["points"]:
            state = point["state"]
            if state == "pending":
                status.pending += 1
            elif state == "leased":
                status.leased += 1
            elif state == "done":
                status.done += 1
                if point["failure"] is not None:
                    status.failed += 1
                if point["cached"]:
                    status.cache_hits += 1
            elif state == "quarantined":
                status.quarantined += 1
            elif state == "cancelled":
                status.cancelled += 1
        return status
