"""The campaign executor, and the durable service built on it.

:class:`CampaignExecutor` is the one loop every campaign tier runs —
claim, cache hit or pool worker or in-process, settle, retry or
quarantine — and a tier is what it hands that loop (its docstring, and
docs/RESILIENCE.md "How a sweep point is executed"): ``Sweep.run`` a
store whose journal has no file, :class:`CampaignService` a root
directory, the cluster dispatcher that plus transport grants, and a
cluster node a store of the grants it was sent.

:class:`CampaignService` turns ``repro.api.sweep()`` from a library
call into a crash-consistent job system rooted in one directory::

    root/
      journal.jsonl        the event journal (single writer, locked)
      journal.jsonl.snap   checksummed snapshot (compaction)
      inbox/               spooled submissions from other processes
      cache/               content-addressed, checksummed results

Execution model — at-least-once, made safe by idempotence:

* **Claims are leases.**  The executor claims a pending point under a
  wall-clock lease and renews it from the worker's heartbeats once a
  third of its term has passed.  A service or executor that dies
  simply stops renewing; whoever opens the store next observes the
  expiry and reclaims the point.  A lease whose owner is *provably*
  dead (same host, PID gone) is released immediately without spending
  an attempt — a crashed service must not eat a point's retry budget;
  only a silent/wedged owner does.
* **Every write names its lease.**  A completion, attempt, renewal or
  release carries the lease's fence, checked before it is journaled; a
  reclaim the store is the authority for writes under the held fence.
* **Workers never touch the journal or the cache.**  A point runs in a
  :class:`~repro.coyote.parallel.PointPool` worker (heartbeats
  included); only the parent journals transitions and writes cache
  entries, so an orphaned worker left behind by a SIGKILLed service
  can corrupt nothing — it dies on its next pipe write, and at worst
  its work is recomputed.
* **Completions are idempotent.**  Results live in the
  content-addressed cache keyed by (config digest, kernel digest,
  seed); a point executed twice writes the same bytes under the same
  key, and the job store ignores duplicate ``complete`` events.
* **One failure path.**  A crashed, overdue, expired or node-lost
  attempt is charged in :meth:`CampaignExecutor._record_failure`
  under the policy's seeded :meth:`RetryPolicy.after_failure
  <repro.resilience.supervisor.RetryPolicy.after_failure>` rule:
  retried with backoff, then quarantined as a :class:`QuarantinedPoint`
  — or, under an unsupervised policy, a final :class:`WorkerCrash`.

Cross-process shape: the serving process holds the journal lock; other
processes submit by spooling framed JSON files into ``inbox/``
(atomic, unique names, no lock needed) and read status lock-free from
the snapshot + journal.  ``repro.api.submit/status/result/cancel`` and
the ``coyote-sim serve`` / ``coyote-sim jobs`` CLI wrap exactly this.
"""

from __future__ import annotations

import json
import os
import secrets
import signal
import socket
import time
from pathlib import Path
from typing import Any, Callable

from repro.coyote.errors import SimulationError
from repro.coyote.parallel import PointPool, RemoteError, WorkerCrash
from repro.coyote.sweep import (
    Sweep,
    SweepError,
    SweepPoint,
    SweepTable,
    call_workload_factory,
    factory_takes_settings,
    run_point,
)
from repro.kernels import KERNELS, workload_factory
from repro.resilience.locking import PathLock
from repro.resilience.supervisor import (
    AttemptRecord,
    DegradationEvent,
    QuarantinedPoint,
    RetryPolicy,
    SupervisorPolicy,
)
from repro.service.cache import (
    ResultCache,
    kernel_digest,
    point_key,
)
from repro.service.journal import Journal
from repro.service.store import (
    DONE_STATES,
    JobNotFoundError,
    JobStatus,
    JobStore,
    QueueFullError,
    ServiceError,
    StaleWriteError,
)
from repro.telemetry.campaign import CampaignMetrics
from repro.utils.atomic import FrameError, frame, read_framed, write_atomically

__all__ = [
    "CampaignExecutor",
    "CampaignService",
    "JobNotFoundError",
    "JobStatus",
    "QueueFullError",
    "ServiceError",
    "StaleWriteError",
    "assemble_result",
    "build_spec",
    "new_job_id",
    "read_spooled",
    "readonly_store",
    "spec_points",
    "spool_cancel",
    "spool_submission",
]

# Parent-side wait granularity for worker pipes.
_POLL_SECONDS = 0.05

# The policy of a service or dispatcher nobody handed one (each
# ``coyote-sim serve`` supervision flag replaces one of its fields).
SERVICE_POLICY = SupervisorPolicy(
    retry=RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=5.0))

# Bound on the per-job kernel digests a long-lived executor keeps.
_DIGESTS_MAX = 1024

SPOOL_FORMAT = 2
_SPOOL_MAGIC = b"coyote-submission"


def new_job_id() -> str:
    """A fresh, collision-resistant job id (client-generated, so
    submissions can be spooled without coordinating a counter)."""
    return f"job-{secrets.token_hex(6)}"


def build_spec(kernel: str, axes: dict[str, list], *, cores: int = 8,
               size: int | None = None, require_verified: bool = True,
               **overrides: Any) -> dict:
    """Validate and canonicalise one submission into a JSON spec."""
    if kernel not in KERNELS:
        raise ServiceError(
            f"unknown kernel {kernel!r} (the service runs named "
            f"kernels only; expected one of {sorted(KERNELS)})")
    if not axes:
        raise ServiceError("a submission needs at least one axis")
    spec = {"kernel": kernel, "cores": cores, "size": size,
            "axes": {name: list(values)
                     for name, values in axes.items()},
            "overrides": dict(overrides),
            "require_verified": require_verified}
    try:
        json.dumps(spec)
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"submission is not JSON-serialisable (service sweeps "
            f"take plain axis values): {exc}") from exc
    try:
        Sweep(base_cores=cores, axes=axes, **overrides)
    except SweepError as exc:   # not a configuration path, or mistyped
        raise ServiceError(str(exc)) from None
    return spec


def spec_points(spec: dict) -> list[dict]:
    """The cartesian settings dicts of one spec, in sweep order."""
    return Sweep(base_cores=spec["cores"], axes=spec["axes"],
                 **spec["overrides"]).points()


def spec_recipe(spec: dict) -> tuple:
    """The ``run_point`` / ``PointPool.spawn`` arguments after
    ``settings`` that execute one point of a named-kernel ``spec``."""
    return (spec["cores"], spec["overrides"],
            workload_factory(spec["kernel"], spec["cores"], spec["size"]),
            spec["require_verified"])


def completion_record(cache: ResultCache | None, key: str | None,
                      point: SweepPoint, *, cached: bool = False) -> dict:
    """What a finished point journals; stores its results on the way.

    An outcome the cache deems storable (see
    :meth:`ResultCache.storable`) is written under ``key`` unless it
    was just ``cached`` — read from there; ``cache_key`` stays ``None``
    for a point the cache does not keep, one with no key (always, with
    no cache), or a write that failed.
    """
    record = {"cache_key": None, "verified": point.verified,
              "failure": point.failure_record()}
    if key is not None and (cached or (cache.storable(point)
                                       and cache.put(key, point))):
        record["cache_key"] = key
    return record


def spool_submission(root: str | Path, spec: dict,
                     job_id: str | None = None) -> str:
    """Atomically drop one submission into the service inbox.

    The lock-free submission path: any process may spool while a
    server is running; the server ingests the file into its journal.
    """
    root = Path(root)
    inbox = root / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    job_id = job_id or new_job_id()
    body = json.dumps({"job_id": job_id, "spec": spec},
                      sort_keys=True, indent=1).encode()
    write_atomically(inbox / f"{job_id}.json",
                     frame(_SPOOL_MAGIC, SPOOL_FORMAT, body), body)
    return job_id


def read_spooled(root: str | Path, job_id: str
                 ) -> tuple[dict, list[dict]] | None:
    """The spec and points of ``job_id`` spooled in ``root``'s inbox,
    ``None`` when it is not there, and :class:`QueueFullError` when the
    bounded queue rejected it.  A file that is not whole raises
    :class:`ServiceError` naming it.  A format-1 file — bare JSON, its
    first byte ``{``, spooled before submissions were framed — is read
    without a frame, so an upgrade keeps it."""
    path = Path(root) / "inbox" / f"{job_id}.json"
    try:
        _format, body = read_framed(path, _SPOOL_MAGIC, (SPOOL_FORMAT,))
    except FileNotFoundError:
        if path.with_suffix(".rejected").exists():
            raise QueueFullError(
                f"{job_id} was rejected by the service's bounded queue "
                f"(see {path.with_suffix('.rejected')})") from None
        return None
    except FrameError as exc:
        body = path.read_bytes()
        if exc.format is not None or not body.startswith(b"{"):
            raise ServiceError(str(exc)) from None
    try:
        spec = json.loads(body)["spec"]
        return spec, spec_points(spec)
    except Exception as exc:
        raise ServiceError(
            f"{path} is not a readable submission: {exc}") from None


def spool_cancel(root: str | Path, job_id: str) -> None:
    """Ask a running server to cancel ``job_id`` (lock-free).

    The marker applies once the server next ingests its inbox; a
    marker for a job the server never learns about lingers harmlessly.
    """
    inbox = Path(root) / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    (inbox / f"{job_id}.cancel").touch()


def readonly_store(root: str | Path) -> "JobStore":
    """Reconstruct a service's queue state without taking its lock.

    The lock-free query path: replays the snapshot + journal without
    opening them for writing, so it is always safe while a server is
    live (a torn tail is skipped, not truncated).
    """
    store = JobStore(Journal(Path(root) / "journal.jsonl"))
    store.open(readonly=True)
    return store


def settled_point(record: dict,
                  cache: ResultCache | None) -> SweepPoint | None:
    """The :class:`SweepPoint` one settled store record stands for, or
    ``None`` when its cache entry could not be served (the cache has
    already set it aside)."""
    settings, state = record["settings"], record["state"]
    if state == "quarantined":
        return SweepPoint(settings, None, False,
                          _final_error(settings, record))
    if state == "cancelled":
        return SweepPoint(settings, None, False, ServiceError(
            f"point {settings} was cancelled"))
    if record["cache_key"] is not None:
        return cache.get(record["cache_key"])
    failure = record["failure"] or {
        "kind": "ServiceError", "message": "point failed"}
    return SweepPoint(settings, None, bool(record["verified"]),
                      RemoteError(failure["kind"], failure["message"]))


def assemble_result(store: JobStore, cache: ResultCache | None,
                    job_id: str, settled: dict[int, SweepPoint] | None = None,
                    ) -> tuple[SweepTable | None, list[tuple[int, str]]]:
    """Build a job's :class:`SweepTable` from the settled store.

    ``settled`` maps an index to a point in hand already — one its
    cache entry holds, or any at all with no cache; only other cached
    points are read (and verified).
    Returns ``(table, corrupt)`` where ``corrupt`` lists the
    ``(index, cache_key)`` of completed points whose cache entry could
    not be served; when any exist the table is ``None`` and those
    points need recomputing.  Journal-write-free, so the read-only API
    path shares it.
    """
    job = store._job(job_id)
    settled = settled or {}
    points: list[SweepPoint] = []
    corrupt: list[tuple[int, str]] = []
    for record in job["points"]:
        if record["state"] not in DONE_STATES:
            raise ServiceError(
                f"{job_id}[{record['index']}] is still "
                f"{record['state']}; wait for the job to complete")
        point = settled.get(record["index"]) or settled_point(record, cache)
        if point is None:
            corrupt.append((record["index"], record["cache_key"]))
        else:
            points.append(point)
    if corrupt:
        return None, corrupt
    return SweepTable(axes=dict(job["spec"]["axes"]),
                      points=points), []


def held_lease(job_id: str, point: dict) -> dict:
    """The lease a store record holds, as a reclaim the store is the
    authority for names it."""
    return {"job_id": job_id, "index": point["index"],
            "fence": point["lease"]["fence"]}


def _final_error(settings: dict, record: dict) -> SimulationError:
    """The error of a point whose every attempt died: a
    :class:`QuarantinedPoint` carrying the store's attempt book — or,
    where no supervision was asked for, the plain
    :class:`WorkerCrash`."""
    attempts = [
        AttemptRecord(attempt=number, outcome=entry["outcome"],
                      exit_code=entry.get("exit_code"),
                      signal=(-entry["exit_code"]
                              if entry.get("exit_code") is not None
                              and entry["exit_code"] < 0 else None),
                      stderr_tail=entry.get("stderr_tail", ""),
                      heartbeats=[tuple(beat) for beat
                                  in entry.get("heartbeats", ())],
                      backoff_seconds=entry.get("backoff_seconds", 0.0))
        for number, entry in enumerate(record["attempts"], start=1)]
    failure = record.get("failure") or {}
    message = (failure.get("message")
               or f"sweep point {settings} quarantined")
    if failure.get("kind") == "WorkerCrash":
        return WorkerCrash(message, exit_code=attempts[-1].exit_code,
                           stderr_tail=attempts[-1].stderr_tail)
    return QuarantinedPoint(message, attempts=attempts)


class CampaignExecutor:
    """The one campaign loop: claim → (cache hit | pool worker |
    in-process) → settle → on a death, retry or quarantine.

    What a tier passes in is all that tells the tiers apart:

    * ``store`` — where points come from: any :class:`JobStore`,
      durable or over a journal with no file;
    * ``cache`` — where results go: a :class:`ResultCache`, or
      ``None`` to hold each one for the waiting :meth:`result`;
    * ``slots`` — how many local workers may run at once: ``N``, ``0``
      to run points in this process (the floor of the degradation
      ladder), ``None`` while every point is granted to remote
      executors;
    * ``recipe_for`` — how a job's spec becomes the ``run_point``
      arguments (a named-kernel JSON spec by default);
    * ``policy`` — all of supervision: what a death costs (its
      ``retry`` if :attr:`~SupervisorPolicy.supervised`, else a final
      :class:`WorkerCrash`), the deadlines its workers are held to, the
      backoff seed, the teardown grace and the ladder's ``degrade_after``;
    * ``lease_seconds`` — the lease term (with the policy, it sets the
      worker beat cadence: :meth:`_beat_seconds`).
    """

    def __init__(self, store: JobStore, cache: ResultCache | None = None,
                 *, slots: int | None = 1,
                 policy: SupervisorPolicy | None = None,
                 lease_seconds: float = float("inf"),
                 recipe_for: Callable[[dict], tuple] = spec_recipe,
                 monitor: CampaignMetrics | None = None,
                 mp_context: str | None = None):
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be > 0, got {lease_seconds}")
        self.store = store
        self.cache = cache
        self.slots = slots
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.policy.validate()
        self.lease_seconds = lease_seconds
        self.recipe_for = recipe_for
        self.monitor = monitor if monitor is not None else CampaignMetrics()
        self.worker_id = (f"{socket.gethostname()}:{os.getpid()}:"
                          f"{secrets.token_hex(4)}")
        # In-flight workers; each worker's ``context`` is its lease (the
        # dict _claim_next returned).
        self.pool = PointPool(
            mp_context, heartbeat_seconds=self._beat_seconds(),
            term_grace_seconds=self.policy.term_grace_seconds)
        # Test/tier seam: called with each point's SweepPoint as it
        # settles for good (progress lines, ``on_error="raise"``).
        self.on_settle: Callable[[SweepPoint], None] | None = None
        self.degradations: list[DegradationEvent] = []
        self._pool_failures = 0
        self._not_before: dict[tuple[str, int], float] = {}
        self._kernel_digests: dict[str, str] = {}
        self._recipes: tuple = (None, None)   # (job id, its recipe)
        # While result(job, wait=True) runs: (job, index -> the point
        # settled here under a cache key, or any with no cache);
        # assembly reads the rest.
        self._held: tuple[str, dict[int, SweepPoint]] | None = None

    def _now(self) -> float:
        """Lease-clock wall time; subclasses may inject a test clock."""
        return time.time()

    def _beat_seconds(self) -> float:
        """The one worker beat cadence rule: the policy's heartbeat
        interval if set; else, where a finite lease or an RSS ceiling reads
        beats, every 0.2 s (at most a sixth of the term); else none."""
        policy, term = self.policy, self.lease_seconds
        if policy.heartbeat_interval_seconds:
            return policy.heartbeat_interval_seconds
        if term == float("inf") and policy.max_rss_mb is None:
            return 0.0
        return min(0.2, term / 6)

    # -- the loop ------------------------------------------------------------

    def run(self, *, max_seconds: float | None = None,
            stop: Callable[[], bool] | None = None) -> int:
        """Execute queued points until none remain (or ``stop`` says
        so); returns the number of points completed this call.

        Claims points under leases, serves cache hits without
        simulating, runs misses in worker processes (or in-process at
        the ladder's floor) with heartbeat-renewed leases, retries or
        quarantines failures, and reclaims expired leases — including
        those left behind by a previous, killed process.
        """
        before = self.monitor.counters["completions"]
        deadline = (time.monotonic() + max_seconds
                    if max_seconds is not None else None)
        while not (stop is not None and stop()):
            if deadline is not None and time.monotonic() > deadline:
                break
            if self.step() or self.pool:
                continue
            self.monitor.gauges.update(
                queue_depth=self.store.outstanding_points(),
                active_leases=self.store.active_leases())
            if not self.store.has_work():
                self.pool.retire()
                break
            # Only backoff windows or foreign leases remain.
            time.sleep(_POLL_SECONDS)
        return self.monitor.counters["completions"] - before

    def step(self) -> bool:
        """One executor turn; returns True when anything progressed."""
        self._reap_expired()
        progressed = self._fill_slots()
        progressed |= self._pump()
        self._reap_overdue(*self.pool.workers)
        return progressed

    def _eligible(self, job_id: str, point: dict) -> bool:
        not_before = self._not_before.get((job_id, point["index"]))
        return not_before is None or not_before <= self._now()

    # -- claim -> settle: the one path every tier takes ---------------------

    def _claim_next(self, owner: str) -> dict | None:
        """Claim the next eligible point under a lease for ``owner``
        and serve it from the cache when possible.

        Returns ``None`` when nothing is claimable, else the lease:
        ``job_id`` / ``index`` / ``settings`` / ``spec`` / ``cache_key``
        / ``fence`` / ``attempt``, with ``settled`` true when a cache
        hit already completed the point (no simulation, lease settled
        now).
        """
        claimed = self.store.claim(owner, self._now(), self.lease_seconds,
                                   eligible=self._eligible)
        if claimed is None:
            return None
        job_id, point = claimed
        spec = self.store.jobs[job_id]["spec"]
        lease = {"job_id": job_id, "index": point["index"],
                 "settings": point["settings"], "spec": spec,
                 # Only a node's grant comes with its key.
                 "cache_key": point["cache_key"] or self._cache_key(
                     job_id, spec, point["settings"]),
                 "fence": point["lease"]["fence"],
                 "attempt": len(point["attempts"]) + 1, "settled": False}
        self.monitor.count("claims")
        key = lease["cache_key"]
        cached = self.cache.get(key) if key is not None else None
        if cached is not None:
            lease["settled"] = self._finish(lease, cached, cached=True)
        return lease

    def _finish(self, lease: dict, point: SweepPoint, *,
                cached: bool = False) -> bool:
        """A claimed point has its :class:`SweepPoint` (simulated just
        now, or ``cached``): store the results, settle the lease."""
        return self._settle(
            lease, completion_record(self.cache, lease["cache_key"],
                                     point, cached=cached),
            point, cached=cached)

    def _settle(self, lease: dict, record: dict,
                point: SweepPoint | None = None, *,
                cached: bool = False) -> bool:
        """Journal one point's completion under its fence (a waiting
        :meth:`result` holds ``point``); False when the write was stale.

        A stale write means the lease was reaped while the result was
        in flight and the point belongs to someone else now: any cache
        write is harmless (same key, same bytes) but the journal stays
        single-completion.
        """
        if not self._fenced(lease, self.store.complete,
                            cache_key=record.get("cache_key"),
                            verified=record.get("verified"),
                            failure=record.get("failure"), cached=cached):
            return False
        job_id, index = lease["job_id"], lease["index"]
        self.monitor.count("completions")
        self.monitor.count("cache_hits" if cached else "cache_misses")
        self._not_before.pop((job_id, index), None)
        if self._held is not None and self._held[0] == job_id \
                and point is not None \
                and (self.cache is None or record.get("cache_key")):
            self._held[1][index] = point
        if self.on_settle is not None and point is not None:
            self.on_settle(point)
        return True

    def _fenced(self, lease: dict, write: Callable, *args: Any,
                **fields: Any) -> bool:
        """The one way the executor writes to a leased point: ``write``
        under ``lease``'s fence; False (the rejection journaled by the
        store, counted here) when that fence is not current."""
        try:
            write(lease["job_id"], lease["index"], *args,
                  fence=lease["fence"], **fields)
        except StaleWriteError:
            self.monitor.count(
                "stale_writes", f"{lease['job_id']}[{lease['index']}]: "
                                f"stale fenced write rejected")
            return False
        return True

    def _release(self, lease: dict) -> None:
        """Give a claimed point back without charging it an attempt."""
        if self._fenced(lease, self.store.release):
            self.monitor.count("released")

    def _renew(self, lease: dict) -> None:
        """The one renewal rule, for a worker's beat and a node's
        heartbeat alike: renew once a third of the term has passed, read
        off the store record's ``expires`` on the lease clock — one late
        beat never expires a healthy holder, and the journal is not
        flooded.  An infinite term (a sweep, a cluster node) never renews."""
        now, term = self._now(), self.lease_seconds
        if term == float("inf"):
            return
        held = self.store.jobs[lease["job_id"]]["points"][lease["index"]]
        if held["lease"] is not None \
                and held["lease"]["expires"] - now > term * 2 / 3:
            return   # less than a third of the term has passed
        self._fenced(lease, self.store.renew, now, term)

    def _fill_slots(self) -> bool:
        """Claim points into the free local slots: a cache hit settles
        on the spot, a miss gets a pool worker — or, once the ladder
        is at its floor and the pool has drained, runs right here."""
        progressed = False
        while self.slots is not None \
                and len(self.pool) < max(self.slots, 1):
            lease = self._claim_next(self.worker_id)
            if lease is None:
                break
            progressed = True
            if lease["settled"]:
                continue
            if self._recipes[0] != lease["job_id"]:   # one object a job
                self._recipes = (lease["job_id"],
                                 self.recipe_for(lease["spec"]))
            recipe = self._recipes[1]
            if not self.slots:
                self._finish(lease, run_point(lease["settings"], *recipe))
                break   # one point a turn: stop() and deadlines stay live
            try:
                worker = self.pool.spawn(lease["index"], lease["settings"],
                                         *recipe, context=lease)
            except OSError as exc:
                # Fork pressure: give the point back, step the ladder.
                self._release(lease)
                if not self.policy.degrade_after:
                    raise
                self._pool_failure(f"worker spawn failed: {exc}")
                break
            self.monitor.count("attempts")
            self.monitor.count("forks", amount=int(worker.fresh))
            self.monitor.span_open((lease["job_id"], lease["index"],
                                    lease["attempt"]))
        return progressed

    def _cache_key(self, job_id: str, spec: dict,
                   settings: dict) -> str | None:
        """The point's :func:`~repro.service.cache.point_key` (``None``
        without a cache, or when the recipe cannot even be built — the
        worker will record that deterministic failure).  A settings-free
        factory is digested once a job; a named kernel is built once a
        process (:func:`~repro.kernels.workload_factory`), here, before
        the worker that runs it is forked."""
        if self.cache is None:
            return None
        try:
            cores, overrides, make_workload, _verify = self.recipe_for(spec)
            memo = self._kernel_digests
            kernel_hex = memo.get(job_id)
            if kernel_hex is None:
                kernel_hex = kernel_digest(
                    call_workload_factory(make_workload, settings))
                if not factory_takes_settings(make_workload):
                    if len(memo) >= _DIGESTS_MAX:
                        memo.clear()
                    memo[job_id] = kernel_hex
            return point_key(settings, cores, overrides,
                             kernel_hex=kernel_hex)
        except Exception:
            return None

    def _pump(self) -> bool:
        progressed = False
        for kind, worker, *payload in self.pool.poll(_POLL_SECONDS):
            lease = worker.context
            if kind == "beat":
                self._heartbeat(lease, *payload)
                continue
            progressed = True
            if kind == "result":
                if self._reap_overdue(worker):   # a late result is a death
                    continue
                point, = payload
                self._attempt_ended(worker, "failed" if point.failed
                                    else "ok")
                self._finish(lease, point)
            else:
                self._worker_died(worker, "crash", *payload)
        return progressed

    def _heartbeat(self, lease: dict, cycles: int, rss_mb: float) -> None:
        self.monitor.count("heartbeats")
        self.monitor.heartbeat_gauges[lease["job_id"], lease["index"]] = {
            "cycles": cycles, "rss_mb": rss_mb}
        self._renew(lease)

    def _attempt_ended(self, worker, outcome: str) -> None:
        lease, index = worker.context, worker.index
        # The gauge is of a live attempt: a service outlives its points.
        self.monitor.heartbeat_gauges.pop((lease["job_id"], index), None)
        self.monitor.count("blocks_shared", amount=worker.blocks)
        self.monitor.span_close(
            (lease["job_id"], index, lease["attempt"]),
            f"point[{index}] attempt {lease['attempt']}", index,
            outcome=outcome, settings=str(lease["settings"]),
            blocks=worker.blocks, pid=worker.process.pid)

    # -- deaths: deadlines, expiry, the one failure path ---------------------

    def _overdue(self, worker, now: float) -> str | None:
        """The one deadline check every tier's workers are held to: its
        wall-clock budget, its heartbeat silence, its RSS ceiling."""
        policy = self.policy
        if (policy.point_timeout_seconds is not None
                and now - worker.started > policy.point_timeout_seconds):
            return "timeout"
        interval = policy.heartbeat_interval_seconds
        if interval > 0 \
                and now - worker.last_beat > interval * policy.heartbeat_misses:
            return "heartbeat-lost"
        if policy.max_rss_mb is not None and worker.beats \
                and worker.beats[-1][1] > policy.max_rss_mb:
            return "rss-exceeded"
        return None

    def _reap_overdue(self, *workers) -> bool:
        """Reap and charge each worker past a deadline; True if one was."""
        now = time.monotonic()
        overdue = [(worker, verdict) for worker in workers
                   if (verdict := self._overdue(worker, now))]
        for worker, verdict in overdue:
            self.monitor.count(
                "reaped", f"point {worker.settings}: worker reaped "
                          f"({verdict})")
            tail = self.pool.reap(worker)
            self._worker_died(worker, verdict, worker.process.exitcode,
                              tail)
            if verdict == "rss-exceeded":
                self._pool_failure(
                    f"worker RSS {worker.beats[-1][1]:.0f} MB over the "
                    f"{self.policy.max_rss_mb:.0f} MB ceiling", floor=1)
        return bool(overdue)

    def _worker_died(self, worker, outcome: str, exit_code: int | None,
                     tail: str) -> None:
        self._attempt_ended(worker, outcome)
        self._record_failure(worker.context, outcome, exit_code, tail,
                             worker.beats)

    def _reap_expired(self) -> None:
        for job_id, point in self.store.expired_leases(self._now()):
            index = point["index"]
            self.monitor.count(
                "lease_expired", f"{job_id}[{index}]: lease expired; "
                                 f"point reclaimed")
            for worker in self.pool.workers:
                if worker.index == index \
                        and worker.context["job_id"] == job_id:
                    # Our own wedged worker: its heartbeats stopped
                    # long enough for the lease to lapse.  Reap it.
                    tail = self.pool.reap(worker)
                    self._worker_died(worker, "lease-expired",
                                      worker.process.exitcode, tail)
                    break
            else:
                # A dead (or foreign, silent) executor's lease; the
                # store is the authority, so it charges the held fence.
                self._record_failure(held_lease(job_id, point),
                                     "lease-expired", None, "")

    def _record_failure(self, lease: dict, outcome: str,
                        exit_code: int | None, tail: str,
                        beats: list = ()) -> None:
        """Charge one dead attempt: the single place a death is turned
        into a retry, a quarantine or (unsupervised) a crash record."""
        job_id, index = lease["job_id"], lease["index"]
        record = self.store.jobs[job_id]["points"][index]
        settings = record["settings"]
        attempts = len(record["attempts"]) + 1
        if not self.policy.supervised:
            action, payload = "crash", (
                f"sweep worker for point {settings} died without "
                f"reporting a result (exit code {exit_code})")
        else:
            action, payload = self.policy.retry.after_failure(
                attempts, f"sweep point {settings}", outcome, exit_code,
                seed=self.policy.seed, index=index)
        final = action != "retry"
        kind = "WorkerCrash" if action == "crash" else "QuarantinedPoint"
        if not self._fenced(
                lease, self.store.attempt, outcome=outcome,
                exit_code=exit_code, stderr_tail=tail, final=final,
                failure={"kind": kind, "message": payload} if final
                else None, heartbeats=[list(beat) for beat in beats],
                backoff_seconds=0.0 if final else payload):
            return
        label = f"{job_id}[{index}] {settings}"
        if not final:
            self._not_before[job_id, index] = self._now() + payload
            self.monitor.count(
                "retries", f"{label}: attempt {attempts} failed "
                           f"({outcome}), retrying in {payload:.2f}s")
            return
        if action == "quarantine":
            self.monitor.count(
                "quarantined", f"{label}: quarantined after {attempts} "
                               f"attempt(s)")
        point = settled_point(record, None)
        key = lease.get("cache_key")
        if key is not None and self.cache.storable(point):
            self.cache.put(key, point)
        if self.on_settle is not None:
            self.on_settle(point)

    # -- the degradation ladder ----------------------------------------------

    def _pool_failure(self, reason: str, floor: int = 0) -> None:
        """Register a pool-level failure; every ``policy.degrade_after``-th
        one steps the local pool ``N → N/2 → …`` down to ``floor``: 1 on
        an RSS trip (in-process reads no ceiling), 0 on a refused spawn."""
        self._pool_failures += 1
        after = self.policy.degrade_after
        if after and (self.slots or 0) > floor \
                and not self._pool_failures % after:
            self._degrade(reason, max(self.slots // 2, floor))

    def _degrade(self, reason: str, to_workers: int,
                 from_workers: int | None = None) -> None:
        """One step down the ladder
        ``cluster → N → N/2 → … → 1 → in-process``."""
        event = DegradationEvent(
            reason=reason, to_workers=to_workers,
            from_workers=(self.slots if from_workers is None
                          else from_workers),
            pool_failures=self._pool_failures)
        self.degradations.append(event)
        self.monitor.count(
            "degradations",
            f"degraded: {reason} ({event.from_workers} -> "
            f"{to_workers or 'in-process'} workers)")
        self.slots = to_workers
        self.pool.retire()

    def _drain(self) -> None:
        """Stop in-flight work gracefully: terminate workers, release
        their leases (no attempt charged), retire the idle ones."""
        for worker in self.pool.workers:
            self.pool.reap(worker)
            self._release(worker.context)
        self.pool.retire()

    # -- results -------------------------------------------------------------

    def result(self, job_id: str, *, wait: bool = False) -> SweepTable:
        """The job's :class:`SweepTable`, assembled from the settled
        store (and the cache behind it).

        A corrupt cache entry discovered here is quarantined aside and
        its point re-queued; with ``wait=True`` the executor then runs
        the missing points itself, otherwise a :class:`ServiceError`
        reports what was re-queued.  Tables are bit-identical across
        tiers: ``repro.api.sweep()`` and the service run this very
        method.

        ``wait=True`` holds the job's points this call settles until it
        returns: a cache hit is read once, earlier ones at assembly.
        """
        settled: dict[int, SweepPoint] = {}
        self._held = (job_id, settled) if wait else None
        try:
            for _attempt in range(4):
                if wait:
                    self.run()
                status = self.store.status(job_id)
                if not status.complete:
                    if wait:
                        continue
                    raise ServiceError(
                        f"{job_id} is not complete ({status.pending} "
                        f"pending, {status.leased} leased of "
                        f"{status.total}); run `coyote-sim serve`")
                table, corrupt = assemble_result(self.store, self.cache,
                                                 job_id, settled)
                if table is not None:
                    table.degradations = list(self.degradations)
                    return table
                for index, key in corrupt:
                    # Corrupt or missing entry: never served, never
                    # fatal — the cache set it aside; re-queue the point.
                    self.monitor.count(
                        "cache_corrupt", f"corrupt cache entry {key[:12]} "
                        f"set aside; point will be recomputed")
                    self.store.invalidate(job_id, index)
                if not wait:
                    raise ServiceError(
                        f"{len(corrupt)} cached result(s) for {job_id} were "
                        f"corrupt; the points were quarantined aside and "
                        f"re-queued — run `coyote-sim serve` to recompute")
            raise ServiceError(
                f"results for {job_id} remained incomplete after repeated "
                f"recovery attempts")
        finally:
            self._held = None


class CampaignService(CampaignExecutor):
    """The campaign executor plus a root directory: a lock, an inbox,
    a durable journal and a disk cache.

    Use as a context manager (or call :meth:`open`/:meth:`close`):
    opening acquires the journal lock, replays the journal, recovers
    provably-dead leases, and ingests any spooled submissions.
    ``policy`` (default :data:`SERVICE_POLICY`) charges every death and
    holds the workers — a dispatcher's nodes' too.
    """

    def __init__(self, root: str | Path, *, workers: int = 1,
                 max_queue: int = 4096, lease_seconds: float = 30.0,
                 policy: SupervisorPolicy = SERVICE_POLICY,
                 compact_every: int = 512, fsync: bool = False,
                 monitor: CampaignMetrics | None = None,
                 mp_context: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.root = Path(root)
        self.workers = workers
        super().__init__(
            JobStore(Journal(self.root / "journal.jsonl", fsync=fsync),
                     max_queue=max_queue, compact_every=compact_every),
            ResultCache(self.root / "cache"), slots=workers, policy=policy,
            lease_seconds=lease_seconds, monitor=monitor,
            mp_context=mp_context)
        self._lock = PathLock(self.root / "journal.jsonl")
        self._opened = False

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "CampaignService":
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "inbox").mkdir(exist_ok=True)
        self._lock.acquire()
        if self._lock.fd is not None:
            # Forked workers must not keep the journal lock open.
            self.pool.close_fds = (self._lock.fd,)
        try:
            self.store.open()
            self._opened = True
            self._recover_dead_leases()
            self.ingest_inbox()
        except BaseException:
            self._opened = False
            self._lock.release()
            raise
        return self

    def close(self) -> None:
        if not self._opened:
            return
        try:
            self._drain()
            self.store.compact_if_outgrown()
        finally:
            self.store.close()
            self._lock.release()
            self._opened = False

    def __enter__(self) -> "CampaignService":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if not self._opened:
            raise ServiceError("service is not open (use it as a "
                               "context manager or call open())")

    def _recover_dead_leases(self) -> None:
        """Release leases whose owner is provably dead (same host,
        PID gone) without charging the point an attempt — a killed
        service is not the point's fault.  Only a previous holder of
        this root's lock can have left one, so opening is the one time
        to look."""
        hostname = socket.gethostname()
        for job_id, point in self.store.leases():
            owner = str(point["lease"].get("worker", ""))
            parts = owner.split(":")
            if len(parts) != 3 or parts[0] != hostname \
                    or owner == self.worker_id or not parts[1].isdigit():
                continue
            if not _pid_alive(int(parts[1])):
                self._release(held_lease(job_id, point))

    # -- submission --------------------------------------------------------

    def submit(self, kernel: str, axes: dict[str, list], *,
               cores: int = 8, size: int | None = None,
               require_verified: bool = True,
               job_id: str | None = None, **overrides: Any) -> str:
        """Enqueue one sweep campaign; returns its job id.

        Raises :class:`QueueFullError` (backpressure by rejection)
        when the bounded queue cannot take the new points.
        """
        self._require_open()
        spec = build_spec(kernel, axes, cores=cores, size=size,
                          require_verified=require_verified, **overrides)
        job_id = job_id or new_job_id()
        self._submit(job_id, spec, spec_points(spec))
        return job_id

    def _submit(self, job_id: str, spec: dict, points: list) -> None:
        try:
            self.store.submit(job_id, spec, points)
        except QueueFullError as exc:
            self.monitor.count("rejected",
                               f"submission rejected ({exc})")
            raise
        self.monitor.count("points_submitted", amount=len(points))
        self.monitor.count(
            "submits", f"job {job_id} submitted ({len(points)} points)")

    def ingest_inbox(self) -> int:
        """Fold spooled submissions into the journal; returns count.

        Crash-safe: ingestion journals the submit *then* unlinks the
        spool file, and re-ingesting a known job id is a no-op.  A
        submission the bounded queue cannot take is renamed to
        ``<job>.rejected`` (visible to the submitter) instead of
        wedging the inbox.
        """
        self._require_open()
        ingested = 0
        inbox = self.root / "inbox"
        for path in sorted(inbox.glob("*.json")):
            job_id = path.stem
            try:
                spec, points = read_spooled(self.root, job_id)
            except (OSError, ServiceError):
                path.rename(path.with_suffix(".corrupt"))
                self.monitor.count(
                    "rejected", f"submission rejected (unreadable "
                                f"submission {path.name})")
                continue
            if job_id not in self.store.jobs:
                try:
                    self._submit(job_id, spec, points)
                except QueueFullError:
                    path.rename(path.with_suffix(".rejected"))
                    continue
                ingested += 1
            path.unlink(missing_ok=True)
        # Cancel markers apply after submissions, so cancelling a job
        # whose spool file was ingested in the same pass works.
        for path in sorted(inbox.glob("*.cancel")):
            job_id = path.name[:-len(".cancel")]
            if job_id in self.store.jobs:
                if self.store.jobs[job_id]["state"] == "active":
                    self.store.cancel(job_id)
                path.unlink(missing_ok=True)
        return ingested

    # -- queries -----------------------------------------------------------

    def status(self, job_id: str) -> JobStatus:
        self.ingest_inbox()
        return self.store.status(job_id)

    def cancel(self, job_id: str) -> JobStatus:
        """Stop executing a job's remaining points (in-flight leases
        settle on their own); returns the resulting status."""
        self.ingest_inbox()
        self.store.cancel(job_id)
        return self.store.status(job_id)

    def result(self, job_id: str, *, wait: bool = False) -> SweepTable:
        self._require_open()
        return super().result(job_id, wait=wait)

    def step(self) -> bool:
        """The executor's turn, fed from the inbox first."""
        self.ingest_inbox()
        return super().step()

    # -- the long-running server loop --------------------------------------

    def serve(self, *, poll_seconds: float = 0.2, drain: bool = False,
              max_seconds: float | None = None) -> int:
        """Serve until signalled (or, with ``drain=True``, until the
        queue empties); returns an exit-taxonomy code.

        SIGTERM and SIGINT both drain gracefully — in-flight workers
        are stopped, their leases released, state compacted if the
        journal has outgrown its snapshot — then exit 0 (SIGTERM: clean
        shutdown) or 130 (SIGINT, the shell convention the CLI taxonomy
        already documents).
        """
        self._require_open()
        received: dict[str, int] = {}

        def handler(signum, _frame):
            received["signal"] = signum

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, handler)
        deadline = (time.monotonic() + max_seconds
                    if max_seconds is not None else None)
        try:
            while "signal" not in received:
                self.run(stop=lambda: "signal" in received)
                if "signal" in received:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    break
                if drain and not self.store.has_work() \
                        and not list((self.root / "inbox").glob("*.json")):
                    break
                time.sleep(poll_seconds)
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)
        self._drain()
        self.store.compact_if_outgrown()
        if received.get("signal") == signal.SIGINT:
            return 130
        return 0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
