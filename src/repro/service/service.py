"""The durable campaign service: submit sweeps, survive anything.

:class:`CampaignService` turns ``repro.api.sweep()`` from a library
call into a crash-consistent job system rooted in one directory::

    root/
      journal.jsonl        the event journal (single writer, locked)
      journal.jsonl.snap   checksummed snapshot (compaction)
      inbox/               spooled submissions from other processes
      cache/               content-addressed, checksummed results

Execution model — at-least-once, made safe by idempotence:

* **Claims are leases.**  The executor claims a pending point under a
  wall-clock lease and renews it from the worker's heartbeats.  A
  service or executor that dies simply stops renewing; whoever opens
  the store next observes the expiry and reclaims the point.  A lease
  whose owner is *provably* dead (same host, PID gone) is released
  immediately without spending an attempt — a crashed service must
  not eat a point's retry budget; only a silent/wedged owner does.
* **Workers never touch the journal or the cache.**  A point runs in a
  :class:`~repro.coyote.parallel.PointPool` worker (heartbeats
  included); only the parent journals transitions and writes cache
  entries, so an orphaned worker left behind by a SIGKILLed service
  can corrupt nothing — it dies on its next pipe write, and at worst
  its work is recomputed.
* **One claim → settle path.**  Every way a point gets executed here —
  a local worker, a cluster node's grant, the dispatcher's in-process
  floor — goes through :meth:`CampaignService._claim_next` (lease,
  cache lookup, cache hits settled on the spot) and
  :meth:`CampaignService._settle` (the fenced ``complete``).
* **Completions are idempotent.**  Results live in the
  content-addressed cache keyed by (config digest, kernel digest,
  seed); a point executed twice writes the same bytes under the same
  key, and the job store ignores duplicate ``complete`` events.
* **Failures flow into the existing machinery.**  Crashed or expired
  attempts are charged under the same seeded
  :meth:`RetryPolicy.after_failure
  <repro.resilience.supervisor.RetryPolicy.after_failure>` rule as a
  supervised in-process sweep: retried with backoff, then quarantined
  as a :class:`~repro.resilience.supervisor.QuarantinedPoint`.

Cross-process shape: the serving process holds the journal lock; other
processes submit by spooling JSON files into ``inbox/`` (atomic,
unique names, no lock needed) and read status lock-free from the
snapshot + journal.  ``repro.api.submit/status/result/cancel`` and the
``coyote-sim serve`` / ``coyote-sim jobs`` CLI wrap exactly this.
"""

from __future__ import annotations

import json
import os
import secrets
import signal
import socket
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.coyote.config import SimulationConfig
from repro.coyote.parallel import PointPool, PointWorker, RemoteError
from repro.coyote.sweep import Sweep, SweepPoint, SweepTable
from repro.kernels import KERNELS, instantiate, workload_factory
from repro.resilience.locking import PathLock
from repro.resilience.supervisor import (
    AttemptRecord,
    QuarantinedPoint,
    RetryPolicy,
)
from repro.service.cache import (
    ResultCache,
    config_digest,
    kernel_digest,
    result_key,
)
from repro.service.journal import Journal
from repro.service.store import (
    JobNotFoundError,
    JobStatus,
    JobStore,
    QueueFullError,
    ServiceError,
    StaleWriteError,
)
from repro.telemetry.campaign import ServiceMonitor

__all__ = [
    "CampaignService",
    "JobNotFoundError",
    "JobStatus",
    "QueueFullError",
    "ServiceError",
    "StaleWriteError",
    "assemble_result",
    "build_spec",
    "new_job_id",
    "readonly_store",
    "spec_points",
    "spool_cancel",
    "spool_submission",
]

# Parent-side wait granularity for worker pipes.
_POLL_SECONDS = 0.05


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
    return spec


def spec_points(spec: dict) -> list[dict]:
    """The cartesian settings dicts of one spec, in sweep order."""
    return Sweep(base_cores=spec["cores"], axes=spec["axes"],
                 **spec["overrides"]).points()


def spec_recipe(spec: dict) -> tuple:
    """The ``run_point`` / ``PointPool.spawn`` arguments after
    ``settings`` that execute one point of ``spec``."""
    return (spec["cores"], spec["overrides"],
            workload_factory(spec["kernel"], spec["cores"], spec["size"]),
            spec["require_verified"])


def completion_record(cache: ResultCache, key: str | None,
                      point: SweepPoint, *, cached: bool = False) -> dict:
    """What a finished point journals; stores its results on the way.

    A deterministic outcome (including a verification failure that
    kept its results) is cacheable and shareable: it is written under
    ``key`` unless it was just ``cached`` — read from there.
    ``cache_key`` stays ``None`` for a point with no results, no key,
    or a cache write that failed.
    """
    stored = (key is not None and point.results is not None
              and (cached or cache.put(key, point)))
    return {"cache_key": key if stored else None,
            "verified": point.verified,
            "failure": point.failure_record()}


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
                      sort_keys=True, indent=1)
    fd, scratch = tempfile.mkstemp(dir=inbox, prefix=".spool-",
                                   suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        handle.write(body)
    os.replace(scratch, inbox / f"{job_id}.json")
    return job_id


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


def assemble_result(store: JobStore, cache: ResultCache,
                    job_id: str) -> tuple[SweepTable | None,
                                          list[tuple[int, str]]]:
    """Build a job's :class:`SweepTable` from the store + cache.

    Returns ``(table, corrupt)`` where ``corrupt`` lists the
    ``(index, cache_key)`` of completed points whose cache entry could
    not be served (the cache has already quarantined them aside); when
    any exist the table is ``None`` and those points need recomputing.
    Journal-write-free, so the read-only API path shares it.
    """
    job = store._job(job_id)
    points: list[SweepPoint] = []
    corrupt: list[tuple[int, str]] = []
    for record in job["points"]:
        settings = record["settings"]
        state = record["state"]
        if state == "done" and record["cache_key"] is not None:
            cached = cache.get(record["cache_key"])
            if cached is None:
                corrupt.append((record["index"], record["cache_key"]))
                continue
            points.append(cached)
        elif state == "done":
            points.append(_failure_point(settings, record))
        elif state == "quarantined":
            points.append(SweepPoint(
                settings, None, False,
                _quarantine_error(settings, record)))
        elif state == "cancelled":
            points.append(SweepPoint(
                settings, None, False,
                ServiceError(f"point {settings} was cancelled")))
        else:
            raise ServiceError(
                f"{job_id}[{record['index']}] is still {state}; "
                f"wait for the job to complete")
    if corrupt:
        return None, corrupt
    return SweepTable(axes=dict(job["spec"]["axes"]),
                      points=points), []


def _failure_point(settings: dict, record: dict) -> SweepPoint:
    failure = record["failure"] or {
        "kind": "ServiceError", "message": "point failed"}
    return SweepPoint(
        settings, None, bool(record["verified"]),
        RemoteError(failure["kind"], failure["message"]))


def _quarantine_error(settings: dict, record: dict) -> QuarantinedPoint:
    attempts = [
        AttemptRecord(attempt=number, outcome=entry["outcome"],
                      exit_code=entry.get("exit_code"),
                      signal=(-entry["exit_code"]
                              if entry.get("exit_code") is not None
                              and entry["exit_code"] < 0 else None),
                      stderr_tail=entry.get("stderr_tail", ""))
        for number, entry in enumerate(record["attempts"], start=1)]
    failure = record.get("failure") or {}
    return QuarantinedPoint(
        failure.get("message") or f"service point {settings} quarantined",
        attempts=attempts)


class CampaignService:
    """One durable campaign service rooted in a directory.

    Use as a context manager (or call :meth:`open`/:meth:`close`):
    opening acquires the journal lock, replays the journal, recovers
    provably-dead leases, and ingests any spooled submissions.
    """

    def __init__(self, root: str | Path, *, workers: int = 1,
                 max_queue: int = 4096, lease_seconds: float = 30.0,
                 retry: RetryPolicy | None = None, seed: int = 0,
                 heartbeat_seconds: float = 0.2,
                 term_grace_seconds: float = 2.0,
                 compact_every: int = 512, fsync: bool = False,
                 monitor: ServiceMonitor | None = None,
                 mp_context: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be > 0, got {lease_seconds}")
        self.root = Path(root)
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=3, base_delay=0.1, max_delay=5.0)
        self.retry.validate()
        self.seed = seed
        self.monitor = monitor if monitor is not None else ServiceMonitor()
        journal = Journal(self.root / "journal.jsonl", fsync=fsync)
        self.store = JobStore(journal, max_queue=max_queue,
                              compact_every=compact_every)
        self.cache = ResultCache(self.root / "cache")
        self.worker_id = (f"{socket.gethostname()}:{os.getpid()}:"
                          f"{secrets.token_hex(4)}")
        self._lock = PathLock(self.root / "journal.jsonl")
        # In-flight workers; each worker's ``context`` is its lease (the
        # dict _claim_next returned).
        self.pool = PointPool(mp_context,
                              heartbeat_seconds=heartbeat_seconds,
                              term_grace_seconds=term_grace_seconds)
        self._not_before: dict[tuple[str, int], float] = {}
        self._kernel_digests: dict[str, str | None] = {}
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
        self._drain()
        self.store.compact()
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

    def _now(self) -> float:
        """Lease-clock wall time; subclasses may inject a test clock."""
        return time.time()

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
        points = spec_points(spec)
        job_id = job_id or new_job_id()
        try:
            self.store.submit(job_id, spec, points)
        except QueueFullError as exc:
            self.monitor.rejected(str(exc))
            raise
        self.monitor.submitted(job_id, len(points))
        return job_id

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
            try:
                payload = json.loads(path.read_text())
                job_id = payload["job_id"]
                spec = payload["spec"]
                points = spec_points(spec)
            except Exception:
                path.rename(path.with_suffix(".corrupt"))
                self.monitor.rejected(f"unreadable submission {path.name}")
                continue
            if job_id not in self.store.jobs:
                try:
                    self.store.submit(job_id, spec, points)
                except QueueFullError as exc:
                    path.rename(path.with_suffix(".rejected"))
                    self.monitor.rejected(str(exc))
                    continue
                self.monitor.submitted(job_id, len(points))
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
        self._require_open()
        self.ingest_inbox()
        return self.store.status(job_id)

    def cancel(self, job_id: str) -> JobStatus:
        """Stop executing a job's remaining points (in-flight leases
        settle on their own); returns the resulting status."""
        self._require_open()
        self.ingest_inbox()
        self.store.cancel(job_id)
        return self.store.status(job_id)

    # -- results -----------------------------------------------------------

    def result(self, job_id: str, *, wait: bool = False) -> SweepTable:
        """The job's :class:`SweepTable`, assembled from the cache.

        A corrupt cache entry discovered here is quarantined aside and
        its point re-queued; with ``wait=True`` the service then runs
        the missing points itself, otherwise a :class:`ServiceError`
        reports what was re-queued.  Tables are bit-identical to an
        in-process ``repro.api.sweep()`` of the same campaign.
        """
        self._require_open()
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
            table, requeued = self._assemble(job_id)
            if not requeued:
                return table
            if not wait:
                raise ServiceError(
                    f"{requeued} cached result(s) for {job_id} were "
                    f"corrupt; the points were quarantined aside and "
                    f"re-queued — run `coyote-sim serve` to recompute")
        raise ServiceError(
            f"results for {job_id} remained incomplete after repeated "
            f"recovery attempts")

    def _assemble(self, job_id: str) -> tuple[SweepTable | None, int]:
        table, corrupt = assemble_result(self.store, self.cache, job_id)
        for index, key in corrupt:
            # Corrupt or missing entry: never served, never fatal —
            # the cache set it aside; re-queue the point to recompute.
            self.monitor.cache_corrupt(key)
            self.store.invalidate(job_id, index)
        return table, len(corrupt)

    # -- the executor ------------------------------------------------------

    def run(self, *, max_seconds: float | None = None,
            stop: Callable[[], bool] | None = None) -> int:
        """Execute queued points until none remain (or ``stop`` says
        so); returns the number of points completed this call.

        The node-local executor tier: claims points under leases,
        serves cache hits without simulating, runs misses in worker
        processes with heartbeat-renewed leases, retries or
        quarantines failures, and reclaims expired leases — including
        those left behind by a previous, killed service process.
        """
        self._require_open()
        before = self.monitor.counters["completions"]
        deadline = (time.monotonic() + max_seconds
                    if max_seconds is not None else None)
        while True:
            if stop is not None and stop():
                break
            if deadline is not None and time.monotonic() > deadline:
                break
            progressed = self.step()
            if not self.pool and not self.store.has_work():
                break
            if not progressed and not self.pool:
                # Only backoff windows or foreign leases remain.
                time.sleep(_POLL_SECONDS)
        return self.monitor.counters["completions"] - before

    def step(self) -> bool:
        """One executor turn; returns True when anything progressed."""
        self.ingest_inbox()
        self._recover_dead_leases()
        self._reap_expired()
        progressed = self._fill_slots()
        progressed |= self._pump()
        self.monitor.observe_queue(self.store.outstanding_points(),
                                   self.store.active_leases())
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
        / ``fence``, with ``settled`` true when a cache hit already
        completed the point (no simulation, lease settled now).
        """
        claimed = self.store.claim(owner, self._now(), self.lease_seconds,
                                   eligible=self._eligible)
        if claimed is None:
            return None
        job_id, point = claimed
        lease = {"job_id": job_id, "index": point["index"],
                 "settings": point["settings"],
                 "spec": self.store.jobs[job_id]["spec"],
                 "cache_key": self._cache_key(job_id, point["settings"]),
                 "fence": (point["lease"] or {}).get("fence"),
                 "last_renew": time.monotonic(), "settled": False}
        self.monitor.claimed(job_id, lease["index"])
        key = lease["cache_key"]
        cached = self.cache.get(key) if key is not None else None
        if cached is not None:
            lease["settled"] = self._settle(
                lease, completion_record(self.cache, key, cached,
                                         cached=True), cached=True)
        return lease

    def _settle(self, lease: dict, record: dict, *,
                cached: bool = False) -> bool:
        """Journal one point's completion under its fence; False when
        the write was stale.

        A stale write means the lease was reaped while the result was
        in flight and the point belongs to someone else now: any cache
        write is harmless (same key, same bytes) but the journal stays
        single-completion.
        """
        job_id, index = lease["job_id"], lease["index"]
        try:
            self.store.complete(job_id, index,
                                cache_key=record.get("cache_key"),
                                verified=record.get("verified"),
                                failure=record.get("failure"),
                                cached=cached, fence=lease["fence"])
        except StaleWriteError:
            self.monitor.stale_write(job_id, index)
            return False
        self.monitor.completed(job_id, index, cached=cached)
        self._not_before.pop((job_id, index), None)
        return True

    def _release(self, lease: dict) -> None:
        """Give a claimed point back without charging it an attempt."""
        try:
            self.store.release(lease["job_id"], lease["index"],
                               fence=lease["fence"])
        except StaleWriteError:
            self.monitor.stale_write(lease["job_id"], lease["index"])
            return
        self.monitor.released(lease["job_id"], lease["index"])

    def _fill_slots(self) -> bool:
        progressed = False
        while len(self.pool) < self.workers:
            lease = self._claim_next(self.worker_id)
            if lease is None:
                break
            progressed = True
            if lease["settled"]:
                continue
            try:
                self._spawn(lease)
            except OSError:
                # Fork pressure: give the point back and breathe.
                self._release(lease)
                time.sleep(_POLL_SECONDS)
                break
        return progressed

    def _spawn(self, lease: dict) -> PointWorker:
        return self.pool.spawn(lease["index"], lease["settings"],
                               *spec_recipe(lease["spec"]), context=lease)

    def _cache_key(self, job_id: str, settings: dict) -> str | None:
        spec = self.store.jobs[job_id]["spec"]
        if job_id not in self._kernel_digests:
            try:
                workload = instantiate(spec["kernel"], spec["cores"],
                                       spec["size"])
                self._kernel_digests[job_id] = kernel_digest(workload)
            except Exception:
                # The worker will record the deterministic failure.
                self._kernel_digests[job_id] = None
        kernel_hex = self._kernel_digests[job_id]
        if kernel_hex is None:
            return None
        try:
            config = SimulationConfig.for_cores(
                spec["cores"], **{**spec["overrides"], **settings})
        except Exception:
            return None
        return result_key(config_digest(config), kernel_hex,
                          config.resilience.fault_seed)

    def _pump(self) -> bool:
        progressed = False
        for kind, worker, *payload in self.pool.poll(_POLL_SECONDS):
            lease = worker.context
            if kind == "beat":
                self._heartbeat(lease)
                continue
            if kind == "result":
                self._settle(lease, completion_record(
                    self.cache, lease["cache_key"], payload[0]))
            else:
                exit_code, tail = payload
                self._record_failure(lease["job_id"], lease["index"],
                                     lease["settings"], "crash",
                                     exit_code, tail, fence=lease["fence"])
            progressed = True
        return progressed

    def _heartbeat(self, lease: dict) -> None:
        # Renew the lease at roughly a third of its term: enough slack
        # that one late heartbeat never expires a healthy worker, and
        # the journal is not flooded with renewals.
        now = time.monotonic()
        if now - lease["last_renew"] >= self.lease_seconds / 3:
            lease["last_renew"] = now
            try:
                self.store.renew(lease["job_id"], lease["index"],
                                 self._now(), self.lease_seconds,
                                 fence=lease["fence"])
            except StaleWriteError:
                # The lease lapsed and was reaped out from under this
                # worker; the expiry sweep will retire it.
                self.monitor.stale_write(lease["job_id"], lease["index"])

    def _record_failure(self, job_id: str, index: int, settings: dict,
                        outcome: str, exit_code: int | None,
                        tail: str, fence: int | None = None) -> None:
        """Charge one failed attempt under the seeded retry rule."""
        attempts = len(self.store.jobs[job_id]["points"][index]
                       ["attempts"]) + 1
        action, payload = self.retry.after_failure(
            attempts, f"service point {settings}", outcome, exit_code,
            seed=self.seed, index=index)
        final = action == "quarantine"
        failure = ({"kind": "QuarantinedPoint", "message": payload}
                   if final else None)
        try:
            self.store.attempt(job_id, index, outcome=outcome,
                               exit_code=exit_code, stderr_tail=tail,
                               final=final, failure=failure, fence=fence)
        except StaleWriteError:
            self.monitor.stale_write(job_id, index)
            return
        if final:
            self.monitor.quarantined(job_id, index, attempts)
        else:
            self._not_before[(job_id, index)] = self._now() + payload
            self.monitor.retry(job_id, index, attempts, payload)

    # -- lease recovery ----------------------------------------------------

    def _reap_expired(self) -> None:
        now = self._now()
        for job_id, point in self.store.expired_leases(now):
            index = point["index"]
            self.monitor.lease_expired(job_id, index)
            exit_code, tail = None, ""
            for worker in self.pool.workers:
                if worker.index == index \
                        and worker.context["job_id"] == job_id:
                    # Our own wedged worker: its heartbeats stopped
                    # long enough for the lease to lapse.  Reap it.
                    tail = self.pool.reap(worker)
                    exit_code = worker.process.exitcode
            # Otherwise a dead (or foreign, silent) executor's lease.
            self._record_failure(job_id, index, point["settings"],
                                 "lease-expired", exit_code, tail)

    def _recover_dead_leases(self) -> None:
        """Release leases whose owner is provably dead (same host,
        PID gone) without charging the point an attempt — a killed
        service is not the point's fault."""
        hostname = socket.gethostname()
        for job_id, point in self.store.leases():
            owner = str(point["lease"].get("worker", ""))
            parts = owner.split(":")
            if len(parts) != 3 or parts[0] != hostname \
                    or owner == self.worker_id or not parts[1].isdigit():
                continue
            if not _pid_alive(int(parts[1])):
                self.store.release(job_id, point["index"])
                self.monitor.released(job_id, point["index"])

    def _drain(self) -> None:
        """Stop in-flight work gracefully: terminate workers, release
        their leases (no attempt charged), persist."""
        for worker in self.pool.workers:
            self.pool.reap(worker)
            self._release(worker.context)

    # -- the long-running server loop --------------------------------------

    def serve(self, *, poll_seconds: float = 0.2, drain: bool = False,
              max_seconds: float | None = None) -> int:
        """Serve until signalled (or, with ``drain=True``, until the
        queue empties); returns an exit-taxonomy code.

        SIGTERM and SIGINT both drain gracefully — in-flight workers
        are stopped, their leases released, state compacted — then
        exit 0 (SIGTERM: clean shutdown) or 130 (SIGINT, the shell
        convention the CLI taxonomy already documents).
        """
        self._require_open()
        received: dict[str, int] = {}

        def handler(signum, frame):
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
        self.store.compact()
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
