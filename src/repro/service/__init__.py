"""Durable campaign service: crash-consistent job store, lease-based
recovery, and an integrity-checked result cache.

Long campaigns outlive processes.  This package turns sweep execution
into a service rooted in one directory that survives being killed at
any instant (docs/RESILIENCE.md, "Campaign service"):

* :mod:`repro.service.journal` — the append-only JSONL event journal
  with checksummed snapshot compaction; queue state is a pure fold over
  events, so recovery is replay and a torn final line is simply an
  event that never committed.
* :mod:`repro.service.store` — the job store folding that journal into
  queue state: submitted jobs, point lifecycles, wall-clock leases,
  fencing tokens, each point's attempt book.
* :mod:`repro.service.cache` — the content-addressed result cache
  keyed by (config digest, kernel digest, seed); checksummed entries,
  corrupt ones quarantined aside and recomputed, overlapping sweeps
  served from disk.
* :mod:`repro.service.service` — ``CampaignExecutor``, the one
  campaign loop under every tier (leases, heartbeat renewal, the
  deadline check, seeded retries, poison-point quarantine, the
  degradation ladder), and :class:`CampaignService`: that loop plus a
  root directory — the bounded submission queue, the spool inbox, and
  the SIGTERM/SIGINT drain behind ``coyote-sim serve``.
* :mod:`repro.service.transport` — pluggable cluster messaging
  (in-process deques, atomic filesystem spools) plus the seeded
  :class:`ServiceFaultPlan` layer that injects drop/delay/duplicate/
  partition faults deterministically.
* :mod:`repro.service.cluster` — the multi-node tier behind
  ``coyote-sim cluster``: :class:`ClusterDispatcher` (fenced lease
  grants, node health registry, rebalancing, graceful cluster→local
  degradation) coordinating :class:`ClusterNode` executors.

The canonical import surface is :mod:`repro.api`
(``submit/status/result/cancel``); the blessed names below are
re-exported from there (lazily, to stay cycle-free).
"""

from repro.utils.reexport import lazy_exports

# Names served from the repro.api facade (the canonical path).
_API_NAMES = frozenset({
    "CampaignService",
    "ClusterDispatcher",
    "ClusterNode",
    "JobNotFoundError",
    "JobStatus",
    "QueueFullError",
    "ServiceError",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "StaleWriteError",
})

# Internal-but-stable names that stay below the facade.
_LOCAL_NAMES = {
    "FaultyTransport": "repro.service.transport",
    "FilesystemTransport": "repro.service.transport",
    "InProcessTransport": "repro.service.transport",
    "Journal": "repro.service.journal",
    "JobStore": "repro.service.store",
    "NodeRegistry": "repro.service.cluster",
    "ResultCache": "repro.service.cache",
    "Transport": "repro.service.transport",
    "config_digest": "repro.service.cache",
    "kernel_digest": "repro.service.cache",
    "new_job_id": "repro.service.service",
    "point_key": "repro.service.cache",
    "result_key": "repro.service.cache",
    "spool_submission": "repro.service.service",
}

__all__ = sorted(_API_NAMES | set(_LOCAL_NAMES))
__getattr__, __dir__ = lazy_exports(globals(), _API_NAMES, _LOCAL_NAMES)
