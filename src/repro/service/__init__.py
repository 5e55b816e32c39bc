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

The public names (``submit/status/result/cancel``,
``CampaignService``, ...) are imported from :mod:`repro.api`; the rest
(``Journal``, ``JobStore``, ``ResultCache``, the transports, ...) from
the module that defines them.
"""
