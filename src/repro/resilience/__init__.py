"""Resilience subsystem: fault injection, forward-progress watchdog,
checkpoint/restore, and invariant checking.

Long design-space sweeps only pay off when they finish — and when a
wrong model fails *loudly and diagnosably* instead of spinning until a
bare cycle-budget error.  This package provides four cooperating,
deterministic tools (docs/RESILIENCE.md):

* :mod:`repro.resilience.faults` — a seeded, replayable fault-injection
  layer that delays, duplicates, blacks out, or (for watchdog stress
  tests) drops messages inside the modelled hierarchy.  Timing faults
  must never change functional results; any run that fails workload
  verification under timing faults has found a real model bug.
* :mod:`repro.resilience.watchdog` — forward-progress detection that
  converts a wedged simulation into a structured
  :class:`~repro.resilience.watchdog.DeadlockError` carrying a full
  diagnostic snapshot.
* :mod:`repro.resilience.checkpoint` — serialize complete simulation
  state to disk and resume bit-identically.
* :mod:`repro.resilience.invariants` — periodic conservation and
  consistency checks over the live simulation state.
* :mod:`repro.resilience.supervisor` — the policies of the supervised
  campaign runtime (per-point timeouts, heartbeat deadlines, bounded
  retries with seeded backoff, the degradation threshold) and the
  quarantine record; the campaign executor applies them.

The public names (``FaultPlan``, ``save_checkpoint``, ...) are imported
from :mod:`repro.api`; the rest (``Watchdog``, ``FaultInjector``,
``InvariantChecker``, ...) from the module that defines them.
"""
