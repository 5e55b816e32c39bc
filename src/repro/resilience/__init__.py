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

The canonical import surface is :mod:`repro.api`; the blessed names
below are re-exported from there (lazily, to stay cycle-free).
"""

from repro.utils.reexport import lazy_exports

# Names served from the repro.api facade (the canonical path).
_API_NAMES = frozenset({
    "AttemptRecord",
    "CheckpointError",
    "DeadlockError",
    "DegradationEvent",
    "FaultPlan",
    "FaultSpec",
    "QuarantinedPoint",
    "ResilienceConfig",
    "RetryPolicy",
    "SupervisorPolicy",
    "load_checkpoint",
    "restore_simulation",
    "save_checkpoint",
})

# Internal-but-stable names that stay below the facade.
_LOCAL_NAMES = {
    "FaultInjector": "repro.resilience.faults",
    "InvariantChecker": "repro.resilience.invariants",
    "InvariantViolation": "repro.resilience.invariants",
    "Watchdog": "repro.resilience.watchdog",
    "build_snapshot": "repro.resilience.watchdog",
}

__all__ = sorted(_API_NAMES | set(_LOCAL_NAMES))
__getattr__, __dir__ = lazy_exports(globals(), _API_NAMES, _LOCAL_NAMES)
