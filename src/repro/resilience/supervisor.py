"""The campaign supervisor: policies and bookkeeping for supervised sweeps.

A design-space campaign is only as robust as its weakest point: one
wedged worker (infinite loop), one leaking worker (runaway RSS), or one
transient host failure (fork exhaustion) can wedge a multi-hour sweep.
This module holds the *decision* layer of the supervised runtime — the
process mechanics (pipes, signals, ``connection.wait``) live in
:class:`repro.coyote.parallel.PointPool`, and the tiers looping over its
events consult these classes:

* :class:`SupervisorPolicy` — the knobs: per-point wall-clock timeout,
  heartbeat cadence and miss budget, per-worker RSS ceiling, the
  :class:`RetryPolicy`, and the degradation threshold.
* :class:`RetryPolicy` — bounded retries with seeded backoff, and the
  one retry-vs-quarantine rule (:meth:`RetryPolicy.after_failure`)
  that the supervised sweep and the campaign service both apply.
* :class:`Supervisor` — parent-side bookkeeping: per-point attempt
  history, deadline checks, and the pool-degradation ladder
  (``N → N/2 → … → 1 → serial``).
* :class:`QuarantinedPoint` — the structured failure recorded on a
  point that exhausted its retries: full attempt history (outcome,
  exit code / signal, stderr tail, heartbeat trail), picklable so it
  survives the campaign checkpoint and is never re-run on warm restart.
* :class:`DegradationEvent` — one step down the pool ladder, recorded
  on the resulting :class:`~repro.coyote.sweep.SweepTable`.

Determinism: backoff jitter is drawn from a PRNG seeded by
``(policy.seed, point index, attempt)``, never from wall time, so a
supervised campaign's retry schedule replays exactly under a fixed
seed (the property the chaos tests rely on).

Like :mod:`repro.resilience.checkpoint`, this module imports nothing
from ``repro.coyote`` beyond the errors module, keeping it cycle-free.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from repro.coyote.errors import SimulationError

# Outcomes a supervised attempt can end with (besides a clean result).
ATTEMPT_OUTCOMES = ("crash", "timeout", "heartbeat-lost", "rss-exceeded")

# How much of a dead worker's stderr is kept for diagnosis.
STDERR_TAIL_BYTES = 2048

# How many trailing heartbeats are kept per attempt.
HEARTBEAT_TRAIL = 16


class QuarantinedPoint(SimulationError):
    """A sweep point that exhausted its retries and was quarantined.

    Recorded as the point's ``error`` in the :class:`SweepTable` and the
    campaign checkpoint; a warm-restarted campaign loads it and never
    re-runs the point.  ``attempts`` (via the structured ``details``)
    is the full :class:`AttemptRecord` history.
    """


@dataclass
class AttemptRecord:
    """One failed attempt of one supervised sweep point."""

    attempt: int                 # 1-based
    outcome: str                 # one of ATTEMPT_OUTCOMES
    exit_code: int | None = None
    signal: int | None = None    # populated when exit_code is -signal
    stderr_tail: str = ""        # last ~2 KB of the worker's stderr
    heartbeats: list = field(default_factory=list)  # [(cycles, rss_mb)]
    backoff_seconds: float = 0.0  # delay scheduled before the retry


@dataclass
class DegradationEvent:
    """One step down the pool ladder (``to_workers == 0`` = serial)."""

    reason: str
    from_workers: int
    to_workers: int
    pool_failures: int


@dataclass
class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``max_attempts`` counts every execution (1 = no retries).  The
    delay before attempt ``k + 1`` is drawn deterministically in
    ``[span/2, span]`` where ``span = min(max_delay, base_delay *
    2**(k-1))`` — exponential growth, bounded above, never fully
    collapsing to zero jitter.
    """

    max_attempts: int = 1
    base_delay: float = 0.25
    max_delay: float = 30.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})")

    def backoff_seconds(self, attempt: int, *, seed: int = 0,
                        index: int = 0) -> float:
        """The delay before re-dispatching after failed ``attempt``.

        Deterministic: the jitter PRNG is seeded by ``(seed, index,
        attempt)``, so a fixed supervisor seed replays the exact retry
        schedule — wall time never enters the draw.
        """
        if self.base_delay <= 0:
            return 0.0
        span = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        rng = random.Random(1_000_003 * seed + 1_009 * index + attempt)
        return span / 2 + rng.random() * span / 2

    def after_failure(self, attempts: int, what: str, outcome: str,
                      exit_code: int | None, *, seed: int = 0,
                      index: int = 0) -> tuple[str, object]:
        """The one retry-vs-quarantine rule, for every campaign tier.

        ``attempts`` counts the point's failed executions including
        the one just observed.  Returns ``("retry", delay_seconds)``
        while the budget lasts, else ``("quarantine", message)`` with
        the message every tier records (``what`` names the point, e.g.
        ``"sweep point {...}"``).
        """
        if attempts < self.max_attempts:
            return "retry", self.backoff_seconds(attempts, seed=seed,
                                                 index=index)
        suffix = (f" (exit code {exit_code})" if exit_code is not None
                  else "")
        return "quarantine", (f"{what} quarantined after {attempts} "
                              f"attempt(s); last outcome: "
                              f"{outcome}{suffix}")


@dataclass
class SupervisorPolicy:
    """Every knob of the supervised campaign runtime.

    The default policy is *unsupervised*: no timeout, no heartbeats, no
    RSS ceiling, one attempt — exactly the pre-supervisor pool
    behaviour (a dead worker records a
    :class:`~repro.coyote.parallel.WorkerCrash`).  Setting any
    supervision knob flips :attr:`supervised` and the pool runs every
    point under the full lifecycle (a crash-class failure then records
    a :class:`QuarantinedPoint` once retries are exhausted).
    """

    point_timeout_seconds: float | None = None
    heartbeat_interval_seconds: float = 0.0   # 0 = heartbeats off
    heartbeat_misses: int = 5   # missed intervals before declaring loss
    max_rss_mb: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0               # backoff-jitter PRNG seed
    term_grace_seconds: float = 2.0   # SIGTERM -> SIGKILL escalation
    degrade_after: int = 3      # pool failures per ladder step (0 = never)

    @property
    def supervised(self) -> bool:
        """Whether any supervision feature is active."""
        return bool(self.point_timeout_seconds is not None
                    or self.heartbeat_interval_seconds > 0
                    or self.max_rss_mb is not None
                    or self.retry.max_attempts > 1)

    def validate(self) -> None:
        if (self.point_timeout_seconds is not None
                and self.point_timeout_seconds <= 0):
            raise ValueError(f"point_timeout_seconds must be > 0, "
                             f"got {self.point_timeout_seconds}")
        if self.heartbeat_interval_seconds < 0:
            raise ValueError(f"heartbeat_interval_seconds must be >= 0, "
                             f"got {self.heartbeat_interval_seconds}")
        if self.heartbeat_misses < 1:
            raise ValueError(f"heartbeat_misses must be >= 1, "
                             f"got {self.heartbeat_misses}")
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be > 0, "
                             f"got {self.max_rss_mb}")
        if self.term_grace_seconds < 0:
            raise ValueError(f"term_grace_seconds must be >= 0, "
                             f"got {self.term_grace_seconds}")
        if self.degrade_after < 0:
            raise ValueError(f"degrade_after must be >= 0, "
                             f"got {self.degrade_after}")
        self.retry.validate()


class Supervisor:
    """Parent-side bookkeeping of one supervised campaign.

    The pool loop in :mod:`repro.coyote.parallel` owns the processes;
    this class owns the decisions: is an attempt overdue, does a dead
    worker get a retry or a quarantine record, and when do repeated
    pool-level failures step the worker count down.
    """

    def __init__(self, policy: SupervisorPolicy, monitor=None):
        policy.validate()
        self.policy = policy
        self.monitor = monitor
        self.attempts: dict[int, list[AttemptRecord]] = {}
        self.degradations: list[DegradationEvent] = []
        self.pool_failures = 0

    def attempt_number(self, index: int) -> int:
        """The 1-based number of the point's *next* attempt."""
        return len(self.attempts.get(index, ())) + 1

    def overdue(self, started: float, last_beat: float,
                now: float) -> str | None:
        """Deadline check for one running attempt.

        Returns ``"timeout"`` (wall clock), ``"heartbeat-lost"``
        (heartbeat deadline), or ``None`` while healthy.
        """
        policy = self.policy
        if (policy.point_timeout_seconds is not None
                and now - started > policy.point_timeout_seconds):
            return "timeout"
        interval = policy.heartbeat_interval_seconds
        if interval > 0 and now - last_beat > interval * policy.heartbeat_misses:
            return "heartbeat-lost"
        return None

    def record_failure(self, index: int, settings: dict, outcome: str,
                       exit_code: int | None, stderr_tail: str,
                       heartbeats: list) -> tuple[str, object]:
        """Record one failed attempt; decide retry vs quarantine.

        Returns ``("retry", delay_seconds)`` while attempts remain, or
        ``("quarantine", QuarantinedPoint)`` once they are exhausted.
        """
        record = AttemptRecord(
            attempt=self.attempt_number(index), outcome=outcome,
            exit_code=exit_code,
            signal=(-exit_code if exit_code is not None and exit_code < 0
                    else None),
            stderr_tail=stderr_tail,
            heartbeats=list(heartbeats)[-HEARTBEAT_TRAIL:])
        trail = self.attempts.setdefault(index, [])
        trail.append(record)
        action, payload = self.policy.retry.after_failure(
            len(trail), f"sweep point {settings}", outcome, exit_code,
            seed=self.policy.seed, index=index)
        if action == "retry":
            record.backoff_seconds = payload
            if self.monitor is not None:
                self.monitor.retry_scheduled(index, settings,
                                             record.attempt, payload)
            return action, payload
        error = QuarantinedPoint(payload, attempts=list(trail))
        if self.monitor is not None:
            self.monitor.quarantined(index, settings, len(trail))
        return "quarantine", error

    def pool_failure(self, reason: str,
                     current_workers: int) -> int | None:
        """Register a pool-level failure (fork failure, RSS trip).

        Every ``policy.degrade_after``-th failure steps the ladder:
        returns the new worker count (``0`` = run the rest serially),
        or ``None`` when the count is unchanged.
        """
        self.pool_failures += 1
        after = self.policy.degrade_after
        if not after or self.pool_failures % after:
            return None
        to_workers = current_workers // 2 if current_workers > 1 else 0
        event = DegradationEvent(
            reason=reason, from_workers=current_workers,
            to_workers=to_workers, pool_failures=self.pool_failures)
        self.degradations.append(event)
        if self.monitor is not None:
            self.monitor.degraded(event)
        return to_workers


# -- worker-side helpers -----------------------------------------------------

# Test hook: a chaos workload can flip this (inside the worker process)
# to simulate a wedge whose heartbeat thread has also stopped.
_SUPPRESS_HEARTBEATS = False


def suppress_heartbeats(value: bool = True) -> None:
    """Chaos-test hook: silence this process's heartbeat sender."""
    global _SUPPRESS_HEARTBEATS
    _SUPPRESS_HEARTBEATS = value


def heartbeats_suppressed() -> bool:
    return _SUPPRESS_HEARTBEATS


def worker_rss_mb() -> float:
    """This process's peak RSS in MB (0.0 where unavailable).

    Uses ``resource.getrusage`` — peak, not instantaneous, which is the
    right guard semantics for a leak ceiling (a worker that ever
    crossed the ceiling stays over it).  ``ru_maxrss`` is KB on Linux.
    """
    try:
        import resource
    except ImportError:
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_stderr_tail(path, limit: int = STDERR_TAIL_BYTES) -> str:
    """The last ``limit`` bytes of a worker's captured stderr."""
    if path is None:
        return ""
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(max(0, size - limit))
            return handle.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""
