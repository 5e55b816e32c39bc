"""Supervision policy: what a campaign is allowed to cost, and what a
death costs a point.

A design-space campaign is only as robust as its weakest point: one
wedged worker (infinite loop), one leaking worker (runaway RSS), or one
transient host failure (fork exhaustion) can wedge a multi-hour sweep.
This module holds the *policy* of the supervised runtime — the process
mechanics live in :class:`repro.coyote.parallel.PointPool`, and the one
campaign loop that applies these policies to its events (attempt book
in the job store, deadline check on local workers, degradation ladder)
is :class:`repro.service.service.CampaignExecutor`:

* :class:`SupervisorPolicy` — the knobs: per-point wall-clock timeout,
  heartbeat cadence and miss budget, per-worker RSS ceiling, the
  :class:`RetryPolicy`, and the degradation threshold.
* :class:`RetryPolicy` — bounded retries with seeded backoff, and the
  one retry-vs-quarantine rule (:meth:`RetryPolicy.after_failure`)
  every campaign tier is charged under.
* :class:`QuarantinedPoint` — the structured failure recorded on a
  point that exhausted its retries: full attempt history (outcome,
  exit code / signal, stderr tail, heartbeat trail), picklable so it
  survives a campaign directory and is never re-run on warm restart.
* :class:`DegradationEvent` — one step down the ladder
  (``cluster → N → N/2 → … → 1 → in-process``), recorded on the
  resulting :class:`~repro.coyote.sweep.SweepTable`.

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

# How much of a dead worker's stderr is kept for diagnosis.
STDERR_TAIL_BYTES = 2048

# How many trailing heartbeats are kept per attempt.
HEARTBEAT_TRAIL = 16


class QuarantinedPoint(SimulationError):
    """A sweep point that exhausted its retries and was quarantined.

    Recorded as the point's ``error`` in the :class:`SweepTable` and in
    the sweep's campaign directory; a warm-restarted sweep loads it and
    never re-runs the point.  ``attempts`` (via the structured ``details``)
    is the full :class:`AttemptRecord` history.
    """


@dataclass
class AttemptRecord:
    """One failed attempt of one supervised sweep point."""

    attempt: int                 # 1-based
    # "crash" | "timeout" | "heartbeat-lost" | "rss-exceeded" (a local
    # worker's) | "lease-expired" | "node-lost" (a remote owner's)
    outcome: str
    exit_code: int | None = None
    signal: int | None = None    # populated when exit_code is -signal
    stderr_tail: str = ""        # last ~2 KB of the worker's stderr
    heartbeats: list = field(default_factory=list)  # [(cycles, rss_mb)]
    backoff_seconds: float = 0.0  # delay scheduled before the retry


@dataclass
class DegradationEvent:
    """One step down the ladder (``to_workers == 0`` = in-process)."""

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
        the message to record (``what`` names the point:
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
    """This process's current resident size in MB (0.0 where
    unavailable), so the RSS ceiling judges the point in flight:
    ``/proc/self/statm`` on Linux, else the peak ``ru_maxrss``."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)
    except (OSError, ValueError, IndexError):
        pass
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
