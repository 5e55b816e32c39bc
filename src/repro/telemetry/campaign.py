"""Campaign-level progress and the campaign metrics registry.

A sweep is a campaign of independent simulations; its progress signal
(``k/n points, ETA``) belongs to the same telemetry surface as the
per-run heartbeat, so :class:`CampaignProgress` streams through the
``repro.telemetry`` logger namespace — anything already consuming the
run heartbeat (``--progress``) sees campaign progress for free.

:class:`CampaignMetrics` is what the one campaign executor (and the
service and dispatcher built on it) reports into: named counters,
last-value gauges (queue depth, per-point worker heartbeats, per-node
liveness) and spans exported as Chrome trace events (``coyote-sim
sweep --chrome-trace``).
"""

from __future__ import annotations

import collections
import logging
import time
from typing import Any, Callable

logger = logging.getLogger("repro.telemetry.campaign")


class CampaignProgress:
    """Streams ``k/n points, ETA`` as points of a campaign complete.

    ``clock`` is injectable so tests can drive deterministic timelines.
    The ETA is the classic remaining-work estimate: mean seconds per
    completed point times points outstanding — deliberately simple, it
    is a heartbeat, not a scheduler.
    """

    def __init__(self, total: int, label: str = "sweep",
                 clock: Callable[[], float] = time.monotonic,
                 sink: Callable[[str], None] | None = None):
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.label = label
        self.completed = 0
        self.failed = 0
        self._clock = clock
        self._sink = sink or logger.info
        self._start = clock()

    @property
    def elapsed(self) -> float:
        return self._clock() - self._start

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion (None before the first point)."""
        if not self.completed:
            return None
        remaining = self.total - self.completed
        return self.elapsed / self.completed * remaining

    def point_completed(self, settings: dict[str, Any] | None = None,
                        failed: bool = False) -> str:
        """Record one finished point and emit the progress line."""
        self.completed += 1
        if failed:
            self.failed += 1
        eta = self.eta_seconds()
        percent = (100.0 * self.completed / self.total if self.total
                   else 100.0)
        parts = [f"{self.label}: {self.completed}/{self.total} points "
                 f"({percent:.0f}%)",
                 f"elapsed {self.elapsed:.1f}s"]
        if eta is not None and self.completed < self.total:
            parts.append(f"eta {eta:.1f}s")
        if self.failed:
            parts.append(f"{self.failed} failed")
        if failed and settings is not None:
            parts.append(f"last failure {settings}")
        line = ", ".join(parts)
        self._sink(line)
        return line


class CampaignMetrics:
    """The one registry every campaign tier reports into.

    ``counters`` are monotonic event counts under fixed names (a
    misspelt name is a ``KeyError``, not a silent new series);
    ``gauges`` hold the last observed queue depth and lease count,
    ``heartbeat_gauges`` the last ``cycles`` / ``rss_mb`` reported by
    each point's worker while its attempt is live, ``node_gauges`` each
    cluster node's last-seen age and held leases.  Spans (one per local attempt, one per node grant)
    are kept as Chrome trace complete-events, newest 65 536, so a whole
    campaign's schedule opens in Perfetto.  All host-side: none of it
    enters the canonical ``SweepTable.to_dict`` document.
    """

    COUNTERS = (
        # local attempts and their supervision
        "attempts", "heartbeats", "reaped", "retries", "quarantined",
        "degradations", "blocks_shared",
        # queue, leases, cache
        "submits", "points_submitted", "rejected", "claims",
        "completions", "cache_hits", "cache_misses", "cache_corrupt",
        "lease_expired", "released", "stale_writes",
        # cluster nodes
        "nodes_registered", "node_heartbeats", "nodes_dead",
        "rebalanced", "grants")

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Callable[[str], None] | None = None):
        self.counters = dict.fromkeys(self.COUNTERS, 0)
        self.gauges = {"queue_depth": 0, "active_leases": 0}
        self.heartbeat_gauges: dict[tuple, dict[str, float]] = {}
        self.node_gauges: dict[str, dict[str, float]] = {}
        self._clock = clock
        self._sink = sink or logger.info
        self._origin = clock()
        self._open: dict[tuple, float] = {}
        self._events: collections.deque = collections.deque(maxlen=1 << 16)
        self._tracks: dict[str, int] = {}

    def count(self, name: str, message: str | None = None,
              amount: int = 1) -> None:
        """Bump one counter; ``message`` also goes to the log sink."""
        self.counters[name] += amount
        if message is not None:
            self._sink(message)

    def _now_us(self) -> float:
        return (self._clock() - self._origin) * 1e6

    def span_open(self, key: tuple) -> None:
        self._open[key] = self._now_us()

    def span_close(self, key: tuple, name: str, track: int | str,
                   **args: Any) -> None:
        """Close the span opened under ``key`` (a no-op when none is).
        An integer ``track`` is a local point's index; a string names
        a cluster node, which gets its own labelled track."""
        start = self._open.pop(key, None)
        if start is None:
            return
        named = isinstance(track, str)
        tid = (self._tracks.setdefault(track, len(self._tracks))
               if named else track)
        self._events.append({
            "name": name, "cat": "cluster" if named else "sweep",
            "ph": "X", "pid": 2 if named else 1, "tid": tid,
            "ts": round(start, 3),
            "dur": round(self._now_us() - start, 3), "args": args})

    def chrome_trace(self) -> dict:
        """Every span as a Chrome trace-event document."""
        names = [{"name": "thread_name", "ph": "M", "pid": 2, "tid": tid,
                  "args": {"name": f"node {node}"}}
                 for node, tid in self._tracks.items()]
        return {"traceEvents": names + list(self._events),
                "displayTimeUnit": "ms"}
