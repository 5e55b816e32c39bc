"""Memory controller + HBM-like channel model.

The paper lists memory-controller modelling as work in progress and uses
fixed latencies; we implement a simple but useful model: each controller
has a fixed access ``latency`` plus a bandwidth limit expressed as
``cycles_per_request`` (the initiation interval of its single channel).
Requests that arrive while the channel is busy queue up and are served in
order — so bank-conflict-like pressure on one controller shows up as
queueing delay, which is exactly the first-order effect design-space
exploration needs.

An optional stream prefetcher (extension; the paper calls prefetching a
"next step") watches fill addresses per controller and preloads the
next sequential line into the requesting bank's MSHR stream.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

from repro.memhier.request import MemRequest, RequestKind
from repro.sparta.unit import Unit


def check_channel(latency: int, cycles_per_request: int,
                  prefetch_depth: int) -> None:
    """A ``ValueError`` for channel parameters no controller can model."""
    if latency < 1:
        raise ValueError(f"memory latency must be >= 1, got {latency}")
    if cycles_per_request < 1:
        raise ValueError(f"memory cycles_per_request must be >= 1, "
                         f"got {cycles_per_request}")
    if prefetch_depth < 0:
        raise ValueError(
            f"prefetch_depth must be >= 0, got {prefetch_depth}")


class MemoryController(Unit):
    """One memory channel: fixed latency + initiation-interval bandwidth."""

    def __init__(self, name: str, parent: Unit, *, latency: int = 100,
                 cycles_per_request: int = 2,
                 send: Callable[[str, str, object], None] | None = None,
                 prefetch_depth: int = 0, line_bytes: int = 64):
        super().__init__(name, parent)
        check_channel(latency, cycles_per_request, prefetch_depth)
        self.latency = latency
        self.cycles_per_request = cycles_per_request
        self.prefetch_depth = prefetch_depth
        self.line_bytes = line_bytes
        self._send = send
        self.endpoint = self.path
        self._next_free_cycle = 0
        self._prefetched: set[int] = set()

        stats = self.stats
        self._stat_reads = stats.counter("reads", "fill requests served")
        self._stat_writes = stats.counter("writes", "writebacks absorbed")
        self._stat_queue_cycles = stats.counter(
            "queue_cycles", "total cycles requests waited for the channel")
        self._stat_busy_cycles = stats.counter(
            "busy_cycles", "cycles the channel transferred data")
        self._stat_prefetches = stats.counter(
            "prefetches", "sequential lines prefetched (extension)")
        self._stat_queue = stats.gauge(
            "queue_depth",
            "requests queued behind the busy channel (at arrival)")

    def handle_request(self, request: MemRequest) -> None:
        """A fill request or writeback arrived from an L2 bank."""
        now = self.scheduler.current_cycle
        start = max(now, self._next_free_cycle)
        self._stat_queue_cycles.value += start - now
        # Backlog seen by this request, in whole requests-ahead-of-us.
        self._stat_queue.set((start - now) // self.cycles_per_request)
        # An MCPU-aggregated request transfers all its member lines
        # back-to-back on the channel.
        transfer_cycles = self.cycles_per_request * request.num_lines
        self._next_free_cycle = start + transfer_cycles
        self._stat_busy_cycles.value += transfer_cycles

        if request.kind is RequestKind.WRITEBACK:
            self._stat_writes.value += 1
            return  # absorbed; no response needed
        self._stat_reads.value += 1
        request.mc_id = self.index

        # Stream-prefetch extension: a read of a previously prefetched line
        # is served at channel speed (its DRAM access already happened);
        # each demand read triggers prefetches of the next sequential lines.
        access_latency = self.latency
        if self.prefetch_depth:
            if request.line_address in self._prefetched:
                self._prefetched.discard(request.line_address)
                access_latency = self.cycles_per_request
            for depth in range(1, self.prefetch_depth + 1):
                next_line = request.line_address + depth * self.line_bytes
                if next_line not in self._prefetched:
                    self._prefetched.add(next_line)
                    self._stat_prefetches.increment()
                    self._next_free_cycle += self.cycles_per_request
                    self._stat_busy_cycles.increment(self.cycles_per_request)

        # The (single) response leaves once the last member line has
        # transferred.
        respond_at = (start + access_latency
                      + (request.num_lines - 1) * self.cycles_per_request)
        self.scheduler.schedule(self._respond, respond_at - now, (request,))

    def _respond(self, request: MemRequest) -> None:
        if self._send is None:
            raise RuntimeError(f"{self.path}: no send function wired")
        self._send(self.endpoint, request.fill_target, request)

    @cached_property
    def index(self) -> int:
        """The ``N`` of its ``mc<N>`` name, parsed once."""
        digits = "".join(ch for ch in self.name if ch.isdigit())
        return int(digits) if digits else -1

    @property
    def busy_until(self) -> int:
        """First cycle the channel is free again (diagnostics: a value
        far in the future means a deep backlog behind this controller)."""
        return self._next_free_cycle

    def utilisation(self, total_cycles: int) -> float:
        """Fraction of cycles the channel was transferring data."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self._stat_busy_cycles.value / total_cycles)
