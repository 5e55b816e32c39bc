"""A cache bank, modelled as an independent Sparta unit.

"The functionality of each element (e.g. an L2 Bank) is encapsulated as an
independent component" — each bank owns its tag array, MSHR file, and a
pending queue used when the configured maximum number of in-flight misses
is reached (back-pressure).

The class is level-agnostic: the hierarchy instantiates it as L2 banks
(requests from the tile side, fills from memory or from an L3) and — the
paper's "deeper memory hierarchies can currently be modelled" — as an
optional L3 level sitting between the L2 banks and the memory
controllers.  Response routing is carried per-request in
``MemRequest.fill_target`` ("where the response to this request goes"),
so one bank can serve waiters from many different requesters.

Timing: hits respond after ``hit_latency``; misses spend ``miss_latency``
on lookup/MSHR allocation before the fill request leaves for the next
level.  Lines are installed only when the fill response returns, and
dirty victims generate writebacks toward memory.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.memhier.request import MemRequest, RequestKind
from repro.sparta.unit import Unit
from repro.utils.tagarray import TagArray

_STORE = RequestKind.STORE
_WRITEBACK = RequestKind.WRITEBACK


def check_bank(hit_latency: int, miss_latency: int, max_in_flight: int,
               cycles_per_request: int = 0) -> None:
    """A ``ValueError`` for bank timing no bank can model (a negative
    latency would schedule into the past)."""
    if hit_latency < 0 or miss_latency < 0:
        raise ValueError(f"hit/miss latencies must be >= 0, got "
                         f"{hit_latency}/{miss_latency}")
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got "
                         f"{max_in_flight}")
    if cycles_per_request < 0:
        raise ValueError(f"cycles_per_request must be >= 0, got "
                         f"{cycles_per_request}")


class CacheBank(Unit):
    """A single bank of a shared / tile-private cache level."""

    def __init__(self, name: str, parent: Unit, *, size_bytes: int,
                 associativity: int, line_bytes: int, hit_latency: int,
                 miss_latency: int, max_in_flight: int,
                 send: Callable[[str, str, object], None],
                 next_level_of: Callable[[int], str],
                 bank_id: int | None = -1,
                 cycles_per_request: int = 0):
        super().__init__(name, parent)
        check_bank(hit_latency, miss_latency, max_in_flight,
                   cycles_per_request)
        self.tags = TagArray(size_bytes, associativity, line_bytes)
        self.hit_latency = hit_latency
        self.miss_latency = miss_latency
        self.max_in_flight = max_in_flight
        # 0 = the paper's idealised bank (unlimited throughput); N > 0
        # models a single bank port accepting one request every N cycles
        # (bank conflicts appear as queueing delay).
        self.cycles_per_request = cycles_per_request
        self._next_free_cycle = 0
        self._send = send
        self._next_level_of = next_level_of
        # Stamped on each request with its hit/miss outcome: the bank's
        # index among the L2 banks (-1 outside a hierarchy); None for a
        # bank below the L2 level, which stamps neither.
        self.bank_id = bank_id
        self.endpoint = self.path              # NoC endpoint for requests
        self.fill_endpoint = self.path + ".fill"  # NoC endpoint for fills
        # Normally a fill without an MSHR is a hard modelling bug and
        # raises.  Under fault injection, duplicate-delivered fills are
        # *expected* to arrive after their MSHR retired; the injector
        # flips this so they are counted and dropped instead.
        self.tolerate_spurious_fills = False

        # line_address -> list of requests waiting on that fill.
        self._mshrs: dict[int, list[MemRequest]] = {}
        self._pending: deque[MemRequest] = deque()

        stats = self.stats
        self._stat_requests = stats.counter("requests",
                                            "requests received")
        self._stat_hits = stats.counter("hits", "bank hits")
        self._stat_misses = stats.counter("misses", "bank misses")
        self._stat_writebacks_in = stats.counter(
            "writebacks_in", "writebacks received from above")
        self._stat_writebacks_out = stats.counter(
            "writebacks_out", "dirty victims written toward memory")
        self._stat_coalesced = stats.counter(
            "coalesced", "misses merged into an existing MSHR")
        self._stat_late_hits = stats.counter(
            "late_hits",
            "misses that found the line installed by an intervening fill")
        self._stat_wb_coalesced = stats.counter(
            "writebacks_coalesced",
            "writebacks merged into an in-flight MSHR for the same line")
        self._stat_stalled = stats.counter(
            "mshr_stalls", "requests queued because the MSHR file was full")
        self._stat_occupancy = stats.gauge("mshr_occupancy",
                                           "in-flight misses")
        self._stat_queue = stats.gauge(
            "pending_queue", "requests waiting for a free MSHR")
        self._stat_conflicts = stats.counter(
            "port_conflict_cycles",
            "cycles requests waited for the bank port")
        self._stat_spurious = stats.counter(
            "spurious_fills",
            "fills with no waiting MSHR, dropped (fault injection)")

    # -- NoC-facing entry points ---------------------------------------------

    def handle_request(self, request: MemRequest) -> None:
        """A request arrived from the level above."""
        bank_id = self.bank_id
        if bank_id is not None:
            request.bank_id = bank_id
        self._stat_requests.value += 1
        port_wait = self._claim_port() if self.cycles_per_request else 0
        kind = request.kind
        if kind is _WRITEBACK:
            if port_wait:
                self.scheduler.schedule(self._handle_writeback,
                                        port_wait, (request,))
            else:
                self._handle_writeback(request)
            return
        if self.tags.lookup(request.line_address, kind is _STORE):
            self._stat_hits.value += 1
            if bank_id is not None:
                request.l2_hit = True
            self.scheduler.schedule(self._respond,
                                    port_wait + self.hit_latency,
                                    (request,))
            return
        self._stat_misses.value += 1
        if bank_id is not None:
            request.l2_hit = False
        self.scheduler.schedule(self._start_miss,
                                port_wait + self.miss_latency,
                                (request,))

    def _claim_port(self) -> int:
        """Cycles this request must wait for the modelled bank port."""
        now = self.scheduler.current_cycle
        start = max(now, self._next_free_cycle)
        self._next_free_cycle = start + self.cycles_per_request
        wait = start - now
        if wait:
            self._stat_conflicts.increment(wait)
        return wait

    def handle_fill(self, request: MemRequest) -> None:
        """A fill response arrived from the level below."""
        line = request.line_address
        waiters = self._mshrs.pop(line, None)
        if waiters is None:
            if self.tolerate_spurious_fills:
                self._stat_spurious.increment()
                return
            raise RuntimeError(
                f"{self.path}: fill for {line:#x} without an MSHR")
        # A coalesced WRITEBACK waiter means the level above evicted its
        # dirty copy while the fill was in flight: the line must be
        # installed dirty, and the writeback itself gets no response.
        dirty = False
        for waiter in waiters:
            if waiter.kind is _STORE or waiter.kind is _WRITEBACK:
                dirty = True
                break
        victim = self.tags.install(line, dirty=dirty)
        if victim is not None:
            victim_line, victim_dirty = victim
            if victim_dirty:
                self._write_toward_memory(victim_line)
        for waiter in waiters:
            if waiter.kind is not _WRITEBACK:
                self._respond(waiter)
        self._stat_occupancy.add(-1)
        self._drain_pending()

    # -- internals ------------------------------------------------------------

    def _handle_writeback(self, request: MemRequest) -> None:
        self._stat_writebacks_in.increment()
        if self.tags.lookup(request.line_address, is_write=True):
            return  # absorbed: line resident, now dirty
        waiters = self._mshrs.get(request.line_address)
        if waiters is not None:
            # The line's fill is already in flight.  Forwarding the
            # writeback toward memory here would let the fill install
            # the line *clean*, silently dropping the dirtiness the
            # level above just handed us; coalesce into the MSHR so the
            # install is dirty instead.
            waiters.append(request)
            self._stat_wb_coalesced.increment()
            return
        # Not resident: forward toward memory without allocating.
        self._write_toward_memory(request.line_address)

    def _write_toward_memory(self, line_address: int) -> None:
        self._stat_writebacks_out.value += 1
        writeback = MemRequest(-1, -1, -1, line_address, _WRITEBACK,
                               self.scheduler.current_cycle)
        self._send(self.endpoint,
                   self._next_level_of(line_address), writeback)

    def _start_miss(self, request: MemRequest) -> None:
        if not self._admit(request):
            self._stat_stalled.value += 1
            self._pending.append(request)
            self._stat_queue.set(len(self._pending))

    def _admit(self, request: MemRequest) -> bool:
        """Join the line's MSHR, serve a late hit, or allocate an MSHR;
        False when that needs an MSHR and the file is full."""
        waiters = self._mshrs.get(request.line_address)
        if waiters is not None:
            waiters.append(request)
            self._stat_coalesced.value += 1
            return True
        if self._late_hit(request):
            return True
        if len(self._mshrs) >= self.max_in_flight:
            return False
        self._allocate_mshr(request)
        return True

    def _late_hit(self, request: MemRequest) -> bool:
        """Re-check the tags before allocating an MSHR.

        ``miss_latency`` cycles pass between :meth:`handle_request`
        classifying a request as a miss and the MSHR allocation; a fill
        for the same line (raised by an earlier miss whose MSHR has
        since retired) can install the line in that window.  Without
        this re-check the bank would fetch a line it already holds —
        double-counting memory traffic and, worse, the redundant fill's
        install could evict the very line an in-flight response is
        about to be served from.
        """
        if not self.tags.lookup(request.line_address,
                                request.kind is RequestKind.STORE):
            return False
        self._stat_late_hits.increment()
        if self.bank_id is not None:
            request.l2_hit = True
        self._respond(request)
        return True

    def _allocate_mshr(self, request: MemRequest) -> None:
        self._mshrs[request.line_address] = [request]
        self._stat_occupancy.add(1)
        # Forward a distinct fill request: the waiter keeps its own
        # fill_target (where *its* response must go), while the fill's
        # response comes back to this bank.
        fill = MemRequest(-2, request.core_id, request.tile_id,
                          request.line_address, RequestKind.LOAD,
                          self.scheduler.current_cycle,
                          fill_target=self.fill_endpoint)
        self._send(self.endpoint,
                   self._next_level_of(request.line_address), fill)

    def _drain_pending(self) -> None:
        drained = False
        while self._pending and len(self._mshrs) < self.max_in_flight:
            drained = True
            self._admit(self._pending.popleft())
        if drained:
            self._stat_queue.set(len(self._pending))

    def _respond(self, request: MemRequest) -> None:
        self._send(self.endpoint, request.fill_target, request)

    # -- introspection ---------------------------------------------------------

    def in_flight(self) -> int:
        """Currently outstanding fills."""
        return len(self._mshrs)

    def queued(self) -> int:
        """Requests waiting for a free MSHR."""
        return len(self._pending)


# The hierarchy's L2 level is built from CacheBank instances; the old name
# remains for callers that speak in the paper's terms.
L2Bank = CacheBank
