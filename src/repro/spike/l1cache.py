"""L1 instruction/data cache model (the "Spike side" of the tool boundary).

As in the paper, the private L1 caches are modelled inside the functional
simulator so that only L1 *misses* cross into the Sparta-modelled memory
hierarchy, minimising tool interactions.  The cache holds tags only — data
always lives in the shared functional memory — and implements a
write-back / write-allocate policy with true-LRU replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.tagarray import TagArray


@dataclass(frozen=True)
class L1Access:
    """Outcome of a single L1 lookup."""

    hit: bool
    line_address: int
    writeback_address: int | None = None  # dirty victim evicted on a miss


@dataclass
class L1Stats:
    """Counters accumulated by one cache instance."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class L1Cache(TagArray):
    """A set-associative, write-back, write-allocate tag cache: the
    shared tag array plus statistics, allocate-on-miss and the MRU
    shadow."""

    def __init__(self, size_bytes: int = 32 * 1024, associativity: int = 8,
                 line_bytes: int = 64, name: str = "l1"):
        super().__init__(size_bytes, associativity, line_bytes)
        self.name = name
        # Per set: the most-recently-used tag (-1 = unknown).  Touching
        # the MRU way again is a no-op on LRU order, so translated
        # blocks, which re-fetch the same I-line on every trip around a
        # loop, compare against this shadow and skip the pop/re-insert.
        # Invariant, **on an L1I**: _mru[s] == t implies t is the newest
        # key of _sets[s] — the methods below and the blocks' fetch probe
        # maintain it or reset the entry (InvariantChecker's
        # ``l1_mru_shadow``).  Not on an L1D, where nothing reads it:
        # blocks re-insert data hits inline without touching it, and not
        # writing it there would cost a test per access.  Only ever
        # mutated in place — generated code holds a direct reference.
        self._mru: list[int] = [-1] * self.num_sets
        self.stats = L1Stats()

    def line_address(self, address: int) -> int:
        """Address of the cache line containing ``address``."""
        return address >> self._offset_bits << self._offset_bits

    # -- main access path ---------------------------------------------------

    def access(self, address: int, is_write: bool) -> L1Access:
        """Look up ``address``; allocates on miss and returns the outcome."""
        miss = self.access_fast(address, is_write)
        if miss is None:
            return L1Access(True, self.line_address(address))
        return L1Access(False, *miss)

    def access_fast(self, address: int,
                    is_write: bool) -> tuple[int, int | None] | None:
        """Allocation-free hot-path lookup for the per-instruction loop.

        Same side effects as :meth:`access` (statistics, LRU touch,
        allocate-on-miss, victim eviction) but returns ``None`` on a hit
        — the overwhelmingly common case pays no object construction —
        and ``(line_address, writeback_address_or_None)`` on a miss.
        """
        tag = address >> self._offset_bits
        index = tag & self._index_mask
        ways = self._sets[index]
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if tag in ways:
            ways[tag] = ways.pop(tag) or is_write  # re-insert as MRU
            self._mru[index] = tag
            return None
        return self.miss(tag, is_write)

    def miss(self, tag: int, is_write: bool) -> tuple[int, int | None]:
        """The miss half of a lookup, for a caller that has counted the
        access and found line ``tag`` absent (:meth:`access_fast`, and
        translated blocks, which probe inline): miss statistics, LRU
        victim, install.  Returns ``(line_address, dirty victim's line
        address or None)``."""
        stats = self.stats
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        address = tag << self._offset_bits
        victim = self.install(address, is_write)
        self._mru[tag & self._index_mask] = tag
        if victim is None or not victim[1]:
            return address, None
        stats.writebacks += 1
        return address, victim[0]

    # -- maintenance --------------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every line (dirty data is *not* written back)."""
        for ways in self._sets:
            ways.clear()
        self._mru[:] = (-1,) * self.num_sets

    def flush(self) -> list[int]:
        """Drop every line, returning dirty line addresses for write-back."""
        dirty_lines = [tag << self._offset_bits for ways in self._sets
                       for tag, dirty in ways.items() if dirty]
        self.invalidate_all()
        self.stats.writebacks += len(dirty_lines)
        return dirty_lines
