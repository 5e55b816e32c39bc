"""The set-associative true-LRU tag array under every modelled cache.

Tags only — data always lives in the functional memory.  An L2 bank
uses the lookup/install split as it is (a line is *not* installed until
its fill returns from memory); the private L1s (:mod:`repro.spike.l1cache`)
add allocate-on-miss and statistics on top.  Dirty state tracks whether
an eventual eviction must write back.
"""

from __future__ import annotations

from repro.utils.bitops import clog2, is_power_of_two


def check_geometry(size_bytes: int, associativity: int,
                   line_bytes: int) -> int:
    """The set count of a cache of this geometry: a ``ValueError``
    unless lines, ways and sets all come out whole and the set count is
    a power of two."""
    if not is_power_of_two(line_bytes):
        raise ValueError(f"line size must be a power of two: "
                         f"{line_bytes}")
    num_lines, remainder = divmod(size_bytes, line_bytes)
    if remainder:
        raise ValueError("size must be a multiple of the line size")
    if associativity < 1 or num_lines % associativity \
            or not is_power_of_two(num_lines // associativity):
        raise ValueError(
            f"bad geometry: {size_bytes}/{associativity}/{line_bytes}")
    return num_lines // associativity


class TagArray:
    """Tags + LRU + dirty bits for one cache."""

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int):
        self.num_sets = check_geometry(size_bytes, associativity, line_bytes)
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self._offset_bits = clog2(line_bytes)
        self._index_mask = self.num_sets - 1
        # Insertion-ordered {line_number: dirty}; a touch re-inserts, so
        # the first key is always the LRU way.
        self._sets: list[dict[int, bool]] = [dict()
                                             for _ in range(self.num_sets)]

    def _locate(self, address: int) -> tuple[dict[int, bool], int]:
        line_number = address >> self._offset_bits
        return self._sets[line_number & self._index_mask], line_number

    def lookup(self, address: int, is_write: bool) -> bool:
        """Probe for ``address``; on hit, touch LRU (and dirty for
        writes)."""
        ways, line_number = self._locate(address)
        if line_number not in ways:
            return False
        dirty = ways.pop(line_number) or is_write
        ways[line_number] = dirty
        return True

    def contains(self, address: int) -> bool:
        """Presence check without LRU side effects."""
        ways, line_number = self._locate(address)
        return line_number in ways

    def install(self, address: int,
                dirty: bool = False) -> tuple[int, bool] | None:
        """Install the line holding ``address``.

        Returns ``(victim_line_address, victim_dirty)`` when an eviction
        was required, else ``None``.  Installing a resident line just
        updates its state.
        """
        ways, line_number = self._locate(address)
        if line_number in ways:
            ways[line_number] = ways.pop(line_number) or dirty
            return None
        victim = None
        if len(ways) >= self.associativity:
            victim_number, victim_dirty = next(iter(ways.items()))
            del ways[victim_number]
            victim = (victim_number << self._offset_bits, victim_dirty)
        ways[line_number] = dirty
        return victim

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(ways) for ways in self._sets)
