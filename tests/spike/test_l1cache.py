"""Tests for the L1 tag cache (hits, misses, LRU, write-back state)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spike.l1cache import L1Cache


def small_cache(**kwargs):
    defaults = dict(size_bytes=512, associativity=2, line_bytes=64)
    defaults.update(kwargs)
    return L1Cache(**defaults)  # 4 sets x 2 ways


class TestGeometry:
    def test_valid_geometry(self):
        cache = L1Cache(32 * 1024, 8, 64)
        assert cache.num_sets == 64

    def test_bad_line_size(self):
        with pytest.raises(ValueError):
            L1Cache(1024, 2, 48)

    def test_size_not_multiple(self):
        with pytest.raises(ValueError):
            L1Cache(1000, 2, 64)

    def test_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            L1Cache(64 * 3, 1, 64)

    def test_line_address(self):
        cache = small_cache()
        assert cache.line_address(0x12345) == 0x12340


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000, False).hit
        assert cache.access(0x1000, False).hit

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0x1000, False)
        assert cache.access(0x103F, False).hit

    def test_adjacent_lines_are_distinct(self):
        cache = small_cache()
        cache.access(0x1000, False)
        assert not cache.access(0x1040, False).hit

    def test_stats_counting(self):
        cache = small_cache()
        cache.access(0x1000, False)
        cache.access(0x1000, False)
        cache.access(0x1000, True)
        assert cache.stats.reads == 2 and cache.stats.writes == 1
        assert cache.stats.read_misses == 1
        assert cache.stats.miss_rate == pytest.approx(1 / 3)


class TestLru:
    def test_eviction_order_is_lru(self):
        cache = small_cache()  # 2-way; lines mapping to set 0 every 256B
        a, b, c = 0x0000, 0x0100, 0x0200
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, False)        # touch a -> b is LRU
        cache.access(c, False)        # evicts b
        assert cache.access(a, False).hit
        assert not cache.access(b, False).hit

    def test_write_refreshes_lru(self):
        cache = small_cache()
        a, b, c = 0x0000, 0x0100, 0x0200
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, True)
        cache.access(c, False)
        assert cache.access(a, False).hit


class TestWriteback:
    def test_clean_eviction_no_writeback(self):
        cache = small_cache()
        cache.access(0x0000, False)
        cache.access(0x0100, False)
        result = cache.access(0x0200, False)
        assert result.writeback_address is None

    def test_dirty_eviction_writes_back(self):
        cache = small_cache()
        cache.access(0x0000, True)       # dirty
        cache.access(0x0100, False)
        result = cache.access(0x0200, False)
        assert result.writeback_address == 0x0000
        assert cache.stats.writebacks == 1

    def test_read_then_write_marks_dirty(self):
        cache = small_cache()
        cache.access(0x0000, False)
        cache.access(0x0000, True)       # now dirty via hit
        cache.access(0x0100, False)
        result = cache.access(0x0200, False)
        assert result.writeback_address == 0x0000

    def test_flush_returns_dirty_lines(self):
        cache = small_cache()
        cache.access(0x0000, True)
        cache.access(0x1000, False)
        dirty = cache.flush()
        assert dirty == [0x0000]
        assert cache.resident_lines() == 0

    def test_invalidate_all(self):
        cache = small_cache()
        cache.access(0x0000, True)
        cache.invalidate_all()
        assert not cache.contains(0x0000)


class TestProbe:
    def test_probe_no_side_effects(self):
        cache = small_cache()
        cache.access(0x0000, False)
        cache.access(0x0100, False)
        # Probing a does NOT refresh LRU.
        assert cache.contains(0x0000)
        cache.access(0x0200, False)  # evicts a (still LRU)
        assert not cache.contains(0x0000)


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.booleans()),
                min_size=1, max_size=200))
def test_capacity_invariant(accesses):
    """The cache never holds more lines than its capacity, and per-set
    occupancy never exceeds associativity."""
    cache = L1Cache(size_bytes=1024, associativity=4, line_bytes=64)
    for line_index, is_write in accesses:
        cache.access(line_index * 64, is_write)
        assert cache.resident_lines() <= 16
        for ways in cache._sets:
            assert len(ways) <= 4


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=100))
def test_working_set_within_assoc_always_hits_after_warmup(lines):
    """Lines all in one set, count <= associativity: no conflict misses."""
    cache = L1Cache(size_bytes=4096, associativity=8, line_bytes=64)
    distinct = sorted(set(lines))
    set_count = cache.num_sets
    addresses = [line * 64 * set_count for line in distinct]  # same set
    for address in addresses:
        cache.access(address, False)
    for address in addresses:
        assert cache.access(address, False).hit
