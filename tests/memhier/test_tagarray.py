"""Tests for the tag array (lookup/install split), and the table both
caches built on it — an L2 bank's ``TagArray`` and the L1s' ``L1Cache``
— must pass: one geometry rule, one true-LRU order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memhier import TagArray
from repro.spike.l1cache import L1Cache


def small_array():
    return TagArray(size_bytes=512, associativity=2, line_bytes=64)


class TestLookupInstall:
    def test_lookup_miss_does_not_allocate(self):
        tags = small_array()
        assert not tags.lookup(0x1000, False)
        assert not tags.lookup(0x1000, False)  # still a miss

    def test_install_then_hit(self):
        tags = small_array()
        tags.install(0x1000)
        assert tags.lookup(0x1000, False)

    def test_install_returns_victim(self):
        tags = small_array()
        assert tags.install(0x0000) is None
        assert tags.install(0x0100) is None
        victim = tags.install(0x0200)
        assert victim == (0x0000, False)

    def test_dirty_victim(self):
        tags = small_array()
        tags.install(0x0000, dirty=True)
        tags.install(0x0100)
        assert tags.install(0x0200) == (0x0000, True)

    def test_write_hit_marks_dirty(self):
        tags = small_array()
        tags.install(0x0000)
        tags.lookup(0x0000, is_write=True)
        tags.install(0x0100)
        assert tags.install(0x0200) == (0x0000, True)

    def test_lookup_refreshes_lru(self):
        tags = small_array()
        tags.install(0x0000)
        tags.install(0x0100)
        tags.lookup(0x0000, False)      # 0x0100 becomes LRU
        victim = tags.install(0x0200)
        assert victim == (0x0100, False)

    def test_reinstall_resident_keeps_dirty(self):
        tags = small_array()
        tags.install(0x0000, dirty=True)
        assert tags.install(0x0000, dirty=False) is None
        tags.install(0x0100)
        assert tags.install(0x0200) == (0x0000, True)

    def test_contains_no_side_effects(self):
        tags = small_array()
        tags.install(0x0000)
        tags.install(0x0100)
        assert tags.contains(0x0000)
        tags.install(0x0200)  # 0x0000 still LRU despite contains()
        assert not tags.contains(0x0000)


class TestGeometry:
    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            TagArray(1000, 2, 64)
        with pytest.raises(ValueError):
            TagArray(512, 2, 60)

    def test_resident_lines(self):
        tags = small_array()
        tags.install(0x0000)
        tags.install(0x1040)
        assert tags.resident_lines() == 2


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=200))
def test_install_capacity_invariant(lines):
    tags = TagArray(size_bytes=2048, associativity=4, line_bytes=64)
    for line in lines:
        if not tags.lookup(line * 64, False):
            tags.install(line * 64)
        assert tags.resident_lines() <= 32


# -- one array under both cache models ----------------------------------------

BOTH = pytest.mark.parametrize("cache_class", [TagArray, L1Cache])

# (size, associativity, line bytes) -> sets, or None for a refusal.
GEOMETRY = [
    ((32 * 1024, 8, 64), 64),
    ((512, 2, 64), 4),
    ((64, 1, 64), 1),
    ((1024, 2, 48), None),      # line size not a power of two
    ((1000, 2, 64), None),      # size not a multiple of the line
    ((64 * 3, 1, 64), None),    # sets not a power of two
    ((512, 3, 64), None),       # lines do not divide into the ways
    ((0, 2, 64), None),         # no sets at all
]

# Accesses to a 2-way, 4-set array, (address, is_write) -> what each one
# must report: hit, and the dirty line it evicts.  Set 0 is every 256 B.
A, B, C, D = 0x000, 0x100, 0x200, 0x300
LRU = [
    ("first in is first out",
     [(A, False), (B, False), (C, False), (A, False)],
     [(False, None), (False, None), (False, None), (False, None)]),
    ("a read hit refreshes",
     [(A, False), (B, False), (A, False), (C, False), (A, False),
      (B, False)],
     [(False, None), (False, None), (True, None), (False, None),
      (True, None), (False, None)]),
    ("a write hit refreshes and dirties",
     [(A, False), (B, False), (A, True), (C, False), (D, False)],
     [(False, None), (False, None), (True, None), (False, None),
      (False, A)]),
    ("a dirty victim is written back once",
     [(A, True), (B, False), (C, False), (A, False), (D, False)],
     [(False, None), (False, None), (False, A), (False, None),
      (False, None)]),
    ("other sets do not interfere",
     [(A, True), (A + 64, False), (B + 64, False), (C + 64, False),
      (A, False)],
     [(False, None), (False, None), (False, None), (False, None),
      (True, None)]),
]


def touch(cache, address, is_write):
    """One allocate-on-miss access -> (hit, dirty line evicted)."""
    if isinstance(cache, L1Cache):
        miss = cache.access_fast(address, is_write)
        return (True, None) if miss is None else (False, miss[1])
    if cache.lookup(address, is_write):
        return True, None
    victim = cache.install(address, is_write)
    return False, victim[0] if victim and victim[1] else None


@BOTH
@pytest.mark.parametrize("geometry,sets", GEOMETRY)
def test_geometry_table(cache_class, geometry, sets):
    if sets is None:
        with pytest.raises(ValueError):
            cache_class(*geometry)
    else:
        cache = cache_class(*geometry)
        assert cache.num_sets == sets
        assert cache.resident_lines() == 0


@BOTH
@pytest.mark.parametrize("_name,accesses,expected", LRU,
                         ids=[row[0] for row in LRU])
def test_lru_table(cache_class, _name, accesses, expected):
    cache = cache_class(512, 2, 64)
    assert [touch(cache, *access) for access in accesses] == expected


def test_the_old_module_path_still_names_the_class():
    """Checkpoints written before the array moved pickle it as
    ``repro.memhier.tagarray.TagArray``."""
    import pickle

    from repro.memhier import tagarray
    assert tagarray.TagArray is TagArray
    assert b"repro.utils.tagarray" in pickle.dumps(TagArray(512, 2, 64))
