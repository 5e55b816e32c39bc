"""Property-based tests for the memory hierarchy.

Two system-level invariants:

* **LRU reference model** — the TagArray must agree, access for access,
  with an executable specification of a set-associative LRU cache.
* **Request conservation** — any random stream of submitted requests is
  eventually completed exactly once, with consistent counters, under any
  hierarchy configuration.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memhier.hierarchy import MemHierConfig, MemoryHierarchy
from repro.memhier.request import RequestKind
from repro.utils.tagarray import TagArray
from repro.sparta.scheduler import Scheduler


class ReferenceLru:
    """Executable specification: per-set python lists, index 0 = LRU."""

    def __init__(self, num_sets: int, ways: int, line_bytes: int):
        self.num_sets = num_sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets: list[list[tuple[int, bool]]] = \
            [[] for _ in range(num_sets)]

    def _set_of(self, address: int) -> int:
        return (address // self.line_bytes) % self.num_sets

    def _find(self, entries, line):
        for position, (entry_line, _dirty) in enumerate(entries):
            if entry_line == line:
                return position
        return None

    def lookup(self, address: int, is_write: bool) -> bool:
        entries = self.sets[self._set_of(address)]
        line = address // self.line_bytes
        position = self._find(entries, line)
        if position is None:
            return False
        _line, dirty = entries.pop(position)
        entries.append((line, dirty or is_write))
        return True

    def install(self, address: int, dirty: bool):
        entries = self.sets[self._set_of(address)]
        line = address // self.line_bytes
        position = self._find(entries, line)
        if position is not None:
            _line, old_dirty = entries.pop(position)
            entries.append((line, old_dirty or dirty))
            return None
        victim = None
        if len(entries) >= self.ways:
            victim_line, victim_dirty = entries.pop(0)
            victim = (victim_line * self.line_bytes, victim_dirty)
        entries.append((line, dirty))
        return victim


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=150))
def test_tagarray_matches_reference_lru(operations):
    """(line, is_write, do_install) streams agree with the spec."""
    tags = TagArray(size_bytes=2048, associativity=4, line_bytes=64)
    reference = ReferenceLru(num_sets=8, ways=4, line_bytes=64)
    for line_index, is_write, do_install in operations:
        address = line_index * 64
        assert tags.lookup(address, is_write) == \
            reference.lookup(address, is_write)
        if do_install and not tags.contains(address):
            assert tags.install(address, dirty=is_write) == \
                reference.install(address, dirty=is_write)


_request_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),        # core
        st.integers(min_value=0, max_value=255),      # line index
        st.sampled_from([RequestKind.LOAD, RequestKind.STORE,
                         RequestKind.IFETCH, RequestKind.WRITEBACK]),
        st.integers(min_value=0, max_value=30),       # submit delay
    ),
    min_size=1, max_size=60)


@settings(max_examples=25, deadline=None)
@given(requests=_request_strategy,
       l2_mode=st.sampled_from(["shared", "private"]),
       mapping=st.sampled_from(["set-interleaving", "page-to-bank"]),
       max_in_flight=st.sampled_from([1, 2, 16]),
       l3=st.booleans())
def test_request_conservation(requests, l2_mode, mapping, max_in_flight,
                              l3):
    """Every response-needing request completes exactly once."""
    config = MemHierConfig(num_tiles=2, cores_per_tile=4,
                           banks_per_tile=2, l2_mode=l2_mode,
                           mapping_policy=mapping,
                           l2_max_in_flight=max_in_flight,
                           l3_enable=l3)
    scheduler = Scheduler()
    hierarchy = MemoryHierarchy(config, scheduler)
    completed_ids: list[int] = []
    hierarchy.on_complete = \
        lambda request: completed_ids.append(request.request_id)

    expected_ids = []
    next_id = 0
    for core, line_index, kind, delay in requests:
        def submit(core=core, line_index=line_index, kind=kind,
                   request_id=next_id):
            hierarchy.submit(request_id, core, line_index * 64, kind)
        scheduler.schedule(submit, delay=delay)
        if kind is not RequestKind.WRITEBACK:
            expected_ids.append(next_id)
        next_id += 1

    scheduler.run_until_idle(max_cycles=1_000_000)
    assert sorted(completed_ids) == sorted(expected_ids)
    assert hierarchy.outstanding() == 0
    # No bank left holding state.
    for bank in hierarchy.banks + hierarchy.l3_banks:
        assert bank.in_flight() == 0
        assert bank.queued() == 0
