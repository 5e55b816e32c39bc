"""Tests for units and the component tree."""

import pytest

from repro.sparta.scheduler import Scheduler
from repro.sparta.unit import Unit


@pytest.fixture
def root():
    return Unit("top", scheduler=Scheduler())


class TestUnitTree:
    def test_root_requires_scheduler(self):
        with pytest.raises(ValueError):
            Unit("orphan")

    def test_path(self, root):
        tile = Unit("tile0", root)
        bank = Unit("bank1", tile)
        assert bank.path == "top.tile0.bank1"

    def test_children_share_scheduler(self, root):
        child = Unit("child", root)
        assert child.scheduler is root.scheduler

    def test_duplicate_child_rejected(self, root):
        Unit("x", root)
        with pytest.raises(ValueError):
            Unit("x", root)

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Unit("a.b", scheduler=Scheduler())

    def test_find(self, root):
        tile = Unit("tile0", root)
        bank = Unit("bank0", tile)
        assert root.find("tile0.bank0") is bank

    def test_find_missing(self, root):
        with pytest.raises(KeyError):
            root.find("nope")

    def test_walk_depth_first(self, root):
        a = Unit("a", root)
        b = Unit("b", root)
        a1 = Unit("a1", a)
        names = [unit.name for unit in root.walk()]
        assert names == ["top", "a", "a1", "b"]

    def test_collect_stats(self, root):
        child = Unit("child", root)
        counter = child.stats.counter("hits", "test")
        counter.increment(3)
        samples = root.collect_stats()
        (sample,) = [s for s in samples if s.name == "hits"]
        assert sample.value == 3
        assert sample.full_name == "top.child.hits"
