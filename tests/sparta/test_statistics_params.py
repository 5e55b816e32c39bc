"""Tests for counters/statistics."""

from repro.sparta.statistics import (
    Counter,
    Gauge,
    StatisticSet,
    format_report,
)


class TestCounter:
    def test_increment(self):
        counter = Counter("hits")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_iadd(self):
        counter = Counter("hits")
        counter += 3
        assert counter.value == 3


class TestGauge:
    def test_peak_tracking(self):
        gauge = Gauge("occupancy")
        gauge.set(5)
        gauge.set(2)
        gauge.add(1)
        assert gauge.value == 3 and gauge.peak == 5

    def test_add_below_zero_allowed(self):
        gauge = Gauge("delta")
        gauge.add(-2)
        assert gauge.value == -2


class TestStatisticSet:
    def test_counter_registration_idempotent(self):
        stats = StatisticSet("top")
        a = stats.counter("hits")
        b = stats.counter("hits")
        assert a is b

    def test_samples_include_gauge_peak(self):
        stats = StatisticSet("top")
        gauge = stats.gauge("occ")
        gauge.set(9)
        gauge.set(1)
        names = {sample.name: sample.value for sample in stats.samples()}
        assert names["occ"] == 1 and names["occ.peak"] == 9

    def test_sample_paths(self):
        stats = StatisticSet("a.b")
        stats.counter("c")
        (sample,) = stats.samples()
        assert sample.full_name == "a.b.c"

    def test_format_report_sorted(self):
        stats = StatisticSet("z")
        stats.counter("beta").increment(2)
        stats.counter("alpha").increment(1)
        report = format_report(stats.samples())
        assert report.index("alpha") < report.index("beta")

    def test_format_empty(self):
        assert "no statistics" in format_report([])
