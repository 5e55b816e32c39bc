"""Tests for the discrete-event scheduler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sparta.scheduler import Scheduler, SchedulerError


class TestBasics:
    def test_starts_at_cycle_zero(self):
        assert Scheduler().current_cycle == 0

    def test_event_fires_at_delay(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(lambda: fired.append(scheduler.current_cycle),
                           delay=5)
        scheduler.advance_to(10)
        assert fired == [5]

    def test_event_args(self):
        scheduler = Scheduler()
        received = []
        scheduler.schedule(received.append, delay=1, args=("payload",))
        scheduler.advance_to(2)
        assert received == ["payload"]

    def test_zero_delay_fires_this_cycle(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(lambda: fired.append(True), delay=0)
        scheduler.advance_cycle()
        assert fired == [True]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulerError):
            Scheduler().schedule(lambda: None, delay=-1)

    def test_rewind_rejected(self):
        scheduler = Scheduler()
        scheduler.advance_to(10)
        with pytest.raises(SchedulerError):
            scheduler.advance_to(5)


class TestOrdering:
    def test_same_cycle_fifo(self):
        scheduler = Scheduler()
        order = []
        for index in range(5):
            scheduler.schedule(order.append, delay=3, args=(index,))
        scheduler.advance_to(4)
        assert order == [0, 1, 2, 3, 4]

    def test_cascading_events(self):
        """An event scheduling another event in the same cycle fires it
        in the same drain."""
        scheduler = Scheduler()
        order = []

        def first():
            order.append("first")
            scheduler.schedule(lambda: order.append("second"), delay=0)

        scheduler.schedule(first, delay=2)
        scheduler.advance_to(3)
        assert order == ["first", "second"]

    def test_events_across_cycles(self):
        scheduler = Scheduler()
        fired = []
        for delay in (3, 1, 2):
            scheduler.schedule(fired.append, delay=delay, args=(delay,))
        scheduler.advance_to(5)
        assert fired == [1, 2, 3]


class TestQueries:
    def test_next_event_cycle(self):
        scheduler = Scheduler()
        assert scheduler.next_event_cycle() is None
        scheduler.schedule(lambda: None, delay=7)
        assert scheduler.next_event_cycle() == 7

    def test_counters(self):
        scheduler = Scheduler()
        scheduler.schedule(lambda: None, delay=1)
        scheduler.schedule(lambda: None, delay=2)
        assert scheduler.pending_events == 2
        scheduler.advance_to(3)
        assert scheduler.events_fired == 2
        assert scheduler.pending_events == 0


class TestRunUntilIdle:
    def test_drains_everything(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(fired.append, delay=100, args=(1,))
        scheduler.schedule(fired.append, delay=200, args=(2,))
        final = scheduler.run_until_idle()
        assert fired == [1, 2]
        assert final >= 200

    def test_runaway_guard(self):
        scheduler = Scheduler()

        def reschedule():
            scheduler.schedule(reschedule, delay=1)

        scheduler.schedule(reschedule, delay=1)
        with pytest.raises(SchedulerError):
            scheduler.run_until_idle(max_cycles=100)

    def test_budget_counts_cycles_not_batches(self):
        # 150 events spaced 10 cycles apart span 1500 cycles.  A budget
        # of 1000 *cycles* must trip even though only 150 event batches
        # fire (the old budget counted batches and would sail through).
        scheduler = Scheduler()
        for index in range(150):
            scheduler.schedule(lambda: None, delay=(index + 1) * 10)
        with pytest.raises(SchedulerError, match="cycle budget"):
            scheduler.run_until_idle(max_cycles=1000)

    def test_long_single_jump_within_budget(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(fired.append, delay=500_000, args=(1,))
        scheduler.run_until_idle(max_cycles=1_000_000)
        assert fired == [1]

    def test_single_jump_past_budget_raises(self):
        # One far-future event must not be able to advance the clock
        # further than an equivalent per-cycle walk could.
        scheduler = Scheduler()
        scheduler.schedule(lambda: None, delay=2000)
        with pytest.raises(SchedulerError, match="cycle budget"):
            scheduler.run_until_idle(max_cycles=1000)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=50))
def test_fire_order_is_time_sorted(delays):
    scheduler = Scheduler()
    fired = []
    for delay in delays:
        scheduler.schedule(
            lambda d=delay: fired.append((scheduler.current_cycle, d)),
            delay=delay)
    scheduler.advance_to(101)
    fire_cycles = [cycle for cycle, _delay in fired]
    assert fire_cycles == sorted(fire_cycles)
    assert all(cycle == delay for cycle, delay in fired)
