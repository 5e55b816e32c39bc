"""The all-stalled gaps: the kernel against the loop spec at their edges.

When every live core is stalled, only a completion can wake one, so the
loop spec (``tests/coyote/loop_spec.py``) jumps from the gap's first
stalled cycle straight to the waking event, fires it, and only then
looks at the cycle budget, a pause point and the observers again.  The
kernel must reproduce those edges exactly: a budget that runs out
inside a gap is reported at the cycle after the event, a pause inside a
gap stops before the event fires, and an observer due inside a gap
looks at the cycle after the event.

The point is stall-dominated: one core of ``scalar-spmv`` behind a
180-cycle memory, where three quarters of the cycles have no active
core.
"""

import functools
import pickle

import pytest

from repro.api import Simulation, SimulationConfig, SimulationError
from repro.kernels import instantiate
from repro.telemetry import TelemetryConfig
from tests.coyote.loop_spec import use_loop_spec

KERNEL, SIZE, MEM_LATENCY = "scalar-spmv", 8, 180
_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")


def _simulation(reference, sample_interval=0, **overrides):
    workload = instantiate(KERNEL, num_cores=1, size=SIZE)
    config = SimulationConfig.for_cores(
        1, mem_latency=MEM_LATENCY,
        telemetry=TelemetryConfig(sample_interval=sample_interval),
        **overrides)
    simulation = Simulation(config, workload.program)
    use_loop_spec(simulation.orchestrator, reference)
    return simulation


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


@functools.cache
def _gaps() -> tuple[tuple[int, int], ...]:
    """``(first stalled cycle, waking event's cycle)`` of every gap.

    The reference loop asks the scheduler for its next event only when
    no core is active, so each question marks the start of a gap.
    """
    simulation = _simulation(reference=True)
    scheduler = simulation.orchestrator.scheduler
    next_event_cycle = scheduler.next_event_cycle
    gaps = []

    def noted():
        event = next_event_cycle()
        gaps.append((scheduler.current_cycle, event))
        return event

    scheduler.next_event_cycle = noted
    simulation.run()
    return tuple(gaps)


def _long_gap() -> tuple[int, int]:
    """The first gap that waits out a whole memory round trip past the
    first one (so the run has some history before it)."""
    first, event = [gap for gap in _gaps()
                    if gap[1] - gap[0] >= MEM_LATENCY - 10][1]
    return first, event


def test_the_point_is_stall_dominated():
    results = _simulation(reference=True).run()
    assert results.activity[0] > results.cycles // 2
    first, event = _long_gap()
    assert first < event - 100


def _budget_outcome(reference, max_cycles):
    simulation = _simulation(reference, max_cycles=max_cycles)
    with pytest.raises(SimulationError) as caught:
        simulation.run()
    error = caught.value
    return ((error.current_cycle, error.max_cycles, error.pending_events),
            dict(simulation.orchestrator._activity))


def test_a_budget_inside_a_gap_runs_out_where_the_reference_says():
    first, event = _long_gap()
    budgets = sorted({*range(300, 1400, 7), *range(first, event + 3)})
    inside = [budget for budget in budgets
              if any(start < budget <= end for start, end in _gaps())]
    assert len(inside) > 100
    mismatched = [
        budget for budget in budgets
        if _budget_outcome(False, budget) != _budget_outcome(True, budget)]
    assert mismatched == []


def test_the_event_cycle_is_never_a_budget_edge():
    first, event = _long_gap()
    (cycle, _budget, _pending), activity = _budget_outcome(False, event)
    # The waking event fires in the jump that reaches it: the budget
    # check comes on the cycle after.
    assert cycle == event + 1
    assert activity == _budget_outcome(True, event)[1]


def test_pausing_on_every_cycle_of_a_gap_resumes_to_the_straight_run():
    # The sampler (interval 97) is due twice inside this gap, so the
    # pause and the observation edges meet there too.
    first, event = _long_gap()
    straight = _stats(_simulation(True, sample_interval=97).run())
    dues = range(97, event + 1, 97)
    assert any(first < due <= event for due in dues)
    mismatched = []
    for pause_at in range(first, event + 2):
        paused = _simulation(False, sample_interval=97)
        assert paused.run(pause_at=pause_at) is None
        assert paused.orchestrator.scheduler.current_cycle == pause_at
        resumed = pickle.loads(pickle.dumps(paused))
        if _stats(resumed.run()) != straight:
            mismatched.append(pause_at)
    assert mismatched == []


def test_a_pause_on_the_event_cycle_stops_before_the_event_fires():
    _first, event = _long_gap()
    activities = []
    for reference in (True, False):
        simulation = _simulation(reference)
        assert simulation.run(pause_at=event) is None
        orchestrator = simulation.orchestrator
        assert orchestrator.scheduler.next_event_cycle() == event
        activities.append(dict(orchestrator._activity))
    assert activities[0] == activities[1]


@pytest.mark.parametrize("interval", [45, 97, 180, 401])
def test_an_observer_due_inside_a_gap_sees_the_same_intervals(interval):
    results = _simulation(True, sample_interval=interval).run()
    dues = range(interval, results.cycles, interval)
    assert any(start < due <= end for due in dues for start, end in _gaps())
    kernel = _simulation(False, sample_interval=interval).run()
    assert _stats(kernel) == _stats(results)
