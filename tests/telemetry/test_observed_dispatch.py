"""An observed run dispatches like a plain one.

The interval sampler, the watchdog and the invariant checker each want
to look at exact cycles.  The optimised loop treats the next such cycle
as one more bound of its scheduling kernel: it runs translated blocks
freely up to ``MAX_BLOCK`` cycles before it, one instruction a visit
inside that window, and lets the observers look where the reference
loop does.  These tests pin that contract: the same results document,
time series included, and the same checks on both loops; translated
dispatch survives the sampler; a pause on either side of an observation
resumes into the uninterrupted run.
"""

import pytest

from repro.api import ResilienceConfig, Simulation, SimulationConfig
from repro.kernels import instantiate
from repro.resilience.invariants import InvariantChecker
from repro.resilience.checkpoint import restore_simulation, save_checkpoint
from repro.spike.translate import translator_totals
from repro.telemetry import TelemetryConfig
from tests.coyote.loop_spec import use_loop_spec

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")

# (kernel, cores, size, config overrides)
POINTS = {
    "scalar-matmul-8": ("scalar-matmul", 8, 16, {}),
    "vector-matmul-4": ("vector-matmul", 4, 32, {}),
    "mesh-gather-spmv-16": ("spmv-csr-gather-reduce", 16, 256,
                            {"noc.kind": "mesh"}),
    "scalar-spmv-1-slow-memory": ("scalar-spmv", 1, 16,
                                  {"mem_latency": 2500}),
}


def _simulation(point, reference=False, sample_interval=0,
                invariant_interval=0, watchdog_cycles=0,
                guest_profile=False):
    kernel, cores, size, overrides = POINTS[point]
    workload = instantiate(kernel, num_cores=cores, size=size)
    config = SimulationConfig.for_cores(
        cores,
        telemetry=TelemetryConfig(sample_interval=sample_interval,
                                  guest_profile=guest_profile),
        resilience=ResilienceConfig(invariant_interval=invariant_interval,
                                    watchdog_cycles=watchdog_cycles),
        **overrides)
    simulation = Simulation(config, workload.program)
    use_loop_spec(simulation.orchestrator, reference)
    return simulation


def _document(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


@pytest.mark.parametrize("sample_interval", [7, 1000])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_observed_runs_identical_across_loops(point, sample_interval):
    """Samples, checks and watchdog windows land on the same cycles and
    see the same state on both loops."""
    observed = {}
    for reference in (True, False):
        simulation = _simulation(point, reference, sample_interval,
                                 invariant_interval=500,
                                 watchdog_cycles=50_000)
        document = _document(simulation.run())
        observed[reference] = (document,
                               simulation.orchestrator.invariants.checks_run)
    assert observed[False] == observed[True]
    document, checks_run = observed[True]
    assert document["timeseries"] is not None
    assert checks_run > 0


def test_sampled_run_keeps_its_dispatch_regime():
    """With the sampler on, the 8-core matmul point still runs
    micro-blocks at several instructions a dispatch."""
    kernel, cores, _size, _overrides = POINTS["scalar-matmul-8"]
    workload = instantiate(kernel, num_cores=cores, size=48)
    config = SimulationConfig.for_cores(cores, telemetry=TelemetryConfig(
        sample_interval=1000, guest_profile=True))
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert (results.cycles, results.instructions) == (127_460, 689_504)
    dispatch = translator_totals(
        simulation.orchestrator.translators)["dispatch"]
    assert dispatch["micro"]["dispatches"] > 0
    retired = sum(tally["instructions"] for tally in dispatch.values())
    assert retired / sum(tally["dispatches"]
                         for tally in dispatch.values()) >= 8


@pytest.mark.parametrize("pause_at", [150, 199, 200, 201])
def test_pause_around_an_observation_resumes_identically(pause_at,
                                                         tmp_path):
    """Paused just before, at and just after an observation cycle,
    checkpointed and resumed: the uninterrupted reference run."""
    observers = {"sample_interval": 200, "invariant_interval": 200,
                 "watchdog_cycles": 200}
    oracle = _document(_simulation("scalar-matmul-8", reference=True,
                                   **observers).run())
    simulation = _simulation("scalar-matmul-8", **observers)
    assert simulation.run(pause_at=pause_at) is None
    path = save_checkpoint(simulation, tmp_path / "paused.ckpt")
    assert _document(restore_simulation(path).run()) == oracle


def test_reference_loop_checks_retire_conservation(monkeypatch):
    """Both loops hand the checker their running instruction total, so
    ``retire_conservation`` compares it with the cores' counts."""
    totals = []
    check = InvariantChecker.check

    def spy(checker, raise_on_violation=True, instructions=None):
        totals.append(instructions)
        return check(checker, raise_on_violation, instructions)
    monkeypatch.setattr(InvariantChecker, "check", spy)
    simulation = _simulation("scalar-matmul-8", reference=True,
                             invariant_interval=500)
    results = simulation.run()
    assert len(totals) == simulation.orchestrator.invariants.checks_run > 0
    assert all(isinstance(total, int) for total in totals)
    assert 0 < totals[0] < totals[-1] <= results.instructions
