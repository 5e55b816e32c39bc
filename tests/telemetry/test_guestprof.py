"""Guest-profiler tests: conservation, attribution, zero-cost hooks.

The central property (ISSUE 6): on every profiled run, each core's CPI
stack sums *exactly* to the run's total cycles, the stall classes
cross-check against the orchestrator's own stall counters, and
enabling profiling leaves the simulated outcome bit-identical.
"""

import hashlib
import json

import pytest

from repro.api import Simulation, SimulationConfig, run
from repro.kernels import instantiate
from repro.telemetry import TelemetryConfig
from repro.telemetry.guestprof import (
    CPI_CLASSES,
    CpiStack,
    GuestProfiler,
    ProfileError,
)
from repro.telemetry.profile_report import (
    PROFILE_SCHEMA,
    profile_document,
    render_annotated,
    render_flat,
)

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")


def _profiled_run(kernel, cores, size, **overrides):
    workload = instantiate(kernel, num_cores=cores, size=size)
    config = SimulationConfig.for_cores(
        workload.num_cores,
        telemetry=TelemetryConfig(guest_profile=True), **overrides)
    simulation = Simulation(config, workload.program)
    return simulation, simulation.run()


def _digest(results) -> str:
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


# -- the conservation property --------------------------------------------


@pytest.mark.parametrize("cores", [1, 2, 4, 8])
@pytest.mark.parametrize("kernel,size", [
    ("scalar-matmul", 6),
    ("scalar-spmv", 8),
    ("vector-matmul", 6),
    ("stream-triad", 16),
    ("histogram", 16),
])
def test_cpi_stack_conserves_cycles(kernel, size, cores):
    _sim, results = _profiled_run(kernel, cores, size)
    profile = results.guest_profile
    assert profile is not None
    assert len(profile.stacks) == cores
    for stack in profile.stacks:
        assert set(stack.classes) == set(CPI_CLASSES)
        assert sum(stack.classes.values()) == results.cycles
        assert all(value >= 0 for value in stack.classes.values())
        stack.check()  # the same invariant, via the public checker
    aggregate = profile.aggregate()
    assert aggregate.cycles == results.cycles * cores
    assert sum(aggregate.classes.values()) == aggregate.cycles


@pytest.mark.parametrize("kernel,size", [("scalar-matmul", 6),
                                         ("scalar-spmv", 8)])
def test_stall_classes_match_orchestrator_counters(kernel, size):
    _sim, results = _profiled_run(kernel, 4, size)
    for core_stats, stack in zip(results.cores,
                                 results.guest_profile.stacks):
        classes = stack.classes
        assert (classes["raw_l2"] + classes["raw_mem"]
                + classes["raw_other"]) == core_stats.raw_stall_cycles
        assert (classes["fetch_l2"] + classes["fetch_mem"]
                + classes["fetch_other"]) \
            == core_stats.fetch_stall_cycles
        assert (classes["retired"] + classes["retired_vector"]) \
            == core_stats.instructions


def test_retired_vector_separated():
    _sim, results = _profiled_run("vector-matmul", 2, 6)
    aggregate = results.guest_profile.aggregate()
    assert aggregate.classes["retired_vector"] > 0
    assert aggregate.classes["retired"] > 0


# -- digest identity -------------------------------------------------------


@pytest.mark.parametrize("kernel,cores,size", [
    ("scalar-matmul", 8, 6),
    ("scalar-spmv", 2, 8),
    ("vector-matmul", 2, 6),
])
def test_profiling_leaves_digest_identical(kernel, cores, size):
    workload = instantiate(kernel, num_cores=cores, size=size)
    plain = Simulation(SimulationConfig.for_cores(workload.num_cores),
                       workload.program)
    plain_digest = _digest(plain.run())
    _sim, profiled = _profiled_run(kernel, cores, size)
    assert _digest(profiled) == plain_digest


# -- hot blocks and miss attribution ---------------------------------------


def test_hot_blocks_cover_all_instructions():
    _sim, results = _profiled_run("scalar-spmv", 4, 10)
    profile = results.guest_profile
    assert profile.blocks
    assert sum(block.instructions
               for block in profile.blocks) == results.instructions
    # Sorted hottest-first, block bounds sane.
    counts = [block.instructions for block in profile.blocks]
    assert counts == sorted(counts, reverse=True)
    for block in profile.blocks:
        assert block.start_pc <= block.end_pc
    # The hottest blocks carry disassembly annotation.
    top = profile.top_blocks(1)[0]
    assert top.disassembly
    assert any(";" in line for line in top.disassembly)


def test_per_pc_and_per_line_misses_match_l1_counters():
    _sim, results = _profiled_run("scalar-spmv", 2, 10)
    profile = results.guest_profile
    assert profile.pc_misses
    submitted = sum(events["loads"] + events["stores"]
                    + events["ifetches"]
                    for events in profile.pc_misses.values())
    l1 = sum(core.l1d.misses + core.l1i.misses
             for core in results.cores)
    # Every L1 miss is attributed to a PC exactly once.
    assert submitted == l1
    assert sum(profile.line_misses.values()) == l1
    # Stall cycles attributed per PC sum to the stall classes.
    attributed = sum(events["stall_cycles"]
                     for events in profile.pc_misses.values())
    aggregate = profile.aggregate().classes
    assert attributed == sum(aggregate[name] for name in
                             ("raw_l2", "raw_mem", "raw_other",
                              "fetch_l2", "fetch_mem", "fetch_other"))


def test_stat_samples_and_reports_render():
    _sim, results = _profiled_run("scalar-matmul", 2, 6)
    profile = results.guest_profile
    samples = profile.samples()
    assert any(sample.path == "guestprof.core0" for sample in samples)
    assert "retired" in profile.stat_report()
    flat = render_flat(profile, top=3, per_core=True)
    assert "CPI stack" in flat and "hot blocks" in flat
    assert "core 1" in flat
    annotated = render_annotated(profile, top=2)
    assert "block #1" in annotated
    document = profile_document(profile, kernel="scalar-matmul",
                                cores=2, verified=True)
    assert document["schema"] == PROFILE_SCHEMA
    json.dumps(document)  # JSON-serialisable end to end


def test_results_to_dict_embeds_profile():
    _sim, results = _profiled_run("scalar-matmul", 2, 6)
    data = results.to_dict()
    assert data["guest_profile"]["cycles"] == results.cycles
    assert data["guest_profile"]["hot_blocks"]


# -- export through the facade ---------------------------------------------


def test_api_run_profile_kwarg():
    outcome = run("scalar-matmul", cores=2, size=6, profile=True)
    assert outcome.succeeded
    assert outcome.guest_profile is not None
    for stack in outcome.guest_profile.stacks:
        stack.check()


def test_api_run_profile_does_not_mutate_caller_config():
    config = SimulationConfig.for_cores(2)
    outcome = run("scalar-matmul", cores=2, size=6, config=config,
                  profile=True)
    assert outcome.guest_profile is not None
    assert config.telemetry.guest_profile is False


def test_api_run_without_profile_has_none():
    outcome = run("scalar-matmul", cores=2, size=6)
    assert outcome.guest_profile is None


# -- zero-cost-when-disabled contract ---------------------------------------


def test_disabled_profiling_attaches_no_hooks():
    workload = instantiate("scalar-matmul", num_cores=2, size=6)
    simulation = Simulation(SimulationConfig.for_cores(2),
                            workload.program)
    assert simulation.orchestrator._guestprof is None
    assert all(core.profile is None
               for core in simulation.orchestrator.cores)


def test_enabled_profiling_attaches_per_core_hooks():
    workload = instantiate("scalar-matmul", num_cores=2, size=6)
    config = SimulationConfig.for_cores(
        2, telemetry=TelemetryConfig(guest_profile=True))
    simulation = Simulation(config, workload.program)
    guestprof = simulation.orchestrator._guestprof
    assert guestprof is not None
    for core, profile in zip(simulation.orchestrator.cores,
                             guestprof.cores):
        assert core.profile is profile


# -- chrome counter tracks ---------------------------------------------------


def test_chrome_counter_tracks_emitted():
    workload = instantiate("scalar-spmv", num_cores=2, size=8)
    config = SimulationConfig.for_cores(
        2, telemetry=TelemetryConfig(guest_profile=True,
                                     chrome_trace=True))
    simulation = Simulation(config, workload.program)
    simulation.run()
    events = simulation.telemetry.chrome.events
    counters = [event for event in events if event["ph"] == "C"]
    assert counters
    assert any(event["name"] == "core0 stall cycles"
               for event in counters)
    sample = counters[-1]["args"]
    assert set(sample) == {"raw_l2", "raw_mem", "raw_other",
                           "fetch_l2", "fetch_mem", "fetch_other"}


# -- checkpoint/restore ------------------------------------------------------


def test_profile_survives_checkpoint_roundtrip():
    import pickle

    workload = instantiate("scalar-spmv", num_cores=2, size=8)
    config = SimulationConfig.for_cores(
        2, telemetry=TelemetryConfig(guest_profile=True))
    simulation = Simulation(config, workload.program)
    assert simulation.run(pause_at=200) is None
    restored = pickle.loads(pickle.dumps(simulation))
    results = restored.run()
    profile = results.guest_profile
    for stack in profile.stacks:
        stack.check()
    # Matches an uninterrupted profiled run bit-for-bit.
    _sim, uninterrupted = _profiled_run("scalar-spmv", 2, 8)
    assert profile.to_dict() == \
        uninterrupted.guest_profile.to_dict()


# -- the integrity checker itself -------------------------------------------


def test_cpi_stack_check_raises_on_imbalance():
    stack = CpiStack(core_id=0, cycles=100,
                     classes=dict.fromkeys(CPI_CLASSES, 0))
    with pytest.raises(ProfileError):
        stack.check()


def test_finalize_cross_checks_stall_accounting():
    class FakeState:
        raw_stall_cycles = 7
        fetch_stall_cycles = 0
        halt_cycle = None

    profiler = GuestProfiler(num_cores=1)
    # The profiler saw no stalls but the orchestrator counted 7.
    with pytest.raises(ProfileError):
        profiler.finalize(10, [FakeState()])
