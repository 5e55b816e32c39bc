"""Fault injection: determinism, functional correctness, plan loading."""

import hashlib
import json

import pytest

from repro.api import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    Simulation,
    SimulationConfig,
)
from repro.kernels import instantiate
from tests.coyote.loop_spec import use_loop_spec

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")

TIMING_FAULTS = [
    FaultSpec(target="l2bank", kind="delay", extra=5, jitter=10,
              probability=0.3),
    FaultSpec(target="memctrl", kind="blackout", start=500, end=900),
    FaultSpec(target="noc", kind="duplicate", probability=0.2),
]


def _run(seed, faults, *, reference=False):
    workload = instantiate("scalar-matmul", num_cores=4, size=8)
    config = SimulationConfig.for_cores(4)
    config.resilience = ResilienceConfig(
        faults=[FaultSpec(**vars(spec)) for spec in faults],
        fault_seed=seed)
    simulation = Simulation(config, workload.program)
    use_loop_spec(simulation.orchestrator, reference)
    results = simulation.run()
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return simulation, workload, data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


class TestDeterminism:
    def test_same_seed_same_plan_bit_identical(self):
        _, _, first = _run(42, TIMING_FAULTS)
        _, _, second = _run(42, TIMING_FAULTS)
        assert _digest(first) == _digest(second)

    def test_different_seed_changes_timing(self):
        _, _, first = _run(42, TIMING_FAULTS)
        _, _, second = _run(43, TIMING_FAULTS)
        assert _digest(first) != _digest(second)

    def test_both_cycle_loops_agree_under_faults(self):
        _, _, fast = _run(42, TIMING_FAULTS, reference=False)
        _, _, ref = _run(42, TIMING_FAULTS, reference=True)
        assert fast == ref


class TestFunctionalCorrectness:
    def test_timing_faults_never_corrupt_results(self):
        for seed in (1, 2, 3):
            simulation, workload, data = _run(seed, TIMING_FAULTS)
            assert workload.verify(simulation.memory), \
                f"seed {seed} corrupted the functional result"
            assert simulation.results.succeeded()

    def test_faults_actually_fired(self):
        simulation, _, _ = _run(42, TIMING_FAULTS)
        injector = simulation.orchestrator.fault_injector
        values = {sample.name: sample.value
                  for sample in injector.stats.samples()}
        assert values["faults_delayed"] > 0
        assert values["fault_delay_cycles"] > 0
        assert values["faults_duplicated"] > 0
        assert values["faults_blacked_out"] > 0
        assert values["faults_dropped"] == 0

    def test_faults_perturb_timing_vs_baseline(self):
        _, _, faulty = _run(42, TIMING_FAULTS)
        _, _, clean = _run(42, [])
        assert faulty["cycles"] > clean["cycles"]

    def test_duplicate_fills_are_tolerated_and_counted(self):
        faults = [FaultSpec(target="noc", kind="duplicate",
                            probability=1.0)]
        simulation, workload, _ = _run(42, faults)
        assert workload.verify(simulation.memory)
        banks = simulation.orchestrator.hierarchy.all_cache_banks()
        assert all(bank.tolerate_spurious_fills for bank in banks)
        spurious = sum(bank._stat_spurious.value for bank in banks)
        assert spurious > 0

    def test_no_injector_without_faults(self):
        simulation, _, _ = _run(42, [])
        assert simulation.orchestrator.fault_injector is None
        assert simulation.orchestrator.hierarchy.noc.fault_hook is None


class TestFaultPlanLoading:
    def test_round_trip(self, tmp_path):
        document = {"seed": 7, "faults": [
            {"target": "l2bank", "kind": "delay", "extra": 3},
            {"target": "memctrl", "index": 1, "kind": "blackout",
             "start": 10, "end": 20},
        ]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        plan = FaultPlan.load(path)
        assert plan.seed == 7
        assert [spec.target for spec in plan.faults] \
            == ["l2bank", "memctrl"]
        assert plan.faults[1].index == 1
        saved = FaultPlan.load(plan.save(tmp_path / "copy.json"))
        assert saved == plan

    def test_plan_without_seed(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"faults": []}')
        plan = FaultPlan.load(path)
        assert plan.faults == [] and plan.seed is None

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="faults"):
            FaultPlan.load(path)

    def test_rejects_bad_seed(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"seed": -1, "faults": []}')
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.load(path)

    def test_apply_installs_faults_and_seed(self):
        plan = FaultPlan(faults=[FaultSpec(target="l2bank",
                                           kind="delay", extra=3)],
                         seed=11)
        resilience = ResilienceConfig(fault_seed=99)
        plan.apply(resilience)
        assert resilience.faults == plan.faults
        assert resilience.fault_seed == 11

    def test_apply_preserves_config_seed_when_unpinned(self):
        plan = FaultPlan(faults=[])
        resilience = ResilienceConfig(fault_seed=99)
        plan.apply(resilience)
        assert resilience.fault_seed == 99


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(target="l2bank", kind="scramble").validate()

    def test_rejects_unknown_target(self):
        with pytest.raises(ValueError):
            FaultSpec(target="l1", kind="delay").validate()

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultSpec(target="noc", kind="delay",
                      probability=1.5).validate()

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            FaultSpec(target="noc", kind="delay", start=100,
                      end=50).validate()
