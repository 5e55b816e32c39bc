"""Checkpoint/restore: the resume-vs-straight differential proof.

Follows the ``tests/coyote/test_differential.py`` pattern: a run paused
at an arbitrary mid-run cycle, checkpointed to disk, reloaded, and
resumed must produce statistics and Paraver traces byte-identical to an
uninterrupted run."""

import hashlib
import json
import pickle
import random

import pytest

from repro import api
from repro.coyote import Simulation, SimulationConfig
from repro.coyote.cli import make_workload
from repro.resilience import (
    CheckpointError,
    FaultSpec,
    ResilienceConfig,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.resilience.checkpoint import CHECKPOINT_FORMAT
from repro.utils.atomic import frame
from tests.resilience.fixtures import DATA, FIXTURES, MATMUL, MATMUL_CHECKED

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")


def _fresh(faults=(), trace=True):
    workload = make_workload("scalar-matmul", cores=4, size=8)
    config = SimulationConfig.for_cores(4, trace_misses=trace)
    if faults:
        config.resilience = ResilienceConfig(faults=list(faults),
                                             fault_seed=42)
    return Simulation(config, workload.program), workload


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


def _prv_bytes(simulation, tmp_path, tag):
    prv, _pcf = simulation.write_trace(tmp_path / f"trace-{tag}")
    return prv.read_bytes()


class TestResumeDifferential:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_resume_matches_straight_run(self, tmp_path, fraction):
        straight, workload = _fresh()
        reference = straight.run()
        pause_at = max(1, int(reference.cycles * fraction))

        paused, workload2 = _fresh()
        assert paused.run(pause_at=pause_at) is None
        assert paused.paused
        path = save_checkpoint(paused, tmp_path / "sim.ckpt",
                               {"kernel": "scalar-matmul"})
        resumed, metadata = load_checkpoint(path)
        assert metadata == {"kernel": "scalar-matmul"}

        results = resumed.run()
        assert _stats(results) == _stats(reference)
        assert _digest(_stats(results)) == _digest(_stats(reference))
        assert workload2.verify(resumed.memory)
        assert _prv_bytes(resumed, tmp_path, "resumed") \
            == _prv_bytes(straight, tmp_path, "straight")

    def test_double_pause_still_identical(self, tmp_path):
        straight, _ = _fresh()
        reference = straight.run()

        simulation, workload = _fresh()
        assert simulation.run(pause_at=reference.cycles // 3) is None
        path = save_checkpoint(simulation, tmp_path / "a.ckpt")
        simulation = restore_simulation(path)
        assert simulation.run(
            pause_at=2 * reference.cycles // 3) is None
        path = save_checkpoint(simulation, tmp_path / "b.ckpt")
        simulation = restore_simulation(path)
        results = simulation.run()
        assert _stats(results) == _stats(reference)
        assert workload.verify(simulation.memory)

    def test_resume_under_fault_injection(self, tmp_path):
        faults = [FaultSpec(target="l2bank", kind="delay", extra=5,
                            jitter=10, probability=0.3),
                  FaultSpec(target="noc", kind="duplicate",
                            probability=0.2)]
        straight, _ = _fresh(faults)
        reference = straight.run()

        paused, workload = _fresh(faults)
        assert paused.run(pause_at=reference.cycles // 2) is None
        path = save_checkpoint(paused, tmp_path / "faulty.ckpt")
        resumed = restore_simulation(path)
        results = resumed.run()
        # The injector's PRNG state travels with the checkpoint, so the
        # resumed fault sequence is the straight run's fault sequence.
        assert _stats(results) == _stats(reference)
        assert workload.verify(resumed.memory)

    def test_pause_before_start_is_resumable(self, tmp_path):
        straight, _ = _fresh()
        reference = straight.run()
        simulation, _ = _fresh()
        assert simulation.run(pause_at=0) is None
        path = save_checkpoint(simulation, tmp_path / "zero.ckpt")
        results = restore_simulation(path).run()
        assert _stats(results) == _stats(reference)

    def test_the_fixture_table_names_every_committed_checkpoint(self):
        assert sorted(fixture.file for fixture in FIXTURES) \
            == sorted(path.name for path in DATA.glob("*.ckpt"))
        for fixture in FIXTURES:
            assert load_checkpoint(fixture.path)[1] == fixture.metadata

    def test_a_committed_checkpoint_resumes(self):
        """Paused with events pending and cores 0 and 3 inside a
        micro-block."""
        simulation, _ = load_checkpoint(MATMUL.path)
        orchestrator = simulation.orchestrator
        cycle = orchestrator.scheduler.current_cycle
        assert cycle == 2161 and orchestrator.scheduler.pending_events
        assert [core_id for core_id, due in enumerate(orchestrator._resume_at)
                if due > cycle] == [0, 3]
        _assert_resumes_like_a_straight_run(MATMUL.path)

    def test_a_committed_checkpoint_with_checks_resumes(self):
        """The pickled invariant checker and watchdog come back, and the
        checker still has a check due."""
        simulation, _ = load_checkpoint(MATMUL_CHECKED.path)
        checker = simulation.orchestrator.invariants
        assert checker.checks_run == 8
        assert checker.due < 2679  # the run's last cycle
        resumed = _assert_resumes_like_a_straight_run(
            MATMUL_CHECKED.path,
            resilience=ResilienceConfig(invariant_interval=250,
                                        watchdog_cycles=50000))
        assert resumed.simulation.orchestrator.invariants.checks_run == 9

    def test_code_derived_state_is_not_pickled(self):
        """A pickled registry carries its code pages but neither the
        decoded words nor the block plans, and a checkpoint's harts
        share their machine's registry."""
        paused, _ = _fresh()
        assert paused.run(pause_at=1001) is None
        registry = paused.orchestrator.machine.code_registry
        assert registry.decoded and registry.plans
        copy = pickle.loads(pickle.dumps(registry))
        assert (copy.decoded, copy.plans) == ({}, {})
        assert copy.pages == registry.pages
        simulation, _ = load_checkpoint(MATMUL.path)
        machine = simulation.orchestrator.machine
        assert all(hart.code_registry is machine.code_registry
                   for hart in machine.harts)
        assert (machine.code_registry.decoded,
                machine.code_registry.plans) == ({}, {})


def _assert_resumes_like_a_straight_run(path, **overrides):
    reference = api.run("scalar-matmul", 4, size=8, **overrides).results
    resumed = api.replay(path)
    assert resumed.verified
    results = resumed.results
    assert results.cycles == reference.cycles
    assert results.instructions == reference.instructions
    assert results.cores == reference.cores
    assert results.hierarchy_samples == reference.hierarchy_samples
    assert results.exit_codes == reference.exit_codes
    assert _stats(results) == _stats(reference)
    return resumed


class TestCheckpointErrors:
    def test_completed_simulation_refuses_checkpoint(self, tmp_path):
        simulation, _ = _fresh()
        simulation.run()
        with pytest.raises(CheckpointError, match="paused"):
            save_checkpoint(simulation, tmp_path / "late.ckpt")

    def test_a_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        straight, _ = _fresh()
        reference = straight.run()
        simulation, workload = _fresh()
        assert simulation.run(pause_at=reference.cycles // 2) is None
        path = save_checkpoint(simulation, tmp_path / "sim.ckpt")
        simulation.unpicklable = lambda: None
        with pytest.raises(CheckpointError, match="not serialisable"):
            save_checkpoint(simulation, path)
        assert [entry.name for entry in tmp_path.iterdir()] == ["sim.ckpt"]
        resumed = restore_simulation(path)
        assert _stats(resumed.run()) == _stats(reference)
        assert workload.verify(resumed.memory)

    def test_unstarted_simulation_checkpoints(self, tmp_path):
        simulation, workload = _fresh()
        path = save_checkpoint(simulation, tmp_path / "cold.ckpt")
        results = restore_simulation(path).run()
        assert results is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("damage",
                             ["text", "truncated", "changed", "random"])
    def test_garbage_file(self, tmp_path, damage):
        """Text, or seeded damage to a committed checkpoint: cut short,
        five bytes changed, or replaced by random bytes.  Each copy is a
        CheckpointError, never a raw exception or a resume."""
        rng = random.Random(1)
        original = MATMUL.path.read_bytes()
        path = tmp_path / "garbage.ckpt"
        for _ in range(100):
            if damage == "text":
                data = b"not a pickle at all"
            elif damage == "truncated":
                data = original[:rng.randrange(len(original))]
            elif damage == "changed":
                data = bytearray(original)
                for position in rng.sample(range(len(data)), 5):
                    data[position] ^= rng.randrange(1, 256)
            else:
                data = rng.randbytes(rng.randrange(1, len(original)))
            path.write_bytes(data)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_a_changed_byte_fails_the_checksum(self, tmp_path):
        data = bytearray(MATMUL.path.read_bytes())
        data[-1] ^= 1
        path = tmp_path / "flipped.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match="failed its checksum"):
            load_checkpoint(path)

    def test_wrong_payload_shape(self, tmp_path):
        path = tmp_path / "shape.ckpt"
        path.write_bytes(pickle.dumps(["not", "a", "checkpoint"]))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        body = pickle.dumps({"metadata": {}, "simulation": None})
        path.write_bytes(frame(b"coyote-checkpoint", 999, body) + body)
        with pytest.raises(
                CheckpointError,
                match=rf"format 999 is not supported "
                      rf"\(expected {CHECKPOINT_FORMAT}\)"):
            load_checkpoint(path)
