"""Checkpoint/restore: the resume-vs-straight differential proof.

Follows the ``tests/coyote/test_differential.py`` pattern: a run paused
at an arbitrary mid-run cycle, checkpointed to disk, reloaded, and
resumed must produce statistics and Paraver traces byte-identical to an
uninterrupted run."""

import hashlib
import json
import pickle
from pathlib import Path

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
from repro.spike.translate import SHAPES, BlockTranslator

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")
# Written by ``coyote-sim --kernel scalar-matmul --cores 4 --size 8
# --pause-at 2161 --checkpoint-out ...`` while the cycle loop still kept
# deferred retire credits and a running instruction total, and scheduler
# entries still carried a priority.
_FORMAT_2_FIXTURE = Path(__file__).parent / "data" \
    / "scalar-matmul-c4-s8-pause2161.ckpt"
# The same point by the same code, with ``--watchdog 50000
# --check-invariants 250`` added.
_FORMAT_2_CHECKED_FIXTURE = Path(__file__).parent / "data" \
    / "scalar-matmul-c4-s8-inv250-pause2161.ckpt"


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

    def test_a_checkpoint_with_the_translators_old_tables_resumes(
            self, tmp_path, monkeypatch):
        """Format 2 as it was written while ``BlockTranslator`` kept a
        checked and an unchecked table per micro-block: five emptied
        dicts under names that are gone (``_bounds`` then mapped a pc,
        not a shape)."""
        straight, _ = _fresh()
        reference = straight.run()
        paused, workload = _fresh()
        assert paused.run(pause_at=reference.cycles // 2) is None

        def old_state(translator):
            kept = {name: vars(translator)[name]
                    for name in ("core", "machine", "_exit", "_enabled")}
            return dict(kept, cache={}, ucache={}, ufast={}, _bounds={},
                        _ubounds={})
        monkeypatch.setattr(BlockTranslator, "__getstate__", old_state)
        path = save_checkpoint(paused, tmp_path / "old.ckpt")
        monkeypatch.undo()

        resumed = restore_simulation(path)
        for translator in resumed.orchestrator.translators:
            assert set(translator.blocks) == set(translator._bounds) \
                == set(SHAPES)
            assert not hasattr(translator, "ucache")
        results = resumed.run()
        assert _stats(results) == _stats(reference)
        assert workload.verify(resumed.memory)


    def test_a_checkpoint_with_the_sorted_active_list_resumes(
            self, tmp_path):
        """Format 2 as it was written while the orchestrator mirrored
        ``_active_set`` in a sorted ``_active_list``: the attribute is
        carried along and nothing reads it."""
        straight, _ = _fresh()
        reference = straight.run()
        paused, workload = _fresh()
        assert paused.run(pause_at=reference.cycles // 2) is None
        orchestrator = paused.orchestrator
        assert not hasattr(orchestrator, "_active_list")
        orchestrator._active_list = sorted(orchestrator._active_set)
        path = save_checkpoint(paused, tmp_path / "listed.ckpt")

        resumed = restore_simulation(path)
        results = resumed.run()
        assert _stats(results) == _stats(reference)
        assert workload.verify(resumed.memory)


    def test_a_committed_format_2_checkpoint_resumes(self):
        """Paused with events pending and cores 0 and 3 inside a
        micro-block; the attributes nothing reads any more ride along."""
        simulation, metadata = load_checkpoint(_FORMAT_2_FIXTURE)
        assert metadata["kernel"] == "scalar-matmul"
        orchestrator = simulation.orchestrator
        cycle = orchestrator.scheduler.current_cycle
        assert cycle == 2161 and orchestrator.scheduler.pending_events
        assert [core_id for core_id, due in enumerate(orchestrator._resume_at)
                if due > cycle] == [0, 3]
        assert {"_credit", "_instructions_total"} <= set(vars(orchestrator))
        _assert_resumes_like_a_straight_run(_FORMAT_2_FIXTURE)

    def test_a_committed_format_2_checkpoint_with_checks_resumes(self):
        """The pickled invariant checker and watchdog come back as the
        older code wrote them, and the checker still has a check due."""
        simulation, _ = load_checkpoint(_FORMAT_2_CHECKED_FIXTURE)
        checker = simulation.orchestrator.invariants
        assert checker.checks_run == 8
        assert checker.due < 2679  # the run's last cycle
        resumed = _assert_resumes_like_a_straight_run(
            _FORMAT_2_CHECKED_FIXTURE,
            resilience=ResilienceConfig(invariant_interval=250,
                                        watchdog_cycles=50000))
        assert resumed.simulation.orchestrator.invariants.checks_run == 9

    def test_code_derived_state_is_not_pickled(self):
        """A pickled registry carries its code pages but neither the
        decoded words nor the block plans; a format-2 hart's emptied
        per-hart decode cache rides along unread."""
        paused, _ = _fresh()
        assert paused.run(pause_at=1001) is None
        registry = paused.orchestrator.machine.code_registry
        assert registry.decoded and registry.plans
        copy = pickle.loads(pickle.dumps(registry))
        assert (copy.decoded, copy.plans) == ({}, {})
        assert copy.pages == registry.pages
        simulation, _ = load_checkpoint(_FORMAT_2_FIXTURE)
        machine = simulation.orchestrator.machine
        assert all(hart.code_registry is machine.code_registry
                   and vars(hart)["_decode_cache"] == {}
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

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_payload_shape(self, tmp_path):
        path = tmp_path / "shape.ckpt"
        path.write_bytes(pickle.dumps(["not", "a", "checkpoint"]))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, tmp_path):
        path = tmp_path / "future.ckpt"
        path.write_bytes(pickle.dumps({"format": 999, "metadata": {},
                                       "simulation": None}))
        with pytest.raises(CheckpointError, match="format 999"):
            load_checkpoint(path)
