"""Checkpoint/restore: serialize a paused simulation and resume it.

A long campaign should survive preemption.  The approach is whole-state
serialization: a :class:`~repro.coyote.simulation.Simulation` paused at
a cycle boundary (``run(pause_at=N)``) is one self-contained object
graph — harts, functional memory, scheduler queue, MSHRs, scoreboard,
statistics, telemetry builders, miss-trace recorder, fault-injector RNG
— and the orchestrator keeps that graph free of unpicklable members
(no lambdas, no open files), so ``pickle`` captures all of it.  A
resumed run is bit-identical to an uninterrupted one: the differential
test compares final statistics and Paraver traces byte for byte.

The module deliberately imports nothing from ``repro.coyote`` beyond
the errors module: ``repro.coyote.config`` imports this package for
``ResilienceConfig``, so anything heavier here would cycle.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.coyote.errors import SimulationError
from repro.utils.atomic import write_atomically

# Bump when the checkpoint payload layout changes; loads refuse a
# mismatched format instead of failing somewhere inside unpickling.
# 2: the cycle loop persists ``_resume_at`` (no ``_wake_epoch``); a
# translator's block tables are never part of the payload, whatever they
# were called when it was written.  A payload written while the loop
# deferred block retire counts still carries them, its running
# instruction total and each core's own counter, and nothing reads
# them: the retire count is ``hart.instret``.
CHECKPOINT_FORMAT = 2


class CheckpointError(SimulationError):
    """Saving or loading a checkpoint failed."""


class CampaignCorruptError(CheckpointError):
    """A campaign service's journal or snapshot on disk is corrupt
    (mid-file garbage, checksum mismatch, unsupported format).

    Structured so callers can tell *damage* apart from *misuse* (plain
    :class:`CheckpointError`); ``path`` names the offending file.
    """

    def __init__(self, message: str, *, path=None, **details):
        super().__init__(message, **details)
        self.path = path


def save_checkpoint(simulation, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Serialize a paused (or not-yet-started) simulation to ``path``.

    ``metadata`` is an arbitrary JSON-like dict stored alongside the
    state (the CLI records the kernel name, size and core count so a
    later ``--resume`` can rebuild the matching workload for
    verification).  Returns the written path.
    """
    orchestrator = simulation.orchestrator
    if orchestrator._started and not orchestrator.paused:
        raise CheckpointError(
            "only a paused simulation can be checkpointed: call "
            "run(pause_at=...) and check .paused first",
            cycle=orchestrator.scheduler.current_cycle)
    # Code-derived caches — decoded (instruction, executor) pairs and
    # translated block closures — are pure caches, rebuilt on demand;
    # dropping them through the one invalidation hook keeps the
    # checkpoint small and guarantees no compiled code reference can
    # leak into the pickle.
    for core in orchestrator.cores:
        core.hart.drop_code_caches()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "metadata": dict(metadata or {}),
        "cycle": orchestrator.scheduler.current_cycle,
        "simulation": simulation,
    }
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # A stray unpicklable member (e.g. a profiler handle).
        raise CheckpointError(
            f"simulation state is not serialisable: {exc}") from exc
    # A failed or killed save leaves any previous checkpoint intact.
    return write_atomically(Path(path), body)


def load_checkpoint(path: str | Path):
    """Read a checkpoint; returns ``(simulation, metadata)``.

    The returned simulation continues with ``run()`` (optionally with
    another ``pause_at``) exactly where the saved one stopped.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, ImportError,
            AttributeError) as exc:
        raise CheckpointError(
            f"{path} is not a readable checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or "format" not in payload:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if payload["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{path}: checkpoint format {payload['format']} is not "
            f"supported (expected {CHECKPOINT_FORMAT})")
    return payload["simulation"], payload["metadata"]


def restore_simulation(path: str | Path):
    """Convenience wrapper returning just the simulation object."""
    simulation, _metadata = load_checkpoint(path)
    return simulation
