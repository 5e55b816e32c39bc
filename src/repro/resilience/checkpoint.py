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

The pickled payload is framed (:mod:`repro.utils.atomic`), so a load
checks :data:`CHECKPOINT_FORMAT` and the digest before it unpickles
anything.

The module deliberately imports nothing from ``repro.coyote`` beyond
the errors module: ``repro.coyote.config`` imports this package for
``ResilienceConfig``, so anything heavier here would cycle.
"""

from __future__ import annotations

import pickle
import pickletools
from pathlib import Path

from repro.coyote.errors import SimulationError
from repro.utils.atomic import FrameError, frame, read_framed, write_atomically

# A change to the pickled layout of anything in the payload bumps the
# format, and no class ever upgrades an old layout: a file of another
# format is refused whole.  3: the file is framed (formats 1 and 2 were
# a bare pickle).
CHECKPOINT_FORMAT = 3
_MAGIC = b"coyote-checkpoint"


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
    return write_atomically(Path(path),
                            frame(_MAGIC, CHECKPOINT_FORMAT, body), body)


def load_checkpoint(path: str | Path):
    """Read a checkpoint; returns ``(simulation, metadata)``.

    The returned simulation continues with ``run()`` (optionally with
    another ``pause_at``) exactly where the saved one stopped.
    """
    path = Path(path)
    try:
        _format, body = read_framed(path, _MAGIC, (CHECKPOINT_FORMAT,))
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except FrameError as exc:
        if exc.format is not None:   # another format, or damaged
            raise CheckpointError(str(exc)) from None
        version = _bare_format(path)
        if version is None:
            raise CheckpointError(f"{path} is not a checkpoint file") from None
        raise CheckpointError(
            f"{path}: checkpoint format {version} is not supported "
            f"(expected {CHECKPOINT_FORMAT})") from None
    try:
        payload = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, ImportError,
            AttributeError) as exc:
        raise CheckpointError(
            f"{path} is not a readable checkpoint: {exc}") from exc
    return payload["simulation"], payload["metadata"]


def _bare_format(path: Path) -> int | None:
    """The format of a file from before checkpoints were framed (1 or
    2): a bare pickled dict whose first key is ``"format"``.  Read from
    the pickle's opcodes, so none of its classes is imported."""
    with path.open("rb") as handle:
        head = handle.read(64)
    args = []
    try:
        for opcode, arg, _position in pickletools.genops(head):
            if arg is not None and opcode.name not in ("PROTO", "FRAME"):
                args.append(arg)
                if len(args) == 2:
                    break
    except ValueError:   # not a pickle
        return None
    if (args[:1] == ["format"] and type(args[-1]) is int
            and 0 < args[-1] < CHECKPOINT_FORMAT):
        return args[-1]
    return None


def restore_simulation(path: str | Path):
    """Convenience wrapper returning just the simulation object."""
    simulation, _metadata = load_checkpoint(path)
    return simulation
