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

import hashlib
import os
import pickle
from pathlib import Path

from repro.coyote.errors import SimulationError

# Bump when the checkpoint payload layout changes; loads refuse a
# mismatched format instead of failing somewhere inside unpickling.
# 2: the cycle loop persists ``_resume_at`` + ``_credit`` (no
# ``_wake_epoch``) and translators always carry ``ufast``.
CHECKPOINT_FORMAT = 2


class CheckpointError(SimulationError):
    """Saving or loading a checkpoint failed."""


class CampaignCorruptError(CheckpointError):
    """A campaign file on disk is corrupt (truncated, unreadable
    pickle, or checksum mismatch).

    Structured so callers can tell *damage* apart from *misuse* (axes
    mismatch, unsupported format — plain :class:`CheckpointError`):
    the parallel engine treats a corrupt checkpoint as a cold start
    with a warning, while refusing to guess about a mismatched one.
    ``path`` names the offending file.
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
    path = Path(path)
    try:
        with path.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # A stray unpicklable member (e.g. a profiler handle) — remove
        # the partial file so a truncated checkpoint can't be resumed.
        path.unlink(missing_ok=True)
        raise CheckpointError(
            f"simulation state is not serialisable: {exc}") from exc
    return path


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


# -- campaign checkpoints ----------------------------------------------------
#
# A design-space sweep is a campaign of independent simulations; its
# checkpoint is simply the set of completed points.  The parallel sweep
# engine appends each finished point here, so a preempted overnight
# campaign warm-starts from what it already computed instead of
# recomputing the survivors alongside the stragglers.

CAMPAIGN_FORMAT = 2

# Campaign files are a one-line header followed by the pickled
# payload: b"coyote-campaign 2 <sha256-of-payload>\n" + pickle bytes.
# The checksum turns silent on-disk corruption (a flipped bit, a
# truncated tail that still unpickles) into a structured
# CampaignCorruptError instead of a wrong-but-loadable campaign.
_CAMPAIGN_MAGIC = b"coyote-campaign"


def save_campaign(path: str | Path, axes_key: str,
                  completed: dict) -> Path:
    """Atomically persist the completed points of a sweep campaign.

    ``axes_key`` is a canonical description of the sweep's axes; loads
    refuse a campaign file recorded for different axes.  The write goes
    through a temporary file and ``os.replace`` so a crash mid-write
    can never leave a truncated campaign behind, and the payload is
    sha256-checksummed so corruption is detected on load.
    """
    path = Path(path)
    payload = {
        "format": CAMPAIGN_FORMAT,
        "axes_key": axes_key,
        "completed": completed,
    }
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise CheckpointError(
            f"campaign state is not serialisable: {exc}") from exc
    digest = hashlib.sha256(body).hexdigest()
    header = b"%s %d %s\n" % (_CAMPAIGN_MAGIC, CAMPAIGN_FORMAT,
                              digest.encode("ascii"))
    scratch = path.with_name(path.name + ".tmp")
    with scratch.open("wb") as handle:
        handle.write(header)
        handle.write(body)
    os.replace(scratch, path)
    return path


def load_campaign(path: str | Path, axes_key: str) -> dict:
    """Read the completed points of a campaign ({} when none exists).

    Raises :class:`CampaignCorruptError` for a damaged file (truncation,
    unreadable pickle, checksum mismatch) and plain
    :class:`CheckpointError` for misuse (unsupported format, a campaign
    recorded for different axes) — resuming the wrong campaign silently
    would be worse than recomputing.
    """
    path = Path(path)
    if not path.exists():
        return {}
    with path.open("rb") as handle:
        header = handle.readline(256)
        parts = header.split()
        if len(parts) != 3 or parts[0] != _CAMPAIGN_MAGIC:
            # Never unpickle bytes no checksum vouches for.
            raise CampaignCorruptError(
                f"{path} has no campaign header", path=path)
        try:
            version = int(parts[1])
        except ValueError:
            raise CampaignCorruptError(
                f"{path} has a mangled campaign header", path=path)
        if version != CAMPAIGN_FORMAT:
            raise CheckpointError(
                f"{path}: campaign format {version} is not supported "
                f"(expected {CAMPAIGN_FORMAT})")
        body = handle.read()
    digest = hashlib.sha256(body).hexdigest()
    if digest.encode("ascii") != parts[2]:
        raise CampaignCorruptError(
            f"{path} failed its checksum (campaign file is corrupt "
            f"or truncated)", path=path)
    try:
        payload = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, ImportError,
            AttributeError, IndexError) as exc:
        raise CampaignCorruptError(
            f"{path} is not a readable campaign file: {exc}",
            path=path) from exc
    return _validate_campaign(path, payload, axes_key)


def _validate_campaign(path: Path, payload, axes_key: str) -> dict:
    if not isinstance(payload, dict) or "axes_key" not in payload:
        raise CampaignCorruptError(
            f"{path} is not a campaign file", path=path)
    if payload["axes_key"] != axes_key:
        raise CheckpointError(
            f"{path} was recorded for a different sweep "
            f"(axes {payload['axes_key']}, expected {axes_key})")
    return payload["completed"]
