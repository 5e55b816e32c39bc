"""The one front door to the Coyote reproduction.

Every supported entry point — running one simulation, sweeping a design
space (serially or across a worker pool), replaying a checkpoint,
building a configuration — is importable from here, and so is every
public type:

>>> from repro.api import run, sweep
>>> outcome = run("scalar-matmul", cores=4, size=8)
>>> outcome.succeeded
True
>>> table = sweep("scalar-matmul", cores=4, size=8,
...               axes={"l2_mode": ["shared", "private"]}, workers=2)
>>> len(table.points)
2

This module is the one import path of every public name; anything it
does not export is imported from the module that defines it.  The
stability contract (public vs internal, the migration table from
historical spellings) is documented in ``docs/API.md`` and enforced in
CI by ``python -m repro.tools.check_api``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.coyote.config import ConfigBuilder, SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.parallel import ParallelSweep, RemoteError, WorkerCrash
from repro.coyote.simulation import RunOutcome, Simulation, run_workload
from repro.coyote.stats import CoreStats, SimulationResults
from repro.coyote.sweep import (
    Sweep,
    SweepError,
    SweepPoint,
    SweepTable,
)
from repro.kernels import KERNELS, instantiate, workload_factory
from repro.memhier.noc import NocConfig, RoutingPolicy
from repro.resilience.checkpoint import (
    CampaignCorruptError,
    CheckpointError,
    load_checkpoint,
    restore_simulation,
    save_checkpoint,
)
from repro.resilience.config import FaultSpec, ResilienceConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.supervisor import (
    AttemptRecord,
    DegradationEvent,
    QuarantinedPoint,
    RetryPolicy,
    SupervisorPolicy,
)
from repro.resilience.locking import CampaignLockError
from repro.resilience.watchdog import DeadlockError
from repro.service.cache import ResultCache
from repro.service.cluster import ClusterDispatcher, ClusterNode
from repro.service.service import (
    CampaignService,
    assemble_result,
    build_spec,
    new_job_id,
    readonly_store,
    spec_points,
    spool_cancel,
    spool_submission,
)
from repro.service.store import (
    JobNotFoundError,
    JobStatus,
    QueueFullError,
    ServiceError,
    StaleWriteError,
)
from repro.service.transport import ServiceFaultPlan, ServiceFaultSpec
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.guestprof import CpiStack, GuestProfile, HotBlock

__all__ = [
    # entry points
    "run",
    "sweep",
    "replay",
    # the durable campaign service
    "submit",
    "status",
    "result",
    "cancel",
    "CampaignService",
    "JobStatus",
    "ServiceError",
    "QueueFullError",
    "JobNotFoundError",
    "CampaignCorruptError",
    "CampaignLockError",
    # the multi-node cluster tier
    "ClusterDispatcher",
    "ClusterNode",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "StaleWriteError",
    # simulation
    "Simulation",
    "SimulationConfig",
    "NocConfig",
    "RoutingPolicy",
    "ConfigBuilder",
    "SimulationResults",
    "CoreStats",
    "RunOutcome",
    # sweeping
    "Sweep",
    "ParallelSweep",
    "SweepPoint",
    "SweepTable",
    "SweepError",
    "WorkerCrash",
    "RemoteError",
    # supervised campaign runtime
    "SupervisorPolicy",
    "RetryPolicy",
    "QuarantinedPoint",
    "AttemptRecord",
    "DegradationEvent",
    # guest-side performance introspection
    "GuestProfile",
    "CpiStack",
    "HotBlock",
    # configuration of the optional subsystems
    "TelemetryConfig",
    "ResilienceConfig",
    "FaultSpec",
    "FaultPlan",
    # checkpoints
    "save_checkpoint",
    "load_checkpoint",
    "restore_simulation",
    # errors
    "SimulationError",
    "DeadlockError",
    "CheckpointError",
]


def run(kernel, cores: int = 8, *, size: int | None = None,
        config: SimulationConfig | None = None,
        pause_at: int | None = None, profile: bool = False,
        **overrides) -> RunOutcome:
    """Run one kernel end-to-end and verify its output.

    ``kernel`` is a name from :data:`repro.kernels.KERNELS`, a built
    workload object, or a zero-argument workload factory.  ``config``
    supplies a full :class:`SimulationConfig` (a named kernel is then
    built for its ``num_cores``); otherwise one is built as
    ``SimulationConfig.for_cores(cores, **overrides)``.  With
    ``pause_at`` the simulation stops at that cycle for checkpointing
    (a paused outcome has ``results`` and ``verified`` ``None``).
    ``profile=True`` switches on the guest profiler; the finished
    :class:`GuestProfile` is ``outcome.guest_profile`` and the
    simulated outcome is bit-identical to an unprofiled run.

    The trace-compiled ISS fast path is on by default; pass
    ``translate=False`` (a ``SimulationConfig`` field, so also a
    keyword override here) to run the plain interpreter instead.  The
    two produce bit-identical simulated outcomes — the switch only
    trades host speed for debuggability.
    """
    if config is None:
        config = SimulationConfig.for_cores(cores, **overrides)
    elif overrides:
        raise ValueError(
            f"pass either a full config or keyword overrides, not both "
            f"(got overrides {sorted(overrides)})")
    if profile and not config.telemetry.guest_profile:
        # Copy-on-enable: never mutate a caller-owned config.
        config = replace(config, telemetry=replace(
            config.telemetry, guest_profile=True))
    workload = kernel
    if isinstance(kernel, str):
        workload = instantiate(kernel, config.num_cores, size)
    elif callable(kernel) and not hasattr(kernel, "program"):
        workload = kernel()
    return run_workload(config, workload, pause_at=pause_at)


def sweep(kernel, cores: int = 8, *, axes: dict[str, list],
          size: int | None = None, workers: int = 1,
          on_error: str = "raise", require_verified: bool = True,
          progress: bool = False, campaign_path=None,
          policy: SupervisorPolicy | None = None,
          **base_overrides) -> SweepTable:
    """Sweep configuration axes for one kernel; returns the table.

    The cartesian product of ``axes`` is simulated — in-process for
    ``workers=1``, fanned out to a worker pool for ``workers=N`` with
    bit-identical results — and every extra keyword is applied to each
    point's base configuration.  ``kernel`` accepts the same spellings
    as :func:`run`, plus a factory taking the point's settings dict.

    ``policy`` (a :class:`SupervisorPolicy`) opts the campaign into the
    supervised lifecycle: worker heartbeats, a per-point wall-clock
    timeout, an RSS ceiling, bounded retries with seeded backoff, and
    quarantine (:class:`QuarantinedPoint`) of points that exhaust them;
    repeated pool-level failures degrade the worker count gracefully
    (``table.degradations``) instead of aborting the campaign.

    ``campaign_path`` names a directory that keeps every settled point
    (the result cache's format and keys): a rerun — after an interrupt
    or a crash, or simply again — is served those as cache hits and
    simulates only the rest.
    """
    if isinstance(kernel, str):
        make_workload = workload_factory(kernel, cores, size)
    else:
        make_workload = kernel if callable(kernel) else lambda: kernel
    return Sweep(base_cores=cores, axes=axes, **base_overrides).run(
        make_workload, require_verified=require_verified,
        on_error=on_error, workers=workers, progress=progress,
        campaign_path=campaign_path, policy=policy)


def replay(checkpoint: str | Path, *,
           pause_at: int | None = None) -> RunOutcome:
    """Resume a checkpoint and run it to completion.

    When the checkpoint's metadata records the kernel (the CLI writes
    ``kernel``/``cores``/``size``), the finished output is verified
    against the rebuilt workload; otherwise ``verified`` is ``None``.
    """
    simulation, metadata = load_checkpoint(checkpoint)
    workload = None
    if metadata.get("kernel") in KERNELS:
        workload = instantiate(
            metadata["kernel"],
            metadata.get("cores", simulation.config.num_cores),
            metadata.get("size"))
    return run_workload(simulation, workload, pause_at=pause_at)


# -- the durable campaign service (docs/RESILIENCE.md) ----------------------
#
# submit/status/result/cancel are the async counterpart of sweep():
# a campaign is enqueued against a service *root* directory and executed
# by whichever process runs ``coyote-sim serve --root <root>`` — possibly
# this one (``result(..., wait=True)`` runs the queue itself when no
# server holds the lock).  State is crash-consistent (journal + snapshot)
# and results are served from the content-addressed cache, bit-identical
# to an in-process ``sweep()`` of the same campaign.


def submit(kernel: str, *, root: str | Path, axes: dict[str, list],
           cores: int = 8, size: int | None = None,
           require_verified: bool = True, job_id: str | None = None,
           **overrides) -> str:
    """Enqueue a sweep campaign with the service at ``root``.

    Returns the job id (pass it to :func:`status` / :func:`result` /
    :func:`cancel`).  When no server holds the root's lock the
    submission is journaled directly and the bounded queue is enforced
    here (:class:`QueueFullError`); when a server is live the
    submission is spooled into its inbox (the server enforces the bound
    at ingestion — a rejected job shows up as ``<job>.rejected``).
    """
    spec = build_spec(kernel, axes, cores=cores, size=size,
                      require_verified=require_verified, **overrides)
    try:
        with CampaignService(root) as service:
            job_id = job_id or new_job_id()
            service._submit(job_id, spec, spec_points(spec))
            return job_id
    except CampaignLockError:
        return spool_submission(root, spec, job_id)


def status(job_id: str, *, root: str | Path) -> JobStatus:
    """The job's queue-state summary, read lock-free.

    A submission still spooled in the inbox reports state
    ``"spooled"``; one the bounded queue rejected raises
    :class:`QueueFullError`.
    """
    root = Path(root)
    store = readonly_store(root)
    try:
        return store.status(job_id)
    except JobNotFoundError:
        spooled = root / "inbox" / f"{job_id}.json"
        if spooled.exists():
            points = len(spec_points(
                json.loads(spooled.read_text())["spec"]))
            return JobStatus(job_id=job_id, state="spooled",
                             total=points, pending=points)
        if (root / "inbox" / f"{job_id}.rejected").exists():
            raise QueueFullError(
                f"{job_id} was rejected by the service's bounded "
                f"queue (see {root / 'inbox'}/{job_id}.rejected)"
            ) from None
        raise


def result(job_id: str, *, root: str | Path, wait: bool = False,
           workers: int = 1) -> SweepTable:
    """The completed job's :class:`SweepTable`.

    Lock-free when the job is already complete and its cache entries
    are healthy.  ``wait=True`` takes the service lock and runs the
    queue in this process until the job finishes (including
    recomputing any corrupt cache entry); without it, an incomplete
    job or a corrupt entry raises :class:`ServiceError` with the
    recovery instruction.
    """
    if wait:
        with CampaignService(root, workers=workers) as service:
            return service.result(job_id, wait=True)
    root = Path(root)
    store = readonly_store(root)
    job_status = store.status(job_id)
    if not job_status.complete:
        raise ServiceError(
            f"{job_id} is not complete ({job_status.pending} pending, "
            f"{job_status.leased} leased of {job_status.total}); poll "
            f"status() or call result(wait=True)")
    table, corrupt = assemble_result(store, ResultCache(root / "cache"),
                                     job_id)
    if corrupt:
        raise ServiceError(
            f"{len(corrupt)} cached result(s) for {job_id} were "
            f"corrupt; they were quarantined aside — recompute with "
            f"result(wait=True) or `coyote-sim serve`")
    return table


def cancel(job_id: str, *, root: str | Path) -> JobStatus:
    """Cancel a job's remaining points; returns the latest status.

    Journals the cancel directly when no server holds the lock,
    otherwise leaves a cancel marker the live server applies on its
    next inbox sweep.
    """
    try:
        with CampaignService(root) as service:
            return service.cancel(job_id)
    except CampaignLockError:
        spool_cancel(root, job_id)
        return status(job_id, root=root)
