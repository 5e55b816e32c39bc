"""The point-worker pool, and the sweep tier of the campaign executor.

Coyote exists for "the fast comparison of different designs", but a
cartesian campaign run serially leaves every host core but one idle.
Two layers live here (docs/RESILIENCE.md, "How a sweep point is
executed"):

* :class:`PointPool` — the worker-process *mechanics* under every
  campaign tier: start attempts, turn pipe traffic into beat / result /
  died events, and the one SIGTERM → grace → SIGKILL teardown.
* :class:`ParallelSweep` — ``Sweep.run`` as a tier of the one campaign
  loop (:class:`repro.service.service.CampaignExecutor`): the sweep is
  one job submitted to a job store whose journal has no file, its
  recipe is any callable, its results stay on the store's records, and
  its :class:`SweepTable` is assembled from the settled store exactly
  as a service job's is — so a ``workers=N`` table is bit-identical to
  a ``workers=1`` table, and both to the same campaign run through
  ``repro.api.submit`` or a cluster.  Supervision (deadlines, retries,
  quarantine, the degradation ladder) is the executor's, not this
  module's.

Design decisions, in the order they matter:

* **Determinism.**  Every worker rebuilds its point's full
  configuration (seeded fault injection, telemetry, watchdog) from the
  same ``base + settings`` recipe as in-process execution — the shared
  :func:`~repro.coyote.sweep.run_point` — and the table is assembled
  in point-index order, never completion order.  Retry backoff jitter
  is seeded (policy seed × point index × attempt), never drawn from
  wall time.
* **Crash isolation.**  A worker runs its job's points one at a time;
  one that dies hard (segfault, ``os._exit``, OOM-kill) loses the point
  in flight only: the pool reports the exit code and the captured
  stderr tail, recorded as a :class:`WorkerCrash` failure like any
  other ``on_error="skip"`` failure.
* **Compile once.**  A forked worker sends the blocks it compiled
  back beside each result, and :meth:`PointPool.poll` installs them
  before reporting it — so the next worker forked inherits them, and a
  campaign compiles each block once per worker, not once per point.
  Only over the pool's own pipe; never under ``spawn``.
* **Error transport.**  A worker-side exception crosses the process
  boundary only if it survives a local pickle round-trip; otherwise a
  picklable :class:`RemoteError` stand-in carries the original type
  name and message, so failure records stay identical either way.
* **Warm-start.**  ``campaign_path`` names a directory: a
  :class:`CampaignDirectory` in the result cache's own format, keyed by
  :func:`~repro.service.cache.point_key`.  Every settled point —
  quarantined ones included — is written there as it settles, and a
  restarted (or interrupted, or repeated) sweep is served those as
  cache hits and only runs the rest.
* **Progress.**  ``progress=True`` streams ``k/n points, ETA`` through
  :class:`~repro.telemetry.campaign.CampaignProgress`; the executor
  reports into a :class:`~repro.telemetry.campaign.CampaignMetrics`
  (heartbeat gauges, retry/quarantine counters, per-attempt Chrome
  trace spans).
"""

from __future__ import annotations

import contextlib
import gc
import io
import multiprocessing
import operator
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from pathlib import Path
from typing import Any, Callable

from repro.coyote.errors import SimulationError
from repro.coyote.sweep import Sweep, SweepPoint, SweepTable, run_point
from repro.resilience import supervisor as supervision
from repro.resilience.checkpoint import CheckpointError
from repro.resilience.supervisor import SupervisorPolicy
from repro.service.cache import ResultCache
from repro.service.journal import Journal
from repro.service.store import JobStore
from repro.spike import translate
from repro.telemetry.campaign import CampaignProgress

# How long the parent sleeps in connection.wait when nothing is ready.
_WAIT_SECONDS = 0.05


class WorkerCrash(SimulationError):
    """A sweep worker process died without reporting a result.

    ``exit_code`` and ``stderr_tail`` (the last ~2 KB the worker wrote
    to stderr) ride along as structured details so crash points are
    diagnosable from the failure record alone.
    """


class RemoteError(SimulationError):
    """Stand-in for a worker exception that could not cross the
    process boundary; ``kind`` preserves the original type name."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def __reduce__(self):
        return (RemoteError, (self.kind, str(self.args[0])))


def _portable_error(error: Exception | None) -> Exception | None:
    """The error itself if it survives pickling, else a RemoteError."""
    if error is None:
        return None
    try:
        pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    except Exception:
        return RemoteError(type(error).__name__, str(error))
    return error


def _worker_main(conn, index: int, settings: dict[str, Any],
                 base_cores: int, base_overrides: dict[str, Any],
                 make_workload: Callable, require_verified: bool,
                 heartbeat_seconds: float = 0.0,
                 stderr_path: str | None = None,
                 close_fds: tuple = (), forked: bool = False) -> None:
    """Run points of one recipe in a child process and ship each
    outcome back: the first point comes with the arguments, each next
    ``(index, settings, stderr_path)`` over the pipe, and EOF ends the
    worker.

    The child's stderr (fd 2) is redirected to each point's
    ``stderr_path`` first, so whatever a dying worker manages to print —
    a traceback, an allocator complaint — is recoverable by the parent,
    and is that attempt's alone.  With
    ``heartbeat_seconds > 0`` a daemon thread streams ``("hb", index,
    cycles, rss_mb)`` tuples over the same pipe the result travels on
    while a point runs, the first as it starts; a lock keeps the two
    senders from interleaving a message.

    ``close_fds`` are descriptors a forked child inherited and must
    not keep: flock follows the open file, not the process, so an
    orphan left behind by a SIGKILLed service would otherwise keep the
    service root locked — and a restarted service locked out — until
    the orphan happened to die.

    A ``forked`` child also ships the translated blocks it compiled
    since its last result on each result message, so the parent can
    hand them to the next child it forks; what the parent compiled
    before the fork is the parent's already.
    """
    translate._COMPILED.clear()
    gc.freeze()   # a full collection here walks this worker's heap only
    if hasattr(signal, "pthread_sigmask"):
        # Undo the mask PointPool.spawn held across our creation.
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass

    def redirect(path: str) -> None:
        with contextlib.suppress(OSError):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
            os.dup2(fd, 2)
            os.close(fd)

    if stderr_path is not None:
        redirect(stderr_path)
        # Rebind sys.stderr onto the redirected fd 2: a forked child
        # inherits the parent's stderr *object*, which may not write
        # through fd 2 at all (a test harness capture, a logging shim)
        # — and writing into a parent-owned buffer from the child is
        # wrong either way.
        sys.stderr = io.TextIOWrapper(
            io.FileIO(2, "w", closefd=False), line_buffering=True)
    send_lock = threading.Lock()
    busy, ended = threading.Event(), threading.Event()
    probe: dict[str, Any] = {"simulation": None}

    def send_beat() -> None:
        simulation = probe["simulation"]
        cycles = (simulation.orchestrator.scheduler.current_cycle
                  if simulation is not None else 0)
        if not supervision.heartbeats_suppressed():
            conn.send(("hb", index, cycles, supervision.worker_rss_mb()))

    def beat() -> None:
        # Waits on ``busy`` between points: an idle worker beats nothing.
        while busy.wait():
            if not ended.wait(heartbeat_seconds):
                with send_lock:
                    if busy.is_set():
                        send_beat()

    if heartbeat_seconds > 0:
        threading.Thread(target=beat, daemon=True,
                         name="coyote-heartbeat").start()

    def observe(simulation) -> None:
        probe["simulation"] = simulation

    while True:
        probe["simulation"] = None
        if heartbeat_seconds > 0:
            ended.clear()
            busy.set()
            with send_lock:
                send_beat()
        try:
            point = run_point(settings, base_cores, base_overrides,
                              make_workload, require_verified,
                              on_simulation=observe)
            point.error = _portable_error(point.error)
        except BaseException as exc:  # run_point never raises
            point = SweepPoint(settings, None, False, _portable_error(exc))
        busy.clear()
        ended.set()
        blocks = translate.export_factories() if forked else None
        try:
            with send_lock:
                conn.send(("result", index, point, blocks))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # Results themselves must be picklable (the checkpoint
            # subsystem guarantees it); if something slipped through,
            # degrade to a failure record rather than losing the slot.
            with send_lock:
                conn.send(("result", index, SweepPoint(
                    settings, None, False,
                    RemoteError(type(exc).__name__,
                                f"sweep point result was not picklable: "
                                f"{exc}")), blocks))
        try:
            index, settings, stderr_path = conn.recv()
        except (EOFError, OSError):
            return
        redirect(stderr_path)


@contextlib.contextmanager
def _sigint_held():
    """Hold SIGINT until the block exits.

    A ``KeyboardInterrupt`` that fires inside ``os.fork``'s at-fork
    hooks is swallowed as "unraisable": the campaign would run on as
    if never interrupted.  Delivered after the block, it propagates.
    """
    if not hasattr(signal, "pthread_sigmask"):   # non-POSIX
        yield
        return
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@dataclass(eq=False)
class PointWorker:
    """Parent-side handle of one attempt of one point.

    ``context`` is the owner's per-attempt record (the executor's
    lease, a cluster node's grant); the pool never looks inside it.
    """

    process: Any
    conn: Any
    index: int
    settings: dict[str, Any]
    stderr_path: str | None
    context: Any
    started: float
    last_beat: float
    beats: list = field(default_factory=list)   # [(cycles, rss_mb)]
    blocks: int = 0   # translated blocks its result carried back
    recipe: tuple = ()
    fresh: bool = True   # this attempt started its process


class PointPool:
    """The worker-process mechanics under every campaign tier.

    :meth:`spawn` starts an attempt on the idle worker forked for the
    same recipe objects (the same job), else on a new process, retiring
    an idle one first.  :meth:`poll` turns what the workers sent or
    suffered into events, :meth:`reap` is the single teardown (SIGTERM →
    ``term_grace_seconds`` → SIGKILL, pipe closed, stderr tail
    harvested, temp file removed), :meth:`retire` reaps the idle workers
    and :meth:`close` all.  Which point runs next, what a death costs it
    and where its result goes is the caller's policy: the campaign
    executor (under every sweep, service and dispatcher) and
    ``ClusterNode`` are the loops over these events.

    Uses the ``fork`` start method where the platform offers it, else
    ``spawn`` — which needs a picklable workload factory
    (:func:`repro.kernels.workload_factory`, or any module-level
    function).
    """

    def __init__(self, mp_context: str | None = None, *,
                 heartbeat_seconds: float = 0.0,
                 term_grace_seconds: float = 2.0):
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(mp_context)
        self.heartbeat_seconds = heartbeat_seconds
        self.term_grace_seconds = term_grace_seconds
        # Descriptors a forked worker must drop (see _worker_main).
        self.close_fds: tuple = ()
        # Test seam: called with each PointWorker right after it
        # starts (chaos tests SIGKILL/SIGSTOP workers here).
        self.on_spawn: Callable[[PointWorker], None] | None = None
        self._workers: dict[Any, PointWorker] = {}
        # Each idle process's last attempt, oldest first.
        self._idle: list[PointWorker] = []

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> list[PointWorker]:
        """The in-flight attempts, oldest first."""
        return list(self._workers.values())

    def spawn(self, index: int, settings: dict[str, Any],
              base_cores: int, base_overrides: dict[str, Any],
              make_workload: Callable, require_verified: bool = True,
              context: Any = None) -> PointWorker:
        """Start one attempt running ``run_point`` on this recipe;
        raises ``OSError`` (nothing left behind) when the host cannot
        start another process."""
        recipe = (base_cores, base_overrides, make_workload,
                  require_verified)
        worker = (self._reuse(index, settings, recipe, context)
                  or self._fork(index, settings, recipe, context))
        if self.on_spawn is not None:
            self.on_spawn(worker)
        return worker

    def _reuse(self, index: int, settings: dict[str, Any], recipe: tuple,
               context: Any) -> PointWorker | None:
        """Hand the point to an idle worker of ``recipe``, if any."""
        for idle in self._idle:
            if all(map(operator.is_, idle.recipe, recipe)):
                fd, stderr_path = tempfile.mkstemp(prefix="coyote-point-",
                                                   suffix=".stderr")
                os.close(fd)
                try:
                    idle.conn.send((index, settings, stderr_path))
                except OSError:     # it died while idle
                    os.unlink(stderr_path)
                    self.reap(idle)
                    return None
                self._idle.remove(idle)
                now = time.monotonic()
                worker = PointWorker(idle.process, idle.conn, index,
                                     settings, stderr_path, context,
                                     now, now, recipe=recipe, fresh=False)
                self._workers[worker.conn] = worker
                return worker
        if self._idle:   # another recipe needs the slot
            self.reap(self._idle[0])
        return None

    def _fork(self, index: int, settings: dict[str, Any], recipe: tuple,
              context: Any) -> PointWorker:
        parent_conn, child_conn = self._context.Pipe()
        fd, stderr_path = tempfile.mkstemp(prefix="coyote-point-",
                                           suffix=".stderr")
        os.close(fd)
        # Only fork children inherit our descriptors and translated blocks
        # (spawn starts fresh: its fd numbers mean other files).  Our
        # pipe ends go too: a worker must see EOF once this process is
        # gone, not wait on its own or a sibling's copy.
        forked = self._context.get_start_method() == "fork"
        ends = (*self._workers, *(w.conn for w in self._idle), parent_conn)
        close_fds = (self.close_fds + tuple(end.fileno() for end in ends)
                     if forked else ())
        with _sigint_held():
            try:
                process = self._context.Process(
                    target=_worker_main,
                    args=(child_conn, index, settings, *recipe,
                          self.heartbeat_seconds, stderr_path, close_fds,
                          forked),
                    daemon=True)
                process.start()
            except BaseException:
                parent_conn.close()
                os.unlink(stderr_path)
                raise
            finally:
                child_conn.close()
            now = time.monotonic()
            worker = PointWorker(process, parent_conn, index, settings,
                                 stderr_path, context, now, now,
                                 recipe=recipe)
            self._workers[parent_conn] = worker
        return worker

    def poll(self, timeout: float = _WAIT_SECONDS) -> list[tuple]:
        """Wait up to ``timeout`` for worker traffic; returns events:

        * ``("beat", worker, cycles, rss_mb)`` — a heartbeat (also
          folded into ``worker.last_beat`` / ``worker.beats``);
        * ``("result", worker, point)`` — the point's
          :class:`SweepPoint`; the attempt is over, its process idle;
        * ``("died", worker, exit_code, stderr_tail)`` — the pipe hit
          EOF (or a reset) with no result; the worker is already reaped.
        """
        if not self._workers:
            return []
        events: list[tuple] = []
        for conn in connection.wait(list(self._workers), timeout):
            worker = self._workers[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                tail = self.reap(worker)
                events.append(("died", worker, worker.process.exitcode,
                               tail))
                continue
            if message[0] == "hb":
                _tag, _index, cycles, rss_mb = message
                worker.last_beat = time.monotonic()
                worker.beats.append((cycles, rss_mb))
                del worker.beats[:-supervision.HEARTBEAT_TRAIL]
                events.append(("beat", worker, cycles, rss_mb))
            else:
                _tag, _index, point, blocks = message
                del self._workers[conn]
                self._idle.append(worker)
                with contextlib.suppress(OSError):   # an idle worker
                    os.unlink(worker.stderr_path)    # holds no file
                if blocks is not None:
                    # Before the event: the next child forked inherits.
                    worker.blocks = translate.import_factories(blocks)
                events.append(("result", worker, point))
        return events

    def reap(self, worker: PointWorker) -> str:
        """Ensure the worker's process is dead, its pipe closed and its
        stderr file harvested and removed; returns the stderr tail.  A
        no-op returning ``""`` for an attempt whose process is already
        reaped or has moved on to a later attempt."""
        if worker in self._idle:
            self._idle.remove(worker)
        elif self._workers.get(worker.conn) is worker:
            del self._workers[worker.conn]
        else:
            return ""
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(self.term_grace_seconds)
            if process.is_alive():
                process.kill()
        process.join()
        try:
            worker.conn.close()
        except OSError:
            pass
        tail = supervision.read_stderr_tail(worker.stderr_path)
        with contextlib.suppress(OSError):
            os.unlink(worker.stderr_path)
        return tail

    def retire(self) -> None:
        """Reap every idle worker."""
        for worker in list(self._idle):
            self.reap(worker)

    def close(self) -> None:
        """Reap every worker, in flight or idle (idempotent)."""
        for worker in self.workers:
            self.reap(worker)
        self.retire()


class CampaignDirectory(ResultCache):
    """One sweep's own progress record (``campaign_path=``, CLI
    ``--campaign DIR``): the result cache's entries under the result
    cache's keys, but *every* settled point is kept — failures and
    quarantine records included — so a restarted sweep recomputes none
    of them."""

    def storable(self, point: SweepPoint) -> bool:
        return True

    def put(self, key: str, point: SweepPoint) -> bool:
        # An in-process failure may hold an exception that would not
        # unpickle; keep the stand-in a pool worker would have sent.
        return super().put(key, replace(
            point, error=_portable_error(point.error)))


class ParallelSweep:
    """``Sweep.run`` as a tier of the campaign executor.

    ``workers=1`` executes in-process (no fork overhead, but also no
    crash isolation); ``workers=N`` runs at most N worker processes at
    a time, each taking the sweep's points one after another.  ``on_error="skip"`` records failures and
    carries on; ``"raise"`` terminates every outstanding worker at the
    first observed failure and re-raises — prompt, but which failing
    point surfaces first is completion-order dependent, so deterministic
    campaigns should prefer ``"skip"``.

    A supervised ``policy`` always uses the worker pool (even for
    ``workers=1``): timeouts and reaping need process isolation.
    """

    def __init__(self, sweep: Sweep, *, workers: int = 1,
                 on_error: str = "raise", require_verified: bool = True,
                 progress: bool = False, campaign_path=None,
                 mp_context: str | None = None,
                 policy: SupervisorPolicy | None = None):
        from repro.service.service import CampaignExecutor
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if campaign_path is not None and Path(campaign_path).is_file():
            raise CheckpointError(
                f"{campaign_path} is a campaign file from an older "
                f"version; campaign_path is now a directory of per-point "
                f"results — pass a directory (a new one recomputes the "
                f"points)")
        self.sweep = sweep
        self.workers = workers
        self.on_error = on_error
        self.require_verified = require_verified
        self.progress = progress
        self.campaign_path = campaign_path
        self.policy = policy if policy is not None else SupervisorPolicy()
        supervised = self.policy.supervised
        self.executor = CampaignExecutor(
            JobStore(Journal(), max_queue=sys.maxsize, compact_every=0),
            (CampaignDirectory(campaign_path)
             if campaign_path is not None else None),
            # workers=1 without supervision needs no isolation: it
            # starts where the degradation ladder ends.
            slots=workers if workers > 1 or supervised else 0,
            retry=self.policy.retry if supervised else None,
            policy=self.policy,
            heartbeat_seconds=self.policy.heartbeat_interval_seconds,
            recipe_for=operator.itemgetter("recipe"),
            mp_context=mp_context)
        self.pool = self.executor.pool
        self.monitor = self.executor.monitor

    def run(self, make_workload: Callable) -> SweepTable:
        started = time.perf_counter()
        executor = self.executor
        points = self.sweep.points()
        reporter = CampaignProgress(len(points)) if self.progress else None

        def settled(point: SweepPoint) -> None:
            if reporter is not None:
                reporter.point_completed(point.settings,
                                         failed=point.failed)
            if point.failed and self.on_error == "raise":
                raise point.error

        executor.on_settle = settled
        job = executor.store.submit(
            f"sweep-{len(executor.store.jobs)}",
            {"axes": self.sweep.axes,
             "recipe": (self.sweep.base_cores, self.sweep.base_overrides,
                        make_workload, self.require_verified)},
            points)
        try:
            table = executor.result(job, wait=True)
        except BaseException:
            # on_error="raise", SIGINT, or any unexpected parent-side
            # error.  What settled is already in the campaign
            # directory; a later run() must not pick the rest up.
            executor.store.cancel(job)
            raise
        finally:
            # Don't leave orphan simulations burning the host.
            self.pool.close()
        table.workers = self.workers
        table.wall_seconds = time.perf_counter() - started
        return table
