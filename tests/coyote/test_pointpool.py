"""PointPool: the one process-per-point mechanism under every tier.

Driven directly, without a sweep or a service on top: the three event
kinds, the single SIGTERM → grace → SIGKILL teardown, inherited-fd
closing, ``close()`` idempotence, a held SIGINT across the fork — and
the two regressions the unified pool fixes: the campaign tiers work
under the ``spawn`` start method (their workload factory pickles), and
a sweep torn down by ``on_error="raise"`` escalates past a SIGSTOPped
worker instead of joining it forever.
"""

import multiprocessing
import os
import signal
import sys
import tempfile
import time

import pytest

from repro import api
from repro.coyote.parallel import ParallelSweep, PointPool
from repro.coyote.sweep import Sweep, call_workload_factory
from repro.kernels import vector_axpy, workload_factory
from repro.resilience.supervisor import SupervisorPolicy
from repro.service.service import CampaignService

CORES = 2
RECIPE = (CORES, {})   # base_cores, base_overrides
METRICS = ("cycles", "instructions", "l1d_miss_rate")

# Set in the parent before a fork; the forked factory reads it.
PROBE = {"fd": None, "ready": None}


def healthy():
    return vector_axpy(length=32, num_cores=CORES)


def crasher():
    print("boom: allocator exploded", file=sys.stderr, flush=True)
    os._exit(9)


def sleeper():
    time.sleep(60)
    return healthy()


def term_ignorer():
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    open(PROBE["ready"], "w").close()
    time.sleep(60)
    return healthy()


def fd_prober():
    """Exit 42 when the probed descriptor is still open in the child."""
    try:
        os.fstat(PROBE["fd"])
    except OSError:
        return healthy()
    os._exit(42)


@pytest.fixture
def stderr_dir(tmp_path, monkeypatch):
    """Route the pool's stderr temp files somewhere we can count."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.fixture
def pool():
    pool = PointPool(term_grace_seconds=0.3)
    yield pool
    pool.close()


def leftovers(directory):
    return sorted(directory.glob("coyote-*.stderr"))


def drain(pool, timeout=60.0):
    """Poll until the pool is empty; returns every event seen."""
    events = []
    deadline = time.monotonic() + timeout
    while pool and time.monotonic() < deadline:
        events.extend(pool.poll(0.05))
    assert not pool, "pool did not drain within the timeout"
    return events


class TestEvents:
    def test_result_event_and_worker_already_reaped(self, pool,
                                                    stderr_dir):
        worker = pool.spawn(3, {"noc.latency": 2}, *RECIPE, healthy,
                            context="mine")
        assert len(pool) == 1 and pool.workers == [worker]
        assert len(leftovers(stderr_dir)) == 1
        (kind, seen, point), = drain(pool)
        assert kind == "result" and seen is worker
        assert (worker.index, worker.context) == (3, "mine")
        assert not point.failed and point.settings == {"noc.latency": 2}
        assert not worker.process.is_alive()
        assert worker.stderr_path is None
        assert leftovers(stderr_dir) == []

    def test_beats_are_reported_and_folded_into_the_worker(self):
        pool = PointPool(heartbeat_seconds=0.02)
        try:
            worker = pool.spawn(0, {}, *RECIPE, healthy)
            events = drain(pool)
        finally:
            pool.close()
        beats = [event for event in events if event[0] == "beat"]
        assert beats  # one fires at worker start-up
        _kind, seen, cycles, rss_mb = beats[0]
        assert seen is worker and cycles >= 0 and rss_mb > 0
        assert worker.beats[:1] == [(cycles, rss_mb)]
        assert worker.last_beat >= worker.started
        assert events[-1][0] == "result"

    def test_died_event_carries_exit_code_and_stderr_tail(self, pool,
                                                          stderr_dir):
        worker = pool.spawn(0, {}, *RECIPE, crasher)
        (kind, seen, exit_code, tail), = drain(pool)
        assert kind == "died" and seen is worker
        assert exit_code == 9
        assert "allocator exploded" in tail
        assert leftovers(stderr_dir) == []

    def test_on_spawn_seam_sees_each_worker(self, pool):
        seen = []
        pool.on_spawn = seen.append
        worker = pool.spawn(0, {}, *RECIPE, healthy)
        assert seen == [worker]


class TestTeardown:
    def test_reap_escalates_past_a_term_ignoring_child(
            self, pool, stderr_dir, tmp_path):
        PROBE["ready"] = str(tmp_path / "ready")
        worker = pool.spawn(0, {}, *RECIPE, term_ignorer)
        deadline = time.monotonic() + 30
        while not os.path.exists(PROBE["ready"]):
            assert time.monotonic() < deadline, "child never got ready"
            time.sleep(0.01)
        started = time.monotonic()
        pool.reap(worker)
        elapsed = time.monotonic() - started
        assert pool.term_grace_seconds <= elapsed < 5.0
        assert worker.process.exitcode == -signal.SIGKILL
        assert not pool and leftovers(stderr_dir) == []
        assert pool.reap(worker) == ""  # a second reap is a no-op

    def test_close_reaps_everything_and_is_idempotent(self, pool,
                                                      stderr_dir):
        workers = [pool.spawn(index, {}, *RECIPE, sleeper)
                   for index in range(2)]
        pool.close()
        assert not pool
        assert not any(worker.process.is_alive() for worker in workers)
        assert leftovers(stderr_dir) == []
        pool.close()

    def test_failed_spawn_leaves_nothing_behind(self, pool, stderr_dir,
                                                monkeypatch):
        def no_fork(self):
            raise OSError("fork: Resource temporarily unavailable")

        monkeypatch.setattr(pool._context.Process, "start", no_fork)
        with pytest.raises(OSError, match="temporarily unavailable"):
            pool.spawn(0, {}, *RECIPE, healthy)
        assert not pool and leftovers(stderr_dir) == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="descriptor inheritance is a fork-only concern")
class TestInheritedFds:
    def test_close_fds_are_dropped_in_the_forked_worker(self, tmp_path):
        handle = open(tmp_path / "lock", "w")
        PROBE["fd"] = handle.fileno()
        pool = PointPool("fork")
        try:
            pool.spawn(0, {}, *RECIPE, fd_prober)
            (kind, _worker, exit_code, _tail), = drain(pool)
            assert (kind, exit_code) == ("died", 42)  # inherited, open
            pool.close_fds = (handle.fileno(),)
            pool.spawn(0, {}, *RECIPE, fd_prober)
            (kind, _worker, point), = drain(pool)
            assert kind == "result" and not point.failed
            os.fstat(handle.fileno())  # the parent's copy is untouched
        finally:
            pool.close()
            handle.close()


# A SIGINT that fires inside fork's at-fork hooks is swallowed as
# "unraisable".  Hooks cannot be unregistered, so this one is inert
# unless a test arms it.
_INTERRUPT_IN_FORK = {"armed": False}


def _interrupt_parent_after_fork():
    if _INTERRUPT_IN_FORK["armed"]:
        _INTERRUPT_IN_FORK["armed"] = False
        os.kill(os.getpid(), signal.SIGINT)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_interrupt_parent_after_fork)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="at-fork hooks only run under fork")
class TestSigintAcrossFork:
    def test_sigint_during_fork_is_delivered_not_swallowed(self,
                                                           stderr_dir):
        pool = PointPool("fork", term_grace_seconds=0.3)
        _INTERRUPT_IN_FORK["armed"] = True
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.spawn(0, {}, *RECIPE, sleeper)
                time.sleep(5)  # only reached if the SIGINT was lost
            # The worker was registered before the interrupt surfaced,
            # so the ordinary teardown finds it.
            assert len(pool) == 1
        finally:
            _INTERRUPT_IN_FORK["armed"] = False
            pool.close()
        assert leftovers(stderr_dir) == []


class TestSpawnStartMethod:
    """The tiers' workload factory must cross a ``spawn`` boundary."""

    def test_helper_factory_is_picklable_and_zero_argument(self):
        import pickle
        factory = pickle.loads(pickle.dumps(
            workload_factory("vector-axpy", CORES, 64)))
        # It must not swallow the point's settings as an argument.
        workload = call_workload_factory(factory, {"noc.latency": 2})
        assert workload.program is not None

    def test_service_drains_a_job_under_spawn(self, tmp_path):
        with CampaignService(tmp_path / "root",
                             mp_context="spawn") as service:
            job = service.submit("vector-axpy", {"noc.latency": [2]},
                                 cores=CORES, size=64)
            assert service.run() == 1
            table = service.result(job)
        reference = api.sweep("vector-axpy", CORES, size=64,
                              axes={"noc.latency": [2]})
        assert table.to_dict(METRICS) == reference.to_dict(METRICS)

    def test_parallel_sweep_runs_under_spawn(self):
        sweep = Sweep(base_cores=CORES, axes={"noc.latency": [2, 6]})
        factory = workload_factory("vector-axpy", CORES, 64)
        table = ParallelSweep(sweep, workers=2,
                              mp_context="spawn").run(factory)
        serial = sweep.run(factory, workers=1)
        assert not any(point.failed for point in table.points)
        assert table.to_dict(METRICS) == serial.to_dict(METRICS)


STOP, FAIL = 31, 33


def stop_or_fail_factory(settings):
    if settings["noc.latency"] == STOP:
        os.kill(os.getpid(), signal.SIGSTOP)
    if settings["noc.latency"] == FAIL:
        time.sleep(0.5)  # let the sibling stop itself first
        raise RuntimeError("boom: this point fails")
    return healthy()


class TestSweepTeardownEscalates:
    def test_raise_returns_past_a_sigstopped_sibling(self, stderr_dir):
        """A SIGSTOPped worker never acts on SIGTERM; tearing the pool
        down on ``on_error="raise"`` must escalate to SIGKILL instead
        of joining it forever."""
        grace = 0.3
        engine = ParallelSweep(
            Sweep(base_cores=CORES, axes={"noc.latency": [STOP, FAIL]}),
            workers=2, on_error="raise",
            policy=SupervisorPolicy(term_grace_seconds=grace))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="this point fails"):
            engine.run(stop_or_fail_factory)
        assert time.monotonic() - started < 0.5 + grace + 5.0
        assert not engine.pool
        assert multiprocessing.active_children() == []
        assert leftovers(stderr_dir) == []
