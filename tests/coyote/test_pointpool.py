"""PointPool: the one worker-process mechanism under every tier.

Driven directly, without a sweep or a service on top: the three event
kinds, the single SIGTERM → grace → SIGKILL teardown, inherited-fd
closing, ``close()`` idempotence, a held SIGINT across the fork, a
worker taking its recipe's next point (and only its recipe's), an idle
worker that beats nothing and dies with its parent — and the two
regressions the unified pool fixes: the campaign tiers work under the
``spawn`` start method (their workload factory pickles), and a sweep
torn down by ``on_error="raise"`` escalates past a SIGSTOPped worker
instead of joining it forever.
"""

import multiprocessing
import os
import signal
import subprocess
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
from repro.spike import translate

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


def also_healthy():
    return vector_axpy(length=32, num_cores=CORES)


def chatty(settings):
    """Says which point it is on stderr; the point at latency 9 dies."""
    print(f"point {settings['noc.latency']} ran", file=sys.stderr,
          flush=True)
    if settings["noc.latency"] == 9:
        os._exit(9)
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
    def test_result_event_and_the_attempt_is_over(self, pool, stderr_dir):
        worker = pool.spawn(3, {"noc.latency": 2}, *RECIPE, healthy,
                            context="mine")
        assert len(pool) == 1 and pool.workers == [worker]
        assert len(leftovers(stderr_dir)) == 1
        (kind, seen, point), = drain(pool)
        assert kind == "result" and seen is worker
        assert (worker.index, worker.context) == (3, "mine")
        assert not point.failed and point.settings == {"noc.latency": 2}
        # The attempt is over, its stderr file gone; its process waits,
        # idle, for the recipe's next point — until it is reaped.
        assert not pool and pool.workers == []
        assert leftovers(stderr_dir) == []
        assert worker.process.is_alive()
        pool.reap(worker)
        assert worker.process.exitcode is not None
        assert pool.reap(worker) == ""

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


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="translated blocks come back from forked workers only")


class TestReuse:
    """A worker takes its recipe's points one after another."""

    @needs_fork
    def test_two_points_of_one_recipe_share_a_process(self, pool,
                                                      monkeypatch):
        monkeypatch.setattr(translate, "_FACTORY_CACHE", {})    # cold
        first = pool.spawn(0, {}, *RECIPE, healthy)
        drain(pool)
        second = pool.spawn(1, {}, *RECIPE, healthy)
        assert len(pool) == 1 and pool.workers == [second]
        (kind, seen, point), = drain(pool)
        assert (kind, seen) == ("result", second) and not point.failed
        assert second.process.pid == first.process.pid
        assert (first.fresh, second.fresh) == (True, False)
        assert multiprocessing.active_children() == [first.process]
        # The first point's blocks came back with it; the second needed
        # no new ones.
        assert first.blocks > 0 and second.blocks == 0

    def test_another_recipe_retires_the_idle_worker(self, pool,
                                                    stderr_dir):
        first = pool.spawn(0, {}, *RECIPE, healthy)
        drain(pool)
        second = pool.spawn(1, {}, *RECIPE, also_healthy)
        assert second.fresh and second.process.pid != first.process.pid
        assert first.process.exitcode is not None
        assert multiprocessing.active_children() == [second.process]
        assert len(leftovers(stderr_dir)) == 1
        (kind, _seen, point), = drain(pool)
        assert kind == "result" and not point.failed

    def test_a_killed_second_attempt_dies_alone(self, pool):
        first = pool.spawn(0, {}, *RECIPE, healthy)
        drain(pool)
        # Stopped, it cannot read its next point: killed with the point
        # unread, its socket resets (ConnectionResetError) instead of
        # closing.
        os.kill(first.process.pid, signal.SIGSTOP)
        pool.on_spawn = lambda worker: worker.fresh or os.kill(
            worker.process.pid, signal.SIGKILL)
        second = pool.spawn(1, {}, *RECIPE, healthy)
        assert second.process is first.process
        (kind, seen, exit_code, _tail), = drain(pool)
        assert (kind, seen, exit_code) \
            == ("died", second, -signal.SIGKILL)
        third = pool.spawn(2, {}, *RECIPE, healthy)
        assert third.fresh and third.process.pid != first.process.pid
        (kind, seen, point), = drain(pool)
        assert (kind, seen) == ("result", third) and not point.failed

    def test_each_attempt_has_its_own_stderr_tail(self, pool):
        pool.spawn(0, {"noc.latency": 2}, *RECIPE, chatty)
        (kind, _seen, _point), = drain(pool)
        assert kind == "result"
        crashing = pool.spawn(1, {"noc.latency": 9}, *RECIPE, chatty)
        assert not crashing.fresh
        (kind, _seen, exit_code, tail), = drain(pool)
        assert (kind, exit_code) == ("died", 9)
        assert "point 9 ran" in tail and "point 2 ran" not in tail

    def test_an_idle_worker_sends_no_beats(self):
        pool = PointPool(heartbeat_seconds=0.02)
        try:
            worker = pool.spawn(0, {}, *RECIPE, healthy)
            assert drain(pool)[-1][0] == "result"
            assert not worker.conn.poll(0.3)    # ~15 intervals, silent
            again = pool.spawn(1, {}, *RECIPE, healthy)
            events = drain(pool)
        finally:
            pool.close()
        assert not again.fresh
        # The next point's first beat comes as it starts.
        assert events[0][:2] == ("beat", again)
        assert events[-1][0] == "result"

    def test_close_leaves_no_process_and_no_file(self, pool, stderr_dir):
        for index in range(2):
            pool.spawn(index, {}, *RECIPE, healthy)
        drain(pool)
        busy = pool.spawn(2, {}, *RECIPE, sleeper)
        assert len(multiprocessing.active_children()) == 2
        pool.close()
        assert not busy.process.is_alive()
        assert multiprocessing.active_children() == []
        assert leftovers(stderr_dir) == []


# Holds an idle worker of a service root until it is killed.
IDLE_HOLDER = """
import sys
from repro.service.service import CampaignService
service = CampaignService(sys.argv[1], workers=1).open()
service.submit("vector-axpy", {"noc.latency": [2, 6]}, cores=2, size=64)
while not service.monitor.counters["completions"]:
    service.step()
idle, = service.pool._idle
print(idle.process.pid, flush=True)
sys.stdin.read()
"""


def _alive(pid):
    """Whether ``pid`` runs (a zombie nobody has reaped does not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.exists("/proc/self/stat"),
    reason="needs fork and /proc")
def test_an_idle_worker_dies_with_its_parent(tmp_path):
    root = tmp_path / "root"
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen([sys.executable, "-c", IDLE_HOLDER,
                               str(root)], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        pid = int(parent.stdout.readline())
        assert _alive(pid)
    finally:
        parent.kill()
        parent.wait()
    deadline = time.monotonic() + 5.0
    while _alive(pid):
        assert time.monotonic() < deadline, "the idle worker outlived it"
        time.sleep(0.02)
    assert leftovers(tmp_path) == []    # an idle worker holds no file
    with CampaignService(root):
        pass    # the lock is free


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
