"""The campaign service end-to-end: submit, execute, cache, recover.

Everything here is in-process (the serving loop is just ``run()``);
the cross-process crash story lives in ``test_torture.py``.  The
headline guarantees: service tables are bit-identical to an in-process
serial sweep, overlapping campaigns are served from the cache without
re-simulation, failures retry under the seeded policy and quarantine
as :class:`QuarantinedPoint`, and a corrupt cache entry is recomputed,
never served.
"""

import multiprocessing
import os
import signal

import pytest

from repro import api
from repro.coyote.sweep import SweepPoint
from repro.resilience.locking import CampaignLockError, PathLock
from repro.resilience.supervisor import RetryPolicy
from repro.service.service import CampaignService, spool_submission
from repro.service.store import QueueFullError, ServiceError

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")


def make_service(root, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("heartbeat_seconds", 0.05)
    return CampaignService(root, **kwargs)


def serial_reference(axes=None):
    return api.sweep(KERNEL, cores=CORES, size=SIZE, axes=axes or AXES,
                     on_error="skip")


@pytest.fixture
def root(tmp_path):
    return tmp_path / "service"


class TestEndToEnd:
    def test_submit_run_result_bit_identical_to_serial(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            assert not service.status(job).complete
            completed = service.run()
            assert completed == 2
            status = service.status(job)
            assert status.complete and status.done == 2
            table = service.result(job)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_overlapping_sweep_is_served_from_cache(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            simulated = service.cache.writes
        with make_service(root) as service:
            wider = service.submit(
                KERNEL, {"noc.latency": [2, 6]}, cores=CORES, size=SIZE)
            service.run()
            status = service.status(wider)
            assert status.cache_hits == 2  # nothing re-simulated
            assert service.cache.writes == 0
            table = service.result(wider)
        assert service.monitor.counters["cache_hits"] == 2
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)
        assert simulated == 2

    def test_result_waits_and_runs_the_queue(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            table = service.result(job, wait=True)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_result_on_incomplete_job_raises(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            with pytest.raises(ServiceError, match="not complete"):
                service.result(job)

    def test_cancel_settles_pending_points(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            status = service.cancel(job)
            assert status.state == "cancelled"
            assert status.cancelled == 2
            assert status.complete
            table = service.result(job)
        assert all(point.error_kind == "ServiceError"
                   for point in table.points)


class TestBackpressure:
    def test_full_queue_rejects_loudly(self, root):
        with make_service(root, max_queue=3) as service:
            service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            with pytest.raises(QueueFullError, match="rejected"):
                service.submit(KERNEL, {"noc.latency": [2, 4]},
                               cores=CORES, size=SIZE)
            assert service.monitor.counters["rejected"] == 1

    def test_unknown_kernel_rejected_before_journaling(self, root):
        with make_service(root) as service:
            with pytest.raises(ServiceError, match="unknown kernel"):
                service.submit("no-such-kernel", AXES)

    @pytest.mark.parametrize("axes, overrides", [
        ({"l2mode": ["shared"]}, {}),
        ({"noc.latency": [2]}, {"mem_latncy": 100}),
    ])
    def test_typoed_name_is_rejected_before_journaling(self, root, axes,
                                                       overrides):
        """An axis or override that is not a configuration path: nothing
        is journaled or spooled (it used to be accepted, and every point
        of the job then failed)."""
        with pytest.raises(ServiceError, match="unknown configuration"):
            api.submit(KERNEL, root=root, axes=axes, cores=CORES,
                       **overrides)
        assert not root.exists()
        with make_service(root) as service:
            with pytest.raises(ServiceError, match="unknown configuration"):
                service.submit(KERNEL, axes, cores=CORES, **overrides)
            assert not service.store.jobs
        assert not list((root / "inbox").iterdir())

    def test_jobs_submit_with_a_typoed_axis_is_a_config_error(self, root,
                                                              capsys):
        from repro.coyote import cli
        assert cli.main(["jobs", "submit", "--root", str(root), "--kernel",
                         KERNEL, "--axes", "l2mode=shared"]) \
            == cli.EXIT_CONFIG
        assert "'l2mode'" in capsys.readouterr().err
        assert not root.exists()

    def test_jobs_result_with_a_typoed_metric_is_one_line(self, root,
                                                          capsys):
        from repro.coyote import cli
        job = api.submit(KERNEL, root=root, axes=AXES, cores=CORES,
                         size=SIZE)
        api.result(job, root=root, wait=True)
        for metric in ("nonsense", "hierarchy_value", "bank_utilisation"):
            assert cli.main(["jobs", "result", "--root", str(root), job,
                             "--metrics", metric]) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert f"unknown metric '{metric}'" in captured.err
            assert len(captured.err.strip().splitlines()) == 1
            assert not captured.out

    def test_unserialisable_submission_rejected(self, root):
        with make_service(root) as service:
            with pytest.raises(ServiceError, match="JSON"):
                service.submit(KERNEL, {"noc.latency": [object()]})


class TestLocking:
    def test_second_service_on_same_root_fails_fast(self, root):
        with make_service(root):
            with pytest.raises(CampaignLockError, match="in use"):
                make_service(root).open()

    def test_lock_is_released_on_close(self, root):
        with make_service(root):
            pass
        with make_service(root):
            pass  # re-acquire succeeds

    def test_spooled_submission_is_ingested(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            # A second process cannot take the lock; it spools instead.
            spooled = api.submit(KERNEL, root=root, axes=AXES,
                                 cores=CORES, size=SIZE)
            assert (root / "inbox" / f"{spooled}.json").exists()
            assert api.status(spooled, root=root).state == "spooled"
            service.run()  # the server ingests and serves from cache
            status = service.status(spooled)
            assert status.complete and status.cache_hits == 2
            assert not (root / "inbox" / f"{spooled}.json").exists()
        assert api.result(spooled, root=root).to_dict(METRICS) \
            == api.result(job, root=root).to_dict(METRICS)

    def test_spooled_cancel_marker_is_applied(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            api.cancel(job, root=root)  # lock held: leaves a marker
            assert (root / "inbox" / f"{job}.cancel").exists()
            status = service.status(job)  # ingests the marker
            assert status.state == "cancelled"
            assert not (root / "inbox" / f"{job}.cancel").exists()

    def test_unreadable_spool_file_is_set_aside(self, root):
        inbox = root / "inbox"
        inbox.mkdir(parents=True)
        (inbox / "job-broken.json").write_text("{not json")
        with make_service(root) as service:
            assert service.ingest_inbox() == 0
        assert (inbox / "job-broken.corrupt").exists()
        assert not (inbox / "job-broken.json").exists()

    def test_spooled_submission_rejected_by_bound_is_visible(self, root):
        spec = {"kernel": KERNEL, "cores": CORES, "size": SIZE,
                "axes": {"noc.latency": [2, 4, 6, 8]}, "overrides": {},
                "require_verified": True}
        spool_submission(root, spec, "job-too-big")
        with make_service(root, max_queue=3) as service:
            service.ingest_inbox()
        assert (root / "inbox" / "job-too-big.rejected").exists()
        with pytest.raises(QueueFullError, match="rejected"):
            api.status("job-too-big", root=root)


class TestFailureHandling:
    def test_crashed_worker_is_retried_then_completes(self, root):
        killed = []
        with make_service(
                root, workers=1, seed=7,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                  max_delay=0.05)) as service:
            def chaos(running):
                if not killed:
                    killed.append(running.index)
                    os.kill(running.process.pid, signal.SIGKILL)
            service.pool.on_spawn = chaos
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            assert killed  # the chaos actually fired
            assert service.monitor.counters["retries"] == 1
            table = service.result(job)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_poison_point_is_quarantined(self, root):
        with make_service(
                root, workers=1, seed=7,
                retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                                  max_delay=0.05)) as service:
            def chaos(running):
                if running.settings["noc.latency"] == 6:
                    os.kill(running.process.pid, signal.SIGKILL)
            service.pool.on_spawn = chaos
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            status = service.status(job)
            assert status.quarantined == 1 and status.done == 1
            assert status.complete
            table = service.result(job)
        poisoned = [point for point in table.points
                    if point.error_kind == "QuarantinedPoint"]
        assert len(poisoned) == 1
        assert poisoned[0].settings == {"noc.latency": 6}
        assert len(poisoned[0].error.attempts) == 2
        assert poisoned[0].error.attempts[0].signal == signal.SIGKILL

    def test_wedged_worker_lease_expires_and_point_retries(self, root):
        """A SIGSTOPped worker stops heartbeating; its lease lapses,
        the executor reaps it and the point retries to completion."""
        wedged = []
        with make_service(
                root, workers=1, lease_seconds=0.5,
                term_grace_seconds=0.1, seed=7,
                retry=RetryPolicy(max_attempts=3, base_delay=0.01,
                                  max_delay=0.05)) as service:
            def chaos(running):
                if not wedged:
                    wedged.append(running.index)
                    os.kill(running.process.pid, signal.SIGSTOP)
            service.pool.on_spawn = chaos
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            assert wedged
            assert service.monitor.counters["lease_expired"] >= 1
            table = service.result(job)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)


class TestCorruptCacheRecovery:
    def test_corrupt_entry_is_recomputed_not_served(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            record = service.store.jobs[job]["points"][0]
            entry = service.cache._entry_path(record["cache_key"])
            blob = bytearray(entry.read_bytes())
            blob[-1] ^= 0xFF
            entry.write_bytes(bytes(blob))

            table = service.result(job, wait=True)  # recomputes
            aside = list(service.cache.quarantine_dir.iterdir())
            assert len(aside) == 1  # the rotten entry, set aside
            assert service.monitor.counters["cache_corrupt"] == 1
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_lock_free_result_reports_corruption(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()
            key = service.store.jobs[job]["points"][0]["cache_key"]
        entry_path = CampaignService(root).cache._entry_path(key)
        entry_path.write_bytes(b"garbage")
        with pytest.raises(ServiceError, match="corrupt"):
            api.result(job, root=root)
        # wait=True takes the lock and heals it.
        table = api.result(job, root=root, wait=True, workers=2)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)


class TestReadOnce:
    """A warm point costs one cache read: ``result(wait=True)`` assembles
    from the points it settled itself, and reads — and verifies — only
    what settled before it was called."""

    def drained(self, root):
        with make_service(root) as service:
            service.result(service.submit(KERNEL, AXES, cores=CORES,
                                          size=SIZE), wait=True)

    def test_a_warm_resubmit_reads_each_point_once(self, root):
        self.drained(root)
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            table = service.result(job, wait=True)
            assert service.status(job).cache_hits == len(table.points)
            assert service.cache.hits == len(table.points)
            assert service._held is None   # nothing outlives the call
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_points_settled_by_an_earlier_run_are_read_and_verified(
            self, root):
        self.drained(root)
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            service.run()   # serves both hits; holds nothing
            assert service.cache.hits == 2
            key = service.store.jobs[job]["points"][0]["cache_key"]
            service.cache._entry_path(key).write_bytes(b"garbage")
            table = service.result(job, wait=True)
            assert service.monitor.counters["cache_corrupt"] == 1
            # The rotten entry is set aside and its point recomputed and
            # held; the healthy one is read again by both assemblies.
            assert service.cache.writes == 1
            assert service.cache.hits == 4
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)

    def test_a_stale_settle_is_not_held(self, root):
        with make_service(root) as service:
            job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
            lease = service._claim_next(service.worker_id)
            service._held = (job, {})
            stale = {**lease, "fence": lease["fence"] + 1}
            point = SweepPoint(lease["settings"], None, True)
            assert not service._settle(
                stale, {"cache_key": lease["cache_key"]}, point)
            assert service._held == (job, {})
            assert service._settle(
                lease, {"cache_key": lease["cache_key"]}, point)
            assert service._held == (job, {lease["index"]: point})

    def test_a_named_kernel_is_built_once_per_process(self, root,
                                                      monkeypatch):
        """Built once a process, digested once a job."""
        import repro.kernels
        from repro.service import service as module
        built, digested = [], []
        instantiate = repro.kernels.instantiate
        monkeypatch.setattr(repro.kernels, "instantiate", lambda *args: (
            built.append(args) or instantiate(*args)))
        repro.kernels._build_named.cache_clear()
        monkeypatch.setattr(module, "kernel_digest", lambda workload: (
            digested.append(workload) or "k" * 64))
        with make_service(root) as service:
            for _ in range(2):
                job_id = service.submit(KERNEL, AXES, cores=CORES,
                                        size=SIZE)
                job = service.store.jobs[job_id]
                for point in job["points"]:
                    assert service._cache_key(job_id, job["spec"],
                                              point["settings"])
        assert built == [(KERNEL, CORES, SIZE)]
        assert len(digested) == 2 and digested[0] is digested[1]


class TestWorkerReuse:
    """A slot costs one worker process a job, not one a point."""

    GRID = {"l2_mode": ["shared", "private"], "noc.latency": [4, 6, 8, 10],
            "mem_latency": [80, 120],
            "mapping_policy": ["set-interleaving", "page-to-bank"]}

    def test_a_32_point_job_forks_once(self, root, monkeypatch):
        services = []

        class Recorded(api.CampaignService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(api, "CampaignService", Recorded)
        job = api.submit("scalar-matmul", root=root, axes=self.GRID,
                         cores=4, size=8)
        table = api.result(job, root=root, wait=True, workers=1)
        monitor = services[-1].monitor
        assert (monitor.counters["attempts"], monitor.counters["forks"]) \
            == (32, 1)
        pids = {event["args"]["pid"]
                for event in monitor.chrome_trace()["traceEvents"]}
        assert len(pids) == 1
        # Retired once the queue ran dry.
        assert multiprocessing.active_children() == []
        serial = api.sweep("scalar-matmul", cores=4, size=8, axes=self.GRID,
                           workers=1)
        assert table.to_dict() == serial.to_dict()

    def test_a_32_point_job_builds_its_kernel_at_most_once(
            self, root, monkeypatch):
        """The parent builds the kernel for its cache key before it
        forks, so the worker inherits the build: a second build
        anywhere fails the point that asked for it."""
        import repro.kernels
        instantiate = repro.kernels.instantiate
        built = []

        def once(*args):
            built.append(args)
            if len(built) > 1:
                raise AssertionError("the kernel was built again")
            return instantiate(*args)

        monkeypatch.setattr(repro.kernels, "instantiate", once)
        repro.kernels._build_named.cache_clear()
        with CampaignService(root, workers=1) as service:
            job = service.submit("scalar-matmul", self.GRID, cores=4,
                                 size=8)
            table = service.result(job, wait=True)
        assert len(table.points) == 32
        assert all(point.verified and not point.failed
                   for point in table.points)
        monkeypatch.undo()
        serial = api.sweep("scalar-matmul", cores=4, size=8, axes=self.GRID,
                           workers=1)
        assert table.to_dict() == serial.to_dict()

    def test_each_job_gets_a_worker_of_its_own(self, root):
        with make_service(root, workers=1) as service:
            for axes in (AXES, {"noc.latency": [4, 8]}):
                service.submit(KERNEL, axes, cores=CORES, size=SIZE)
            assert service.run() == 4
            assert (service.monitor.counters["attempts"],
                    service.monitor.counters["forks"]) == (4, 2)


class TestApiFacade:
    def test_submit_status_result_cancel_without_server(self, root):
        job = api.submit(KERNEL, root=root, axes=AXES, cores=CORES,
                         size=SIZE)
        assert api.status(job, root=root).pending == 2
        table = api.result(job, root=root, wait=True, workers=2)
        assert table.to_dict(METRICS) \
            == serial_reference().to_dict(METRICS)
        # Lock-free read of the finished job.
        assert api.result(job, root=root).to_dict(METRICS) \
            == table.to_dict(METRICS)
        cancelled = api.cancel(job, root=root)
        assert cancelled.state == "cancelled"

    def test_unknown_job_raises(self, root):
        (root / "inbox").mkdir(parents=True)
        with pytest.raises(api.JobNotFoundError):
            api.status("job-missing", root=root)


class TestPathLockUnit:
    def test_conflict_reports_holder(self, tmp_path):
        target = tmp_path / "campaign.pkl"
        with PathLock(target):
            with pytest.raises(CampaignLockError, match="in use"):
                PathLock(target).acquire()

    def test_reacquire_after_release(self, tmp_path):
        target = tmp_path / "campaign.pkl"
        lock = PathLock(target)
        lock.acquire()
        lock.release()
        with PathLock(target):
            pass

    def test_double_acquire_same_object_raises(self, tmp_path):
        lock = PathLock(tmp_path / "campaign.pkl")
        lock.acquire()
        try:
            with pytest.raises(CampaignLockError):
                lock.acquire()
        finally:
            lock.release()
