"""One campaign, every tier, one table.

The tiers are compositions of one executor, so the same named-kernel
campaign — healthy points, points whose model fails without results,
a point whose worker is killed on every attempt, and one whose worker
hangs on every attempt — must come back byte-identical
(``SweepTable.to_dict()``, failure records included) from ``api.sweep``
in-process, pooled and supervised, from
``api.submit`` + ``api.result(wait=True)`` (or a ``CampaignService``
handed the sweep's policy), and from a ``ClusterDispatcher`` granting to
a ``ClusterNode``.

The model failure is an exhausted cycle budget rather than a watchdog
trip: a service submission takes plain JSON axis values, and a
watchdog is configured by an object.  (``test_parallel_sweep.py``
holds the ``DeadlockError`` differential for the sweep tiers.)
"""

import os
import signal
import time

import pytest

from repro import api
from repro.coyote import parallel
from repro.service.cluster import ClusterDispatcher, ClusterNode
from repro.service.transport import InProcessTransport

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"max_cycles": [200_000, 200], "noc.latency": [2, 6]}
DOOMED = {"max_cycles": 200_000, "noc.latency": 6}
METRICS = ("cycles", "instructions", "l1d_miss_rate")

# The budget the service charges a death against by default; the
# sweep tiers are handed the same one.
RETRY = api.RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=5.0)
POLICY = api.SupervisorPolicy(retry=RETRY)
# A point budget every tier holds a hung worker to.
HUNG_POLICY = api.SupervisorPolicy(
    point_timeout_seconds=1.0,
    retry=api.RetryPolicy(max_attempts=2, base_delay=0.1, max_delay=5.0))


def sweep(**kwargs):
    return api.sweep(KERNEL, CORES, size=SIZE, axes=AXES,
                     on_error="skip", **kwargs)


def through_the_service(root, workers):
    job = api.submit(KERNEL, root=root, axes=AXES, cores=CORES,
                     size=SIZE)
    return api.result(job, root=root, wait=True, workers=workers)


def through_a_policed_service(root, policy):
    with api.CampaignService(root, workers=2, policy=policy) as service:
        job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
        return service.result(job, wait=True)


def through_a_cluster(root, **dispatcher_kwargs):
    dispatcher = ClusterDispatcher(root, transport=InProcessTransport(),
                                   **dispatcher_kwargs)
    node = ClusterNode(root, "n0", transport=dispatcher.transport,
                       heartbeat_seconds=0.0)
    with dispatcher:
        job = dispatcher.submit(KERNEL, AXES, cores=CORES, size=SIZE)
        deadline = time.monotonic() + 120
        while dispatcher.store.has_work() or dispatcher.pool:
            assert time.monotonic() < deadline, "cluster did not drain"
            if not (dispatcher.step() | node.step()):
                time.sleep(0.01)
        table = dispatcher.result(job)
    node.pool.close()
    return table


@pytest.fixture
def doomed_worker(monkeypatch):
    """The doomed point's worker SIGKILLs itself as it starts the point,
    whichever tier's pool forked it: forked workers inherit the patched
    ``run_point``.  (Killing it from the parent races the point: an idle
    worker that is handed the point starts it at once, and may have sent
    its result before the signal lands.)"""
    run_point, test_process = parallel.run_point, os.getpid()

    def run_or_die(settings, *args, **kwargs):
        if settings == DOOMED and os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_point(settings, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_point", run_or_die)


@pytest.fixture
def hung_worker(monkeypatch):
    """The doomed point's worker hangs as it starts the point (its
    heartbeats, where any are asked for, keep flowing): only a point
    budget ends the attempt."""
    run_point, test_process = parallel.run_point, os.getpid()

    def run_or_hang(settings, *args, **kwargs):
        if settings == DOOMED and os.getpid() != test_process:
            time.sleep(3600)
        return run_point(settings, *args, **kwargs)

    monkeypatch.setattr(parallel, "run_point", run_or_hang)


def test_model_failures_read_the_same_on_every_tier(tmp_path):
    tables = {
        "in-process": sweep(workers=1),
        "pool": sweep(workers=2),
        "supervised": sweep(workers=2, policy=POLICY),
        "service": through_the_service(tmp_path / "service", workers=1),
        "cluster": through_a_cluster(tmp_path / "cluster"),
    }
    reference = tables["in-process"].to_dict(METRICS)
    assert [point["error"] and point["error"]["kind"]
            for point in reference["points"]] \
        == [None, None, "SimulationError", "SimulationError"]
    for tier, table in tables.items():
        assert table.to_dict(METRICS) == reference, tier
        assert table.degradations == [], tier


def test_a_dying_worker_reads_the_same_on_every_tier(tmp_path,
                                                     doomed_worker):
    tables = {
        "supervised-1": sweep(workers=1, policy=POLICY),
        "supervised-2": sweep(workers=2, policy=POLICY),
        "service": through_the_service(tmp_path / "service", workers=2),
        "cluster": through_a_cluster(tmp_path / "cluster"),
    }
    reference = tables["supervised-1"].to_dict(METRICS)
    doomed = reference["points"][1]
    assert doomed["settings"] == DOOMED
    assert doomed["error"] == {
        "kind": "QuarantinedPoint",
        "message": f"sweep point {DOOMED} quarantined after 3 "
                   f"attempt(s); last outcome: crash (exit code -9)"}
    for tier, table in tables.items():
        assert table.to_dict(METRICS) == reference, tier
        assert table.degradations == [], tier
        # The public failure taxonomy, from the store's attempt book.
        error = table.points[1].error
        assert isinstance(error, api.QuarantinedPoint), tier
        assert [(record.attempt, record.outcome, record.signal)
                for record in error.attempts] \
            == [(number, "crash", signal.SIGKILL)
                for number in (1, 2, 3)], tier
        assert [record.backoff_seconds for record in error.attempts] \
            == [RETRY.backoff_seconds(1, index=1),
                RETRY.backoff_seconds(2, index=1), 0.0], tier
        assert all(isinstance(record.heartbeats, list)
                   for record in error.attempts), tier

    # Without supervision the same death is the plain WorkerCrash, and
    # nothing else in the table moves.
    unsupervised = sweep(workers=2)
    crash = unsupervised.points[1].error
    assert isinstance(crash, api.WorkerCrash)
    assert crash.exit_code == -signal.SIGKILL and crash.stderr_tail == ""
    document = unsupervised.to_dict(METRICS)
    assert document["points"][1]["error"]["kind"] == "WorkerCrash"
    document["points"][1] = doomed
    assert document == reference


def test_a_hung_worker_reads_the_same_on_every_tier(tmp_path, hung_worker):
    """A worker that never returns is reaped at the point budget on every
    tier — a cluster node included, which holds its workers to the
    budget its dispatcher's grants carry — and charged as a ``timeout``
    until the point quarantines."""
    tables = {
        "supervised-1": sweep(workers=1, policy=HUNG_POLICY),
        "supervised-2": sweep(workers=2, policy=HUNG_POLICY),
        "service": through_a_policed_service(tmp_path / "service",
                                             HUNG_POLICY),
        "cluster": through_a_cluster(tmp_path / "cluster",
                                     policy=HUNG_POLICY),
    }
    reference = tables["supervised-1"].to_dict(METRICS)
    assert reference["points"][1]["settings"] == DOOMED
    assert reference["points"][1]["error"]["kind"] == "QuarantinedPoint"
    for tier, table in tables.items():
        assert table.to_dict(METRICS) == reference, tier
        assert table.degradations == [], tier
        error = table.points[1].error
        assert isinstance(error, api.QuarantinedPoint), tier
        assert [(record.attempt, record.outcome)
                for record in error.attempts] \
            == [(1, "timeout"), (2, "timeout")], tier


# No supervision asked for: a death is final, whoever runs the point.
UNSUPERVISED = api.SupervisorPolicy()
# A ceiling every worker is over, and no heartbeat interval: the workers
# beat only because the ceiling is read off their beats.
RSS_POLICY = api.SupervisorPolicy(
    max_rss_mb=1.0, degrade_after=0,
    retry=api.RetryPolicy(max_attempts=2, base_delay=0.1, max_delay=5.0))


def every_pooled_tier(tmp_path, policy):
    return {
        "pool": sweep(workers=2, policy=policy),
        "service": through_a_policed_service(tmp_path / "service", policy),
        "cluster": through_a_cluster(tmp_path / "cluster", policy=policy),
    }


def test_an_unsupervised_death_is_a_crash_on_every_tier(tmp_path,
                                                        doomed_worker):
    """A policy that supervises nothing makes a death final and a
    :class:`WorkerCrash` on a service and a dispatcher too, not a
    one-attempt quarantine."""
    tables = every_pooled_tier(tmp_path, UNSUPERVISED)
    reference = tables["pool"].to_dict(METRICS)
    assert reference["points"][1]["settings"] == DOOMED
    for tier, table in tables.items():
        assert table.to_dict(METRICS) == reference, tier
        assert table.degradations == [], tier
        crash = table.points[1].error
        assert isinstance(crash, api.WorkerCrash), tier
        assert not isinstance(crash, api.QuarantinedPoint), tier
        assert crash.exit_code == -signal.SIGKILL, tier


def test_an_rss_ceiling_is_read_on_every_tier(tmp_path):
    """With no heartbeat interval the workers still beat where a ceiling
    is set, so every tier reaps every point at its first beat."""
    tables = every_pooled_tier(tmp_path, RSS_POLICY)
    reference = tables["pool"].to_dict(METRICS)
    for tier, table in tables.items():
        assert table.to_dict(METRICS) == reference, tier
        assert table.degradations == [], tier
        for point in table.points:
            assert isinstance(point.error, api.QuarantinedPoint), tier
            assert [(record.attempt, record.outcome)
                    for record in point.error.attempts] \
                == [(1, "rss-exceeded"), (2, "rss-exceeded")], tier
