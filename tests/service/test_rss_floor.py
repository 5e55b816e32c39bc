"""An RSS trip never takes the pool in-process.

The ladder steps a pool ``N -> N/2 -> ... -> 1`` on worker RSS trips
and stops at one worker: in-process there is no worker to read a
ceiling off, so a point that tripped it would run unbounded there.
Only a spawn the host refuses reaches in-process
(``tests/resilience/test_supervisor.py::TestDegradation``).
"""

import time

from repro import api
from repro.service.cluster import ClusterDispatcher, ClusterNode
from repro.service.transport import InProcessTransport

KERNEL, CORES, SIZE = "vector-axpy", 2, 4096
AXES = {"noc.latency": [2, 6]}
# Every worker is over 1 MB; the default ladder steps every third trip,
# and two points of two attempts trip it four times.
POLICY = api.SupervisorPolicy(
    max_rss_mb=1.0,
    retry=api.RetryPolicy(max_attempts=2, base_delay=0.1, max_delay=5.0))


def assert_every_point_quarantined(table):
    assert table.degradations == []
    for point in table.points:
        assert isinstance(point.error, api.QuarantinedPoint), point.error
        assert [(record.attempt, record.outcome)
                for record in point.error.attempts] \
            == [(1, "rss-exceeded"), (2, "rss-exceeded")]


def test_a_one_worker_service_stays_on_its_worker(tmp_path):
    with api.CampaignService(tmp_path / "root", workers=1,
                             policy=POLICY) as service:
        job = service.submit(KERNEL, AXES, cores=CORES, size=SIZE)
        table = service.result(job, wait=True)
    assert_every_point_quarantined(table)
    assert service.slots == 1


def test_a_one_worker_node_stays_on_its_worker(tmp_path):
    root = tmp_path / "root"
    dispatcher = ClusterDispatcher(root, transport=InProcessTransport(),
                                   policy=POLICY)
    node = ClusterNode(root, "n0", transport=dispatcher.transport,
                       workers=1, heartbeat_seconds=0.0)
    with dispatcher:
        job = dispatcher.submit(KERNEL, AXES, cores=CORES, size=SIZE)
        deadline = time.monotonic() + 120
        while dispatcher.store.has_work() or dispatcher.pool:
            assert time.monotonic() < deadline, "cluster did not drain"
            if not (dispatcher.step() | node.step()):
                time.sleep(0.01)
        table = dispatcher.result(job)
    node.pool.close()
    assert_every_point_quarantined(table)
    assert node.degradations == [] and node.slots == 1
