"""The point budget is hard at receipt.

A result that reaches the executor after ``point_timeout_seconds`` is
charged as a ``timeout`` and its worker reaped, exactly as the overdue
sweep would have charged it had it looked first — so whether a point
just over budget passes cannot depend on the phase of the executor's
poll.  The late arrival is staged, not raced: the real pool runs the
point, and the stubbed ``poll`` backdates the worker's start past the
budget before it reports the result.
"""

from repro import api

KERNEL = "vector-axpy"
BUDGET = 30.0
POLICY = api.SupervisorPolicy(
    point_timeout_seconds=BUDGET,
    retry=api.RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0))


def test_a_result_received_past_the_budget_is_a_timeout(tmp_path):
    with api.CampaignService(tmp_path / "root", workers=1,
                             policy=POLICY) as service:
        poll = service.pool.poll

        def late_poll(timeout):
            events = poll(timeout)
            for kind, worker, *_payload in events:
                if kind == "result":
                    worker.started -= 2 * BUDGET
            return events

        service.pool.poll = late_poll
        job = service.submit(KERNEL, {"noc.latency": [2]}, cores=2, size=64)
        table = service.result(job, wait=True)
        counters = service.monitor.counters
    error = table.points[0].error
    assert isinstance(error, api.QuarantinedPoint)
    assert [(record.attempt, record.outcome) for record in error.attempts] \
        == [(1, "timeout"), (2, "timeout")]
    assert counters["reaped"] == 2 and counters["completions"] == 0
