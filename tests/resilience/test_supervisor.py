"""Chaos harness for the supervised campaign runtime.

The guarantees under test (docs/RESILIENCE.md):

* **Termination** — a campaign containing a wedged point (infinite
  loop), a leaking point (RSS past the ceiling), a crashing point and a
  silent point (heartbeats stop) completes, with every poison point
  quarantined after bounded retries.
* **Determinism** — healthy points of a supervised campaign are
  bit-identical to a serial run, and retry backoff replays exactly
  under a fixed seed.
* **Durability** — quarantine records (full attempt history) survive
  the campaign directory round-trip, and a warm restart never
  re-executes a quarantined point.
* **Degradation** — repeated pool-level failures step the worker count
  down instead of aborting, all the way to a serial floor.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import QuarantinedPoint, RetryPolicy, SupervisorPolicy
from repro.coyote import cli
from repro.coyote.cli.campaign import sweep_exit_code
from repro.coyote.parallel import ParallelSweep, PointPool, WorkerCrash
from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy
from repro.resilience import supervisor as supervision

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DIFFERENTIAL_METRICS = ("cycles", "instructions", "l1d_miss_rate")

# Chaos modes, keyed off the noc.latency axis value (any int is a valid
# latency, so the sweep configuration itself stays legal).
HEALTHY = (2, 6)
WEDGE = 31     # infinite loop; heartbeats keep flowing -> timeout
LEAK = 33      # RSS climbs past the ceiling -> rss-exceeded
CRASH = 35     # os._exit(9) -> crash
SILENT = 37    # wedge AND heartbeats stop -> heartbeat-lost


def _healthy_workload():
    return vector_axpy(length=32, num_cores=2)


def chaos_factory(settings):
    """Settings-aware factory with artificial failure modes — inside a
    pool worker.  The campaign parent also calls the factory (a
    campaign directory keys each point by the workload it builds), and
    must live to tell."""
    mode = settings.get("noc.latency")
    if multiprocessing.parent_process() is None:
        mode = None
    if mode == WEDGE:
        while True:
            time.sleep(0.05)
    if mode == LEAK:
        hoard = []
        while True:
            block = bytearray(8 * (1 << 20))
            for i in range(0, len(block), 4096):  # commit the pages
                block[i] = 1
            hoard.append(block)
            time.sleep(0.01)
    if mode == CRASH:
        os._exit(9)
    if mode == SILENT:
        supervision.suppress_heartbeats()
        while True:
            time.sleep(0.05)
    return _healthy_workload()


def chaos_policy(**overrides) -> SupervisorPolicy:
    base = dict(point_timeout_seconds=2.0,
                heartbeat_interval_seconds=0.05,
                heartbeat_misses=4,
                retry=RetryPolicy(max_attempts=2, base_delay=0.05,
                                  max_delay=0.1),
                term_grace_seconds=0.5,
                seed=11)
    base.update(overrides)
    return SupervisorPolicy(**base)


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """One chaos campaign, run once and dissected by several tests."""
    campaign = tmp_path_factory.mktemp("chaos") / "chaos.campaign.d"
    axes = {"noc.latency": [HEALTHY[0], WEDGE, LEAK, CRASH, SILENT,
                            HEALTHY[1]]}
    sweep = Sweep(base_cores=2, axes=axes)
    policy = chaos_policy(max_rss_mb=supervision.worker_rss_mb() + 64)
    table = sweep.run(chaos_factory, workers=3, on_error="skip",
                      campaign_path=campaign, policy=policy)
    return sweep, policy, campaign, table


class TestChaosCampaign:
    def test_campaign_terminates_with_poison_points_quarantined(
            self, chaos_run):
        _sweep, _policy, _campaign, table = chaos_run
        by_mode = {point.settings["noc.latency"]: point
                   for point in table.points}
        for mode in HEALTHY:
            assert not by_mode[mode].failed
        for mode in (WEDGE, LEAK, CRASH, SILENT):
            point = by_mode[mode]
            assert point.error_kind == "QuarantinedPoint"
            assert isinstance(point.error, QuarantinedPoint)
            assert [record.attempt for record in point.error.attempts] \
                == [1, 2]
        assert len(table.quarantined()) == 4
        assert table.aggregate()["quarantined"] == 4

    def test_attempt_outcomes_match_failure_modes(self, chaos_run):
        *_rest, table = chaos_run
        by_mode = {point.settings["noc.latency"]: point
                   for point in table.points}
        wedge = by_mode[WEDGE].error.attempts
        assert [record.outcome for record in wedge] \
            == ["timeout", "timeout"]
        # A reaped worker died by SIGTERM: exit code -15, signal 15.
        assert all(record.signal == signal.SIGTERM for record in wedge)
        # The wedge kept heartbeating right until the reap.
        assert wedge[0].heartbeats
        leak = by_mode[LEAK].error.attempts
        assert leak[-1].outcome == "rss-exceeded"
        assert all(record.outcome in ("rss-exceeded", "heartbeat-lost")
                   for record in leak)
        crash = by_mode[CRASH].error.attempts
        assert [record.outcome for record in crash] == ["crash", "crash"]
        assert [record.exit_code for record in crash] == [9, 9]
        silent = by_mode[SILENT].error.attempts
        assert [record.outcome for record in silent] \
            == ["heartbeat-lost", "heartbeat-lost"]

    def test_healthy_points_bit_identical_to_serial(self, chaos_run):
        *_rest, table = chaos_run
        serial = Sweep(base_cores=2,
                       axes={"noc.latency": list(HEALTHY)}).run(
            chaos_factory, workers=1)
        serial_points = {point["settings"]["noc.latency"]: point
                         for point in
                         serial.to_dict(DIFFERENTIAL_METRICS)["points"]}
        supervised_points = {point["settings"]["noc.latency"]: point
                             for point in
                             table.to_dict(DIFFERENTIAL_METRICS)["points"]}
        for mode in HEALTHY:
            assert supervised_points[mode] == serial_points[mode]

    def test_quarantine_is_durable_across_warm_restart(self, chaos_run):
        sweep, policy, campaign, table = chaos_run

        def poisoned_factory(settings):
            if multiprocessing.parent_process() is not None:
                raise AssertionError(
                    "a quarantined or completed point was re-executed "
                    "on warm restart")
            return _healthy_workload()   # the parent's cache-key call

        engine = ParallelSweep(sweep, workers=3, on_error="skip",
                               campaign_path=campaign, policy=policy)
        resumed = engine.run(poisoned_factory)
        assert engine.monitor.counters["attempts"] == 0
        assert engine.monitor.counters["cache_hits"] == 6
        assert resumed.to_dict(DIFFERENTIAL_METRICS) \
            == table.to_dict(DIFFERENTIAL_METRICS)
        # The attempt history survives the directory round-trip whole.
        for before, after in zip(table.quarantined(),
                                 resumed.quarantined()):
            assert [(r.attempt, r.outcome, r.exit_code, r.signal)
                    for r in before.error.attempts] \
                == [(r.attempt, r.outcome, r.exit_code, r.signal)
                    for r in after.error.attempts]

    def test_quarantine_does_not_fail_the_cli_exit_code(self, chaos_run):
        *_rest, table = chaos_run
        assert sweep_exit_code(table) == cli.EXIT_OK

    def test_quarantined_error_pickles_whole(self, chaos_run):
        *_rest, table = chaos_run
        error = table.quarantined()[0].error
        clone = pickle.loads(pickle.dumps(error))
        assert str(clone) == str(error)
        assert [r.outcome for r in clone.attempts] \
            == [r.outcome for r in error.attempts]


class TestRetryDeterminism:
    def test_backoff_replays_under_a_fixed_seed(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=4.0)
        first = [policy.backoff_seconds(k, seed=7, index=3)
                 for k in (1, 2, 3)]
        second = [policy.backoff_seconds(k, seed=7, index=3)
                  for k in (1, 2, 3)]
        assert first == second
        assert first != [policy.backoff_seconds(k, seed=8, index=3)
                         for k in (1, 2, 3)]

    def test_backoff_is_exponential_and_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.5, max_delay=4.0)
        for attempt in range(1, 8):
            span = min(4.0, 0.5 * 2 ** (attempt - 1))
            value = policy.backoff_seconds(attempt, seed=1, index=0)
            assert span / 2 <= value <= span
        assert RetryPolicy(base_delay=0.0).backoff_seconds(1) == 0.0

    def test_transient_crash_is_retried_to_success(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("COYOTE_FLAKY_FLAG", str(tmp_path / "flag"))
        sweep = Sweep(base_cores=2, axes={"noc.latency": [13, 2]})
        table = sweep.run(_flaky_factory, workers=2, on_error="skip",
                          policy=chaos_policy())
        assert not any(point.failed for point in table.points)
        engine = ParallelSweep(sweep, workers=2, on_error="skip",
                               policy=chaos_policy())
        table = engine.run(_flaky_factory)  # flag exists: no crash now
        assert engine.monitor.counters["retries"] == 0


def _flaky_factory(settings):
    """Crashes the first time the poisoned point runs, then recovers."""
    if settings.get("noc.latency") == 13:
        flag = os.environ["COYOTE_FLAKY_FLAG"]
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(7)
    return _healthy_workload()


def _stderr_crasher(settings):
    if settings.get("noc.latency") == 7:
        print("boom: allocator exploded at bank 3", file=sys.stderr,
              flush=True)
        os._exit(9)
    return _healthy_workload()


class TestStderrTail:
    def test_worker_crash_attaches_stderr_tail(self):
        table = Sweep(base_cores=2, axes={"noc.latency": [2, 7]}).run(
            _stderr_crasher, workers=2, on_error="skip")
        crashed = table.points[1]
        assert crashed.error_kind == "WorkerCrash"
        assert "exit code 9" in str(crashed.error)
        assert "allocator exploded at bank 3" in crashed.error.stderr_tail
        clone = pickle.loads(pickle.dumps(crashed.error))
        assert "allocator exploded" in clone.stderr_tail

    def test_quarantine_reuses_the_stderr_plumbing(self):
        table = Sweep(base_cores=2, axes={"noc.latency": [7]}).run(
            _stderr_crasher, workers=2, on_error="skip",
            policy=chaos_policy())
        attempts = table.points[0].error.attempts
        assert all("allocator exploded" in record.stderr_tail
                   for record in attempts)


class TestDegradation:
    def test_spawn_failures_step_the_pool_down(self, monkeypatch):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 4, 6, 8]})
        engine = ParallelSweep(sweep, workers=4, on_error="skip",
                               policy=SupervisorPolicy(degrade_after=1))
        real_spawn = PointPool.spawn
        failures = {"left": 2}

        def flaky_spawn(self, *args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("fork: Resource temporarily unavailable")
            return real_spawn(self, *args, **kwargs)

        monkeypatch.setattr(PointPool, "spawn", flaky_spawn)
        table = engine.run(_healthy_factory)
        assert [(event.from_workers, event.to_workers)
                for event in table.degradations] == [(4, 2), (2, 1)]
        assert not any(point.failed for point in table.points)

    def test_degrades_all_the_way_to_serial(self, monkeypatch):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
        engine = ParallelSweep(sweep, workers=2, on_error="skip",
                               policy=SupervisorPolicy(degrade_after=1))

        def broken_spawn(self, *args, **kwargs):
            raise OSError("fork: Cannot allocate memory")

        monkeypatch.setattr(PointPool, "spawn", broken_spawn)
        table = engine.run(_healthy_factory)
        assert [event.to_workers for event in table.degradations][-1] == 0
        assert not any(point.failed for point in table.points)
        serial = Sweep(base_cores=2, axes={"noc.latency": [2, 6]}).run(
            _healthy_factory, workers=1)
        assert table.to_dict(DIFFERENTIAL_METRICS) \
            == serial.to_dict(DIFFERENTIAL_METRICS)

    def test_degrade_after_zero_propagates_spawn_failures(
            self, monkeypatch):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        engine = ParallelSweep(
            sweep, workers=2, on_error="skip",
            policy=SupervisorPolicy(degrade_after=0,
                                    point_timeout_seconds=30.0))

        def broken_spawn(self, *args, **kwargs):
            raise OSError("fork: Cannot allocate memory")

        monkeypatch.setattr(PointPool, "spawn", broken_spawn)
        with pytest.raises(OSError, match="Cannot allocate"):
            engine.run(_healthy_factory)


def _healthy_factory(settings):
    return _healthy_workload()


class TestObservability:
    def test_heartbeat_gauges_and_attempt_spans(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
        engine = ParallelSweep(
            sweep, workers=2, on_error="skip",
            policy=chaos_policy(heartbeat_interval_seconds=0.02))
        gauges = []

        class Recorded(dict):
            def __setitem__(self, key, gauge):
                gauges.append(gauge)
                super().__setitem__(key, gauge)

        engine.monitor.heartbeat_gauges = Recorded()
        table = engine.run(_healthy_factory)
        assert not any(point.failed for point in table.points)
        counters = engine.monitor.counters
        # Every attempt sends one heartbeat immediately on startup.
        assert counters["attempts"] == 2
        assert counters["heartbeats"] >= 2
        assert counters["retries"] == 0 and counters["quarantined"] == 0
        assert len(gauges) == counters["heartbeats"]
        assert all(gauge["rss_mb"] > 0 for gauge in gauges)
        # A gauge is dropped when its attempt ends: a long-lived
        # service's registry does not grow by an entry per point.
        assert engine.monitor.heartbeat_gauges == {}
        events = engine.monitor.chrome_trace()["traceEvents"]
        assert len(events) == 2
        assert all(event["ph"] == "X" and event["args"]["outcome"] == "ok"
                   for event in events)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="point_timeout"):
            SupervisorPolicy(point_timeout_seconds=0.0).validate()
        with pytest.raises(ValueError, match="max_rss_mb"):
            SupervisorPolicy(max_rss_mb=-1.0).validate()
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError, match="max_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0).validate()

    def test_unsupervised_policy_keeps_worker_crash(self):
        # Without supervision knobs a dead worker stays a WorkerCrash
        # (the pre-supervisor contract), never a quarantine record.
        assert not SupervisorPolicy().supervised
        table = Sweep(base_cores=2, axes={"noc.latency": [7]}).run(
            _stderr_crasher, workers=2, on_error="skip")
        assert isinstance(table.points[0].error, WorkerCrash)


class TestSigintDrain:
    AXES = "noc.latency=2,3,4,5,6,7,8,9"

    def command(self, campaign, out):
        # Points of ~0.5 s each: after the first settles, the other seven
        # keep two workers busy for ~2 s, so the interrupt, sent within a
        # 50 ms poll of that settle, lands mid-sweep.
        return [
            sys.executable, "-m", "repro.coyote.cli", "sweep",
            "--kernel", "scalar-matmul", "--cores", "2", "--size", "56",
            "--axes", self.AXES, "--workers", "2", "--on-error", "skip",
            "--campaign", str(campaign), "--out", str(out)]

    def test_sigint_drains_pool_and_rerun_serves_what_settled(
            self, tmp_path):
        campaign = tmp_path / "sigint.campaign.d"
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"))

        def settled():
            return list((campaign / "objects").rglob("*.res"))

        process = subprocess.Popen(
            self.command(campaign, tmp_path / "cut.json"), env=env,
            cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if settled() or process.poll() is not None:
                    break
                time.sleep(0.05)
            assert process.poll() is None, process.communicate()[1]
            assert settled()
            process.send_signal(signal.SIGINT)
            _stdout, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == cli.EXIT_INTERRUPT, stderr
        assert "interrupted" in stderr
        # What settled before the interrupt survived it ...
        kept = len(settled())
        assert 0 < kept < 8  # ... but the sweep was cut short
        # ... and the same command warm-starts from it: those points
        # are cache hits, the table is the uninterrupted one.
        rerun = subprocess.run(
            self.command(campaign, tmp_path / "resumed.json"), env=env,
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert rerun.returncode == cli.EXIT_OK, rerun.stderr
        assert f"{kept} of 8 points were cache hits" in rerun.stdout
        fresh = subprocess.run(
            self.command(tmp_path / "fresh.d", tmp_path / "fresh.json"),
            env=env, cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=300)
        assert fresh.returncode == cli.EXIT_OK, fresh.stderr
        resumed, reference = (
            json.loads((tmp_path / name).read_text())
            for name in ("resumed.json", "fresh.json"))
        assert resumed["points"] == reference["points"]
