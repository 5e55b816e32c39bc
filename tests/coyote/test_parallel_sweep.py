"""The parallel sweep engine: determinism, crash isolation, warm-start.

The headline guarantee under test: a ``workers=N`` campaign produces a
table bit-identical to the ``workers=1`` reference — same settings
order, same metrics, same failure records — even when the campaign
contains a deliberately deadlocking point running under
``on_error="skip"``.
"""

import os

import pytest

from repro.coyote.parallel import ParallelSweep, RemoteError, WorkerCrash
from repro.coyote.sweep import Sweep
from repro.kernels import scalar_matmul, vector_axpy
from repro.api import CheckpointError, FaultSpec, ResilienceConfig

DIFFERENTIAL_METRICS = ("cycles", "instructions", "l1d_miss_rate",
                        "raw_stall_cycles")

# Dropping L2-bank responses destroys some core's completion: the point
# provably wedges and the watchdog converts it into a DeadlockError.
WEDGED = ResilienceConfig(
    faults=[FaultSpec(target="l2bank", kind="drop", start=300, end=500,
                      probability=0.5)],
    fault_seed=42, watchdog_cycles=2000)
HEALTHY = ResilienceConfig()


def make_matmul():
    return scalar_matmul(size=6, num_cores=2)


def make_axpy():
    return vector_axpy(length=32, num_cores=2)


def crashing_factory(settings):
    """Settings-aware factory: hard-kills the worker for one point."""
    if settings.get("noc.latency") == 7:
        os._exit(9)
    return scalar_matmul(size=6, num_cores=2)


class TestDifferential:
    def test_parallel_table_bit_identical_with_deadlocking_point(self):
        # 2 axes, 4 points, two of which wedge and trip the watchdog.
        sweep = Sweep(base_cores=2,
                      axes={"resilience": [HEALTHY, WEDGED],
                            "noc.latency": [2, 6]})
        serial = sweep.run(make_matmul, workers=1, on_error="skip")
        fanned = sweep.run(make_matmul, workers=4, on_error="skip")
        assert serial.to_dict(DIFFERENTIAL_METRICS) \
            == fanned.to_dict(DIFFERENTIAL_METRICS)
        kinds = [point.error_kind for point in fanned.points]
        assert kinds.count("DeadlockError") == 2
        assert fanned.workers == 4 and serial.workers == 1

    def test_all_healthy_differential(self):
        sweep = Sweep(base_cores=2, axes={"l2_mode": ["shared", "private"],
                                          "noc.latency": [2, 6]})
        serial = sweep.run(make_axpy, workers=1)
        fanned = sweep.run(make_axpy, workers=2)
        assert serial.to_dict(DIFFERENTIAL_METRICS) \
            == fanned.to_dict(DIFFERENTIAL_METRICS)

    def test_points_stay_in_axis_order(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [6, 2, 4]})
        table = sweep.run(make_axpy, workers=3)
        assert [point.settings["noc.latency"]
                for point in table.points] == [6, 2, 4]


class TestCrashIsolation:
    def test_dead_worker_becomes_failed_point(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 7, 6]})
        table = sweep.run(crashing_factory, workers=2, on_error="skip")
        assert [point.failed for point in table.points] \
            == [False, True, False]
        crashed = table.points[1]
        assert crashed.error_kind == "WorkerCrash"
        assert "exit code 9" in str(crashed.error)
        assert crashed.results is None
        assert table.points[0].results is not None
        assert table.points[2].results is not None

    def test_crash_with_on_error_raise_aborts(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [7]})
        with pytest.raises(WorkerCrash):
            sweep.run(crashing_factory, workers=2, on_error="raise")

    def test_remote_error_preserves_kind_across_pickle(self):
        import pickle
        error = RemoteError("DeadlockError", "wedged at cycle 4242")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.kind == "DeadlockError"
        assert str(clone) == "wedged at cycle 4242"


def refusing_factory(settings):
    """Settings-aware factory: raises for one point (the worker lives)."""
    if settings.get("noc.latency") == 7:
        raise ValueError("no workload at noc.latency=7")
    return scalar_matmul(size=6, num_cores=2)


class TestResultsStayOffTheStore:
    """A point's results live with the executor waiting for the table,
    never on a store record or a journal event."""

    def test_records_hold_no_result_and_errors_keep_their_kind(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 7, 6]})
        tables = []
        for workers in (1, 2):
            engine = ParallelSweep(sweep, workers=workers, on_error="skip")
            table = engine.run(refusing_factory)
            store = engine.executor.store
            assert not [record for job in store.jobs.values()
                        for record in job["points"] if "result" in record]
            _, events = store.journal.load()
            assert not [event for event in events if "result" in event]
            assert [point.failed for point in table.points] \
                == [False, True, False]
            refused = table.points[1]
            assert refused.error_kind == "ValueError"
            assert type(refused.error) is ValueError
            tables.append(table)
        assert tables[0].to_dict(DIFFERENTIAL_METRICS) \
            == tables[1].to_dict(DIFFERENTIAL_METRICS)


class TestValidation:
    def test_workers_must_be_positive(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        with pytest.raises(ValueError, match="workers"):
            ParallelSweep(sweep, workers=0)

    def test_on_error_still_validated(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        with pytest.raises(ValueError, match="on_error"):
            sweep.run(make_axpy, on_error="ignore", workers=2)


def entries(campaign):
    """The per-point result files a campaign directory holds."""
    return sorted((campaign / "objects").rglob("*.res"))


class TestCampaignWarmStart:
    AXES = {"l2_mode": ["shared", "private"], "noc.latency": [2, 6]}

    def engine(self, campaign, **kwargs):
        return ParallelSweep(Sweep(base_cores=2, axes=dict(self.AXES)),
                             on_error="skip", campaign_path=campaign,
                             **kwargs)

    def test_restart_serves_every_point_as_a_cache_hit(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        first = self.engine(campaign, workers=2)
        table = first.run(make_axpy)
        assert first.monitor.counters["cache_hits"] == 0
        assert len(entries(campaign)) == 4
        # Every point is on disk: the rerun spawns no worker at all.
        again = self.engine(campaign, workers=2)
        rerun = again.run(make_axpy)
        assert again.monitor.counters["cache_hits"] == 4
        assert again.monitor.counters["attempts"] == 0
        assert table.to_dict(DIFFERENTIAL_METRICS) \
            == rerun.to_dict(DIFFERENTIAL_METRICS)

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path):
        # Simulate ctrl-C landing mid-campaign: the factory (called
        # once for a point's cache key and once to run it) interrupts
        # on its fifth call, two points in; what settled must survive
        # and a warm restart (with a different worker count, and a
        # lambda for a factory, even) must produce the uninterrupted
        # reference table bit for bit.
        campaign = tmp_path / "axpy.campaign"
        calls = {"count": 0}

        def interrupting_factory(settings):
            if calls["count"] == 4:
                raise KeyboardInterrupt
            calls["count"] += 1
            return make_axpy()

        with pytest.raises(KeyboardInterrupt):
            self.engine(campaign, workers=1).run(interrupting_factory)
        assert len(entries(campaign)) == 2
        resumed = self.engine(campaign, workers=2)
        table = resumed.run(lambda: vector_axpy(length=32, num_cores=2))
        assert resumed.monitor.counters["cache_hits"] == 2
        assert resumed.monitor.counters["attempts"] == 2
        reference = Sweep(base_cores=2, axes=dict(self.AXES)).run(
            make_axpy, workers=1)
        assert table.to_dict(DIFFERENTIAL_METRICS) \
            == reference.to_dict(DIFFERENTIAL_METRICS)

    def test_another_sweep_shares_the_directory_safely(self, tmp_path):
        # Entries are keyed by everything that determines a result, so
        # a different sweep (other axes, another kernel) pointed at the
        # same directory is neither refused nor served stale points.
        campaign = tmp_path / "shared.campaign"
        self.engine(campaign).run(make_axpy)
        other = ParallelSweep(
            Sweep(base_cores=2, axes={"noc.latency": [2, 9]}),
            campaign_path=campaign)
        table = other.run(make_matmul)
        assert other.monitor.counters["cache_hits"] == 0
        reference = Sweep(base_cores=2, axes={"noc.latency": [2, 9]}).run(
            make_matmul)
        assert table.to_dict(DIFFERENTIAL_METRICS) \
            == reference.to_dict(DIFFERENTIAL_METRICS)

    def test_failed_points_are_kept_too(self, tmp_path):
        campaign = tmp_path / "wedged.campaign"
        sweep = Sweep(base_cores=2, axes={"resilience": [HEALTHY, WEDGED]})
        first = sweep.run(make_matmul, on_error="skip",
                          campaign_path=campaign)
        again = ParallelSweep(sweep, on_error="skip",
                              campaign_path=campaign)
        rerun = again.run(make_matmul)
        assert again.monitor.counters["cache_hits"] == 2
        assert rerun.points[1].error_kind == "DeadlockError"
        assert first.to_dict(DIFFERENTIAL_METRICS) \
            == rerun.to_dict(DIFFERENTIAL_METRICS)

    def test_old_campaign_file_says_to_pass_a_directory(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        campaign.write_bytes(b"coyote-campaign 2 " + b"0" * 64 + b"\n")
        with pytest.raises(CheckpointError, match="pass a directory"):
            self.engine(campaign)


class TestSweepCli:
    def test_end_to_end_with_json_out(self, tmp_path, capsys):
        import json

        from repro.coyote import cli
        out = tmp_path / "table.json"
        code = cli.main(["sweep", "--kernel", "scalar-matmul",
                         "--cores", "2", "--size", "6",
                         "--axes", "noc.latency=2,6",
                         "--best", "cycles", "--out", str(out)])
        assert code == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert "noc.latency" in stdout and "best cycles" in stdout
        document = json.loads(out.read_text())
        assert len(document["points"]) == 2
        assert document["aggregate"]["failed"] == 0

    @pytest.mark.parametrize("flags, complaint", [
        (["--axes", "bad==x"], "bad axis"),
        (["--axes", "noc.latency=2,,6"], "bad axis"),
        (["--axes", "=2,6"], "bad axis"),
        (["--axes", "noc.latency"], "bad axis"),
        (["--axes", "noc.latency=2", "--workers", "0"],
         "workers must be >= 1"),
        # A name that is not a configuration path is refused before any
        # point runs (it used to run every point into a TypeError: exit 1).
        (["--axes", "l2mode=shared,private"], "'l2mode'"),
        (["--axes", "noc.latncy=2,6"], "'noc.latncy'"),
    ])
    def test_malformed_flags_are_config_errors(self, flags, complaint,
                                               capsys):
        from repro.coyote import cli
        code = cli.main(["sweep", "--kernel", "scalar-matmul", *flags])
        assert code == cli.EXIT_CONFIG
        stderr = capsys.readouterr().err
        assert "configuration error" in stderr and complaint in stderr

    @pytest.mark.parametrize("flags", [
        ["--metrics", "nonsense"], ["--metrics", "cycles,hierarchy_value"],
        ["--metrics", "bank_utilisation"], ["--best", "nonsense"]])
    def test_a_typoed_metric_is_refused_before_any_point_runs(
            self, flags, capsys, monkeypatch):
        from repro.coyote import cli
        from repro.coyote.simulation import Simulation
        simulated = []
        monkeypatch.setattr(Simulation, "run", simulated.append)
        code = cli.main(["sweep", "--kernel", "scalar-matmul", "--cores", "2",
                         "--size", "6", "--axes", "noc.latency=2,6", *flags])
        assert code == cli.EXIT_CONFIG and not simulated
        stderr = capsys.readouterr().err.strip()
        assert "unknown metric" in stderr and len(stderr.splitlines()) == 1

    def test_hierarchy_counters_are_columns(self, capsys):
        from repro.coyote import cli
        flags = ["sweep", "--kernel", "scalar-matmul", "--cores", "2",
                 "--size", "6", "--axes", "noc.latency=2,6", "--metrics"]
        assert cli.main([*flags, "cycles,memhier.noc.messages"]) \
            == cli.EXIT_OK
        assert "memhier.noc.messages" in capsys.readouterr().out
        assert cli.main([*flags, "memhier.noc.mesages"]) == cli.EXIT_CONFIG
        assert "no hierarchy counter" in capsys.readouterr().err

    def test_axis_tokens_are_typed(self):
        from repro.coyote.cli.campaign import parse_axes
        axes = parse_axes(["mix=2,2.5,true,shared"])
        assert axes["mix"] == [2, 2.5, True, "shared"]


class TestTableMetadata:
    def test_wall_seconds_and_workers_recorded(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        table = sweep.run(make_axpy, workers=2)
        assert table.workers == 2
        assert table.wall_seconds > 0

    def test_aggregate_rolls_up_metrics(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
        table = sweep.run(make_axpy, workers=2)
        aggregate = table.aggregate(("cycles",))
        assert aggregate["points"] == 2
        assert aggregate["succeeded"] == 2
        assert aggregate["failed"] == 0
        stats = aggregate["metrics"]["cycles"]
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["total"] == sum(point.metric("cycles")
                                     for point in table.points)

    def test_host_facts_stay_out_of_canonical_dict(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2]})
        table = sweep.run(make_axpy, workers=2)
        document = table.to_dict(("cycles",))
        assert set(document) == {"axes", "points"}
