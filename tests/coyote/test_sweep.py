"""Tests for the design-space sweep utility."""

import pytest

from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy


def make_workload():
    return vector_axpy(length=32, num_cores=2)


class TestSweep:
    def test_cartesian_points(self):
        sweep = Sweep(base_cores=2,
                      axes={"l2_mode": ["shared", "private"],
                            "noc.latency": [2, 6]})
        table = sweep.run(make_workload)
        assert len(table.points) == 4
        settings = [tuple(point.settings.values())
                    for point in table.points]
        assert len(set(settings)) == 4

    def test_points_verified(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 12]})
        table = sweep.run(make_workload)
        assert all(point.verified for point in table.points)

    def test_best_minimises_cycles(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 24]})
        table = sweep.run(make_workload)
        assert table.best("cycles").settings["noc.latency"] == 2

    def test_best_maximises_when_asked(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 24]})
        table = sweep.run(make_workload)
        best = table.best("cycles", minimise=False)
        assert best.settings["noc.latency"] == 24

    def test_metric_resolves_methods(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [6]})
        table = sweep.run(make_workload)
        assert 0.0 <= table.points[0].metric("l1d_miss_rate") <= 1.0

    def test_text_table(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
        table = sweep.run(make_workload)
        text = table.to_text(metrics=("cycles", "l1d_miss_rate"))
        assert "noc.latency" in text and "cycles" in text
        assert len(text.splitlines()) == 4  # header + rule + 2 rows

    def test_base_overrides_apply(self):
        sweep = Sweep(base_cores=2, axes={"noc.latency": [6]},
                      mem_latency=200)
        table = sweep.run(make_workload)
        slow = table.points[0].results.cycles
        fast = Sweep(base_cores=2, axes={"noc.latency": [6]},
                     mem_latency=50).run(make_workload).points[0] \
            .results.cycles
        assert slow > fast

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            Sweep(base_cores=2, axes={})

    def test_empty_table_best_rejected(self):
        from repro.coyote.sweep import SweepTable
        with pytest.raises(ValueError):
            SweepTable(axes={}).best()


class TestMetricSemantics:
    """A metric exists whenever results exist — even on flagged points."""

    def test_verification_failure_keeps_metrics(self):
        from repro.coyote.errors import SimulationError
        from repro.coyote.sweep import SweepPoint
        healthy = Sweep(base_cores=2, axes={"noc.latency": [6]}) \
            .run(make_workload).points[0]
        flagged = SweepPoint(settings=dict(healthy.settings),
                             results=healthy.results, verified=False,
                             error=SimulationError("verification failed"))
        assert flagged.failed
        assert flagged.metric("cycles") == healthy.metric("cycles")

    def test_resultless_point_raises_sweep_error(self):
        from repro.coyote.sweep import SweepError, SweepPoint
        point = SweepPoint(settings={"noc.latency": 6}, results=None,
                           verified=False, error=RuntimeError("boom"))
        with pytest.raises(SweepError, match="failed before producing"):
            point.metric("cycles")

    @pytest.mark.parametrize("name", [
        "nonsense",            # used to be an AttributeError
        "hierarchy_value",     # ... a TypeError (missing argument)
        "bank_utilisation",    # ... a dict that aggregate() cannot order
        "summary", "cores", "_index"])
    def test_unknown_or_non_scalar_name_is_a_sweep_error(self, name):
        from repro.coyote.sweep import SweepError, check_metric
        table = Sweep(base_cores=2, axes={"noc.latency": [6]}) \
            .run(make_workload)
        for call in (check_metric, table.points[0].metric, table.best,
                     lambda name: table.aggregate((name,)),
                     lambda name: table.to_text((name,))):
            with pytest.raises(SweepError, match=f"unknown metric '{name}'"):
                call(name)

    def test_every_scalar_metric_and_counter_path_resolves(self):
        from repro.coyote.sweep import SweepError, scalar_metrics
        point = Sweep(base_cores=2, axes={"noc.latency": [6]}) \
            .run(make_workload).points[0]
        assert {"cycles", "ipc", "l1d_miss_rate", "host_mips",
                "succeeded"} <= scalar_metrics()
        for name in scalar_metrics():
            assert isinstance(point.metric(name), (int, float))
        assert point.metric("memhier.noc.messages") \
            == point.results.hierarchy_value("memhier.noc.messages") > 0
        with pytest.raises(SweepError, match="no hierarchy counter"):
            point.metric("memhier.noc.mesages")

    def test_sweep_error_is_a_value_error(self):
        from repro.coyote.sweep import SweepError
        assert issubclass(SweepError, ValueError)
