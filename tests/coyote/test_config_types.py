"""A wrongly-typed configuration value is a configuration error.

A field whose default is a number refuses a ``str`` or a ``bool``
where names are already checked — the one walker of
``repro.coyote.config`` — so the mistake surfaces at every door before
anything runs or is journaled.  (It used to reach the model: a Python
traceback from ``memctrl.py`` for ``coyote-sim --config``, and one
``TypeError`` per point for ``coyote-sim sweep --axes
mem_latency=abc``.)  Out-of-range and wrong-choice values are not type
errors and stay what they were.
"""

import json

import pytest

from repro import api
from repro.api import SimulationConfig
from repro.coyote import cli
from repro.coyote.sweep import Sweep, SweepError
from repro.service.service import ServiceError, build_spec

KERNEL = ["--kernel", "scalar-matmul", "--cores", "2", "--size", "6"]


def bad_document():
    document = SimulationConfig.for_cores(2).to_dict()
    document["memhier"]["mem_latency"] = "abc"
    return document


class TestLibrary:
    @pytest.mark.parametrize("path, value", [
        ("mem_latency", "abc"), ("mem_latency", True),
        ("noc.latency", "6"), ("l1.dcache_bytes", "32k"),
        ("vlen_bits", False), ("resilience.watchdog_cycles", "never"),
    ])
    def test_for_cores_and_with_overrides(self, path, value):
        message = f"{path} must be a number, got {value!r}"
        with pytest.raises(ValueError) as refused:
            SimulationConfig.for_cores(2, **{path: value})
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            SimulationConfig.for_cores(2).with_overrides(**{path: value})
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            SimulationConfig.builder(2).set(**{path: value}).build()
        assert str(refused.value) == message

    @pytest.mark.parametrize("value", [[100], (100,), {"a": 1}, None])
    def test_a_container_or_none_is_no_number(self, value):
        message = f"mem_latency must be a number, got {value!r}"
        with pytest.raises(ValueError) as refused:
            SimulationConfig.for_cores(2, mem_latency=value)
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            SimulationConfig.for_cores(2).with_overrides(
                **{"noc.latency": value})
        assert str(refused.value) \
            == f"noc.latency must be a number, got {value!r}"

    def test_from_dict(self):
        with pytest.raises(ValueError) as refused:
            SimulationConfig.from_dict(bad_document())
        assert str(refused.value) \
            == "mem_latency must be a number, got 'abc'"
        document = SimulationConfig.for_cores(2).to_dict()
        document["memhier"]["noc"]["latency"] = True
        with pytest.raises(ValueError, match="noc.latency must be a "
                                             "number, got True"):
            SimulationConfig.from_dict(document)

    def test_a_section_given_as_a_dict_is_checked_below_it(self):
        with pytest.raises(ValueError, match="noc.columns must be a "
                                             "number, got 'four'"):
            SimulationConfig.for_cores(2, noc={"columns": "four"})

    def test_what_is_not_a_type_error_is_left_alone(self):
        # Numbers of either kind, and non-numeric fields, pass through;
        # range and choice are the dataclasses' own validation.
        config = SimulationConfig.for_cores(
            2, mem_latency=250, l2_mode="private", trace_misses=True,
            **{"noc.latency": 4.0})
        assert (config.get("mem_latency"), config.get("noc.latency")) \
            == (250, 4.0)
        assert SimulationConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError, match="max_cycles must be "
                                             "positive"):
            SimulationConfig.for_cores(2, max_cycles=0)


class TestCampaigns:
    def test_sweep_refuses_at_construction(self):
        for build in (
                lambda: Sweep(base_cores=2,
                              axes={"mem_latency": [100, "abc"]}),
                lambda: Sweep(base_cores=2, axes={"noc.latency": [2]},
                              mem_latency="abc"),
                lambda: api.sweep("vector-axpy", cores=2, size=32,
                                  axes={"mem_latency": ["abc"]},
                                  on_error="skip")):
            with pytest.raises(SweepError, match="mem_latency must be a "
                                                 "number, got 'abc'"):
                build()

    def test_submission_is_refused_before_journaling(self, tmp_path):
        root = tmp_path / "root"
        with pytest.raises(ServiceError, match="must be a number"):
            build_spec("vector-axpy", {"mem_latency": ["abc"]}, cores=2)
        with pytest.raises(ServiceError, match="must be a number"):
            api.submit("vector-axpy", root=root, cores=2,
                       axes={"noc.latency": [2]}, mem_latency=True)
        assert not root.exists()

    def test_a_list_is_refused_as_an_axis_and_an_override(self, tmp_path):
        with pytest.raises(SweepError, match=r"mem_latency must be a "
                                             r"number, got \[100\]"):
            Sweep(base_cores=2, axes={"mem_latency": [[100]]})
        root = tmp_path / "root"
        with pytest.raises(ServiceError, match="must be a number"):
            api.submit("vector-axpy", root=root, cores=2,
                       axes={"noc.latency": [2]}, mem_latency=None)
        assert not root.exists()

    def test_an_out_of_range_value_stays_a_per_point_failure(self):
        table = api.sweep("vector-axpy", cores=2, size=32,
                          axes={"mem_latency": [0, 100]}, on_error="skip")
        assert [point.failed for point in table.points] == [True, False]


class TestCli:
    def test_config_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad_document()))
        assert cli.main(["--kernel", "scalar-matmul", "--size", "6",
                         "--config", str(path)]) \
            == cli.EXIT_CONFIG
        assert "configuration error: mem_latency must be a number, " \
               "got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[100], None])
    def test_config_file_with_a_list_or_null(self, tmp_path, capsys, value):
        document = SimulationConfig.for_cores(2).to_dict()
        document["memhier"]["mem_latency"] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(document))
        assert cli.main(["--kernel", "scalar-matmul", "--size", "6",
                         "--config", str(path)]) == cli.EXIT_CONFIG
        assert f"configuration error: mem_latency must be a number, " \
               f"got {value!r}" in capsys.readouterr().err

    def test_sweep_axis(self, capsys):
        assert cli.main(["sweep", *KERNEL, "--axes", "mem_latency=abc"]) \
            == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "configuration error: mem_latency must be a number, " \
               "got 'abc'" in captured.err
        assert "points" not in captured.out     # nothing ran

    def test_jobs_submit(self, tmp_path, capsys):
        root = tmp_path / "root"
        assert cli.main(["jobs", "submit", "--root", str(root), *KERNEL,
                         "--axes", "mem_latency=abc"]) == cli.EXIT_CONFIG
        assert "must be a number" in capsys.readouterr().err
        assert not root.exists()
