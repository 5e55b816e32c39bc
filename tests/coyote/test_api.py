"""The ``repro.api`` facade: one front door for every public name.

Covers the docs/API.md quickstart verbatim, the ConfigBuilder, replay,
every facade name resolving, the ``check_api`` CI lint (passing against
the live tree, failing on a broken facade), and package inits that
import nothing.
"""

import subprocess
import sys

import pytest

import repro.api as api
from repro.api import (
    ConfigBuilder,
    RunOutcome,
    SimulationConfig,
    run,
    save_checkpoint,
    sweep,
)
from repro.kernels import instantiate, scalar_matmul
from repro.tools.check_api import check


class TestRun:
    def test_quickstart_scalar_matmul(self):
        outcome = run("scalar-matmul", cores=4, size=8)
        assert isinstance(outcome, RunOutcome)
        assert outcome.verified is True
        assert outcome.results.succeeded()
        assert outcome.succeeded
        assert outcome.results.cycles > 0

    def test_accepts_workload_object_and_factory(self):
        by_name = run("scalar-matmul", cores=2, size=6)
        by_object = run(scalar_matmul(size=6, num_cores=2), cores=2)
        by_factory = run(lambda: scalar_matmul(size=6, num_cores=2),
                         cores=2)
        assert by_name.results.cycles == by_object.results.cycles \
            == by_factory.results.cycles

    def test_overrides_flow_into_config(self):
        fast = run("vector-axpy", cores=2, size=64,
                   **{"noc.latency": 2})
        slow = run("vector-axpy", cores=2, size=64,
                   **{"noc.latency": 12})
        assert slow.results.cycles > fast.results.cycles

    def test_config_and_overrides_are_exclusive(self):
        config = SimulationConfig.for_cores(2)
        with pytest.raises(ValueError, match="not both"):
            run("scalar-matmul", cores=2, size=6, config=config,
                **{"noc.latency": 4})

    def test_unknown_kernel_names_the_choices(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run("no-such-kernel", cores=2, size=6)


class TestSweepFacade:
    def test_sweep_matches_direct_run(self):
        table = sweep("scalar-matmul", cores=2, size=6,
                      axes={"noc.latency": [2, 6]})
        assert len(table.points) == 2
        direct = run("scalar-matmul", cores=2, size=6,
                     **{"noc.latency": 2})
        assert table.points[0].metric("cycles") \
            == direct.results.cycles

    def test_sweep_with_workers(self):
        table = sweep("scalar-matmul", cores=2, size=6,
                      axes={"noc.latency": [2, 6]}, workers=2)
        assert [point.failed for point in table.points] == [False, False]
        assert table.workers == 2


class TestReplay:
    def test_replay_verifies_via_metadata(self, tmp_path):
        paused = run("scalar-matmul", cores=2, size=6, pause_at=500)
        assert paused.results is None and paused.verified is None
        path = tmp_path / "matmul.ckpt"
        save_checkpoint(paused.simulation, path,
                        metadata={"kernel": "scalar-matmul",
                                  "cores": 2, "size": 6})
        outcome = api.replay(path)
        assert outcome.verified is True
        reference = run("scalar-matmul", cores=2, size=6)
        assert outcome.results.cycles == reference.results.cycles

    def test_replay_without_metadata_skips_verification(self, tmp_path):
        paused = run("scalar-matmul", cores=2, size=6, pause_at=500)
        path = tmp_path / "anonymous.ckpt"
        save_checkpoint(paused.simulation, path)
        outcome = api.replay(path)
        assert outcome.verified is None
        assert outcome.results.succeeded()
        assert outcome.succeeded  # unverifiable but cleanly finished


class TestConfigBuilder:
    def test_builder_matches_for_cores(self):
        built = (SimulationConfig.builder(4)
                 .l2_mode("private").noc(latency=6).vlen(512)
                 .build())
        direct = SimulationConfig.for_cores(
            4, l2_mode="private", vlen_bits=512,
            **{"noc.latency": 6})
        assert built == direct

    def test_builder_is_exported_everywhere(self):
        assert api.ConfigBuilder is ConfigBuilder


class TestReExports:
    def test_every_facade_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_check_api_lint_passes(self):
        assert check() == 0


class TestCheckApi:
    def test_a_dropped_required_name_fails_the_lint(self, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(api, "__all__", [
            name for name in api.__all__ if name != "CampaignService"])
        assert check() == 1
        assert "required public name 'CampaignService'" \
            in capsys.readouterr().err

    def test_an_unresolvable_name_fails_the_lint(self, monkeypatch,
                                                 capsys):
        monkeypatch.setattr(api, "__all__", [*api.__all__, "no_such_name"])
        assert check() == 1
        assert "lists 'no_such_name' but the module does not define it" \
            in capsys.readouterr().err


class TestPackageInits:
    def test_importing_a_package_loads_nothing_else(self):
        # The package inits hold docstrings only: a fresh process that
        # imports them has loaded neither the facade nor a submodule.
        probe = ("import sys, repro.coyote, repro.resilience, "
                 "repro.service\n"
                 "print(sorted(name for name in ('repro.api', "
                 "'repro.coyote.orchestrator', 'repro.service.journal', "
                 "'repro.resilience.watchdog') if name in sys.modules))")
        output = subprocess.run([sys.executable, "-c", probe], check=True,
                                capture_output=True, text=True).stdout
        assert output.strip() == "[]"


class TestInstantiate:
    def test_size_keyword_routing(self):
        matmul = instantiate("scalar-matmul", 2, 6)
        assert matmul.program
        axpy = instantiate("vector-axpy", 2, 64)
        assert axpy.program

    def test_unknown_kernel_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            instantiate("bogus", 2, 8)
