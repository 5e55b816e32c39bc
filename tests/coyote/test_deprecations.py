"""Retired spellings fail loudly through the ordinary rejection paths.

The PR 4 / PR 9 deprecation shims served their warning period and are
gone.  Each old spelling must now be rejected the way any unknown name
is — unknown config key, missing attribute, argparse exit 2 — never
silently accepted, and the canonical spellings must stay warning-free.
One rejection test per retired spelling.
"""

import importlib
import json
import warnings

import pytest

import repro.resilience
from repro.coyote.cli import build_parser, build_profile_parser, main
from repro.coyote.config import ConfigBuilder, SimulationConfig
from repro.coyote.sweep import Sweep, SweepError, SweepTable
from repro.kernels import vector_axpy
from repro.resilience import faults
from repro.resilience.faults import FaultPlan

PLAN_DOC = {
    "seed": 7,
    "faults": [
        {"target": "l2bank", "kind": "delay", "start": 100, "end": 200,
         "probability": 0.25, "extra": 3},
    ],
}

LEGACY_NOC_KEYS = (("noc_kind", "mesh"), ("noc_latency", 3),
                   ("mesh_columns", 2))


def make_axpy():
    return vector_axpy(length=32, num_cores=2)


class TestSweepTableFormat:
    def test_format_is_gone(self):
        assert not hasattr(SweepTable, "format")

    def test_to_text_does_not_warn(self):
        table = Sweep(base_cores=2, axes={"noc.latency": [2]}).run(
            make_axpy)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table.to_text(("cycles",))


class TestLoadFaultPlan:
    def test_load_fault_plan_is_gone(self):
        assert not hasattr(faults, "load_fault_plan")
        with pytest.raises(AttributeError):
            repro.resilience.load_fault_plan

    def test_fault_plan_load_does_not_warn(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(PLAN_DOC))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert FaultPlan.load(path).seed == 7


class TestFlatNocOverrides:
    @pytest.mark.parametrize("legacy, value", LEGACY_NOC_KEYS)
    def test_flat_override_is_an_unknown_key(self, legacy, value):
        with pytest.raises(ValueError, match=legacy):
            SimulationConfig.for_cores(2, **{legacy: value})

    @pytest.mark.parametrize("legacy, value", LEGACY_NOC_KEYS)
    def test_flat_sweep_axis_fails_the_point(self, legacy, value):
        # ... before any point runs: the sweep refuses the name.
        with pytest.raises(SweepError, match=legacy):
            Sweep(base_cores=2, axes={legacy: [value]})

    def test_dotted_spellings_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SimulationConfig.for_cores(
                2, **{"noc.kind": "torus", "noc.routing": "yx"})

    @pytest.mark.parametrize("legacy, value", LEGACY_NOC_KEYS)
    def test_from_dict_rejects_flat_memhier_keys(self, legacy, value):
        data = SimulationConfig.for_cores(2).to_dict()
        data["memhier"][legacy] = value
        with pytest.raises(ValueError,
                           match=f"unknown config keys.*{legacy}"):
            SimulationConfig.from_dict(data)

    def test_config_file_with_flat_key_exits_2(self, tmp_path, capsys):
        data = SimulationConfig.for_cores(2).to_dict()
        data["memhier"]["noc_latency"] = 4
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(data))
        code = main(["--kernel", "vector-axpy", "--config", str(path)])
        assert code == 2
        assert "noc_latency" in capsys.readouterr().err


class TestConfigBuilderNocLatency:
    def test_noc_latency_is_gone(self):
        assert not hasattr(ConfigBuilder, "noc_latency")

    def test_noc_method_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            built = SimulationConfig.builder(2).noc(
                "mesh", latency=9).build()
        assert built.noc.latency == 9


def assert_exit_2(parser, argv, capsys, needle):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    assert info.value.code == 2
    assert needle in capsys.readouterr().err


class TestNocCliAliases:
    def test_noc_alias_is_rejected(self, capsys):
        assert_exit_2(build_parser(),
                      ["--kernel", "scalar-matmul", "--noc", "mesh"],
                      capsys, "--noc")

    def test_noc_latency_alias_is_rejected(self, capsys):
        assert_exit_2(build_parser(),
                      ["--kernel", "scalar-matmul", "--noc-latency", "9"],
                      capsys, "--noc-latency")

    def test_profile_noc_latency_alias_is_rejected(self, capsys):
        assert_exit_2(build_profile_parser(),
                      ["--kernel", "scalar-matmul", "--noc-latency", "9"],
                      capsys, "--noc-latency")

    def test_canonical_flags_stay_silent(self):
        parser = build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(
                ["--kernel", "scalar-matmul",
                 "--noc-topology", "torus", "--noc-routing", "adaptive",
                 "--noc-crossbar-latency", "9"])
        assert args.noc_topology == "torus"
        assert args.noc_routing == "adaptive"
        assert args.noc_crossbar_latency == 9


class TestCheckpointAtAlias:
    def test_checkpoint_at_is_rejected(self, capsys):
        assert_exit_2(build_parser(),
                      ["--kernel", "scalar-matmul",
                       "--checkpoint-at", "1300"],
                      capsys, "--checkpoint-at")

    def test_checkpoint_at_exits_2_from_main(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--kernel", "scalar-matmul", "--checkpoint-at", "1300",
                  "--checkpoint-out", "x.ckpt"])
        assert info.value.code == 2

    def test_canonical_flag_stays_silent(self):
        parser = build_parser()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            args = parser.parse_args(
                ["--kernel", "scalar-matmul", "--pause-at", "1300"])
        assert args.pause_at == 1300


# Package-level paths that re-exported a name whose home is elsewhere:
# ``repro.api`` for the public names, ``repro.coyote.cli.campaign`` for
# the campaign commands, ``repro.kernels.instantiate`` for the CLI's
# old workload wrapper.
RETIRED_IMPORTS = (
    ("repro.coyote", "Simulation"),
    ("repro.resilience", "FaultPlan"),
    ("repro.service", "CampaignService"),
    ("repro.coyote.cli", "sweep_main"),
    ("repro.coyote.cli", "make_workload"),
)


class TestPackageReExports:
    @pytest.mark.parametrize("package, name", RETIRED_IMPORTS)
    def test_old_import_path_is_rejected(self, package, name):
        with pytest.raises(ImportError):
            exec(f"from {package} import {name}", {})
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), name)
