"""Invariants of the one name -> field table (``config_paths``) and of
everything derived from it: ``for_cores`` overrides, the CLI's flag
table, ``ConfigBuilder``'s setters, sweep axes.
"""

import dataclasses

import pytest

from repro import api
from repro.coyote import cli
from repro.coyote.config import (
    ConfigBuilder,
    SimulationConfig,
    config_paths,
    config_trail,
)
from repro.coyote.sweep import Sweep, SweepError
from repro.memhier.noc import NocConfig
from repro.resilience.config import FaultSpec, ResilienceConfig
from repro.spike.simulator import L1Config
from repro.telemetry.config import TelemetryConfig
from tests.coyote.test_cli_surface import CONFIG_FLAGS as PINNED_FLAGS
from tests.coyote.test_cli_surface import changed, leaves

BASE = SimulationConfig.for_cores(8)

# A legal non-default value where doubling the default is not one.
OTHER = {
    "l2_mode": "private", "mapping_policy": "page-to-bank",
    "noc.kind": "mesh", "noc.routing": "yx",
    "resilience.faults": [FaultSpec(kind="delay", extra=3)],
    "noc": NocConfig(columns=2), "l1": L1Config(associativity=4),
    "telemetry": TelemetryConfig(histograms=True),
    "resilience": ResilienceConfig(fault_seed=9),
}
# The two line sizes must agree, so each moves with the other.
TOGETHER = {"line_bytes": "l1.line_bytes", "l1.line_bytes": "line_bytes"}


def other_value(path):
    if path in OTHER:
        return OTHER[path]
    value = BASE.get(path)
    if isinstance(value, bool):
        return not value
    assert isinstance(value, int), f"no non-default value for {path}"
    return value * 2 or 1


def leaf(path):
    return ".".join(config_trail(path))


class TestEveryPath:
    def test_the_walker_finds_every_section_without_naming_one(self):
        paths = config_paths()
        for section in ("noc", "l1", "telemetry", "resilience"):
            assert section in paths               # the whole object
            assert any(path.startswith(section + ".") for path in paths)
        assert "memhier" not in paths             # flattened, not a section
        assert paths["mem_latency"] == ("memhier", "mem_latency")
        assert paths["noc.kind"] == ("memhier", "noc", "kind")
        assert paths["l1.dcache_bytes"] == ("l1", "dcache_bytes")
        # No leaf of to_dict() is unreachable, none is claimed twice.
        trails = [".".join(trail) for trail in paths.values()]
        assert len(set(trails)) == len(trails)
        assert set(leaves(BASE.to_dict())) <= set(trails)

    @pytest.mark.parametrize("path", sorted(config_paths()))
    def test_round_trips_through_for_cores(self, path):
        value = other_value(path)
        overrides = {path: value}
        if path in TOGETHER:
            overrides[TOGETHER[path]] = value
        config = SimulationConfig.for_cores(8, **overrides)
        assert config.get(path) == value
        moved = changed(leaves(BASE.to_dict()), leaves(config.to_dict()))
        if path in TOGETHER:
            del moved[leaf(TOGETHER[path])]
        if dataclasses.is_dataclass(value):       # a whole section: one
            (name,) = moved                       # field of it differs
            assert name.startswith(leaf(path) + ".")
        else:
            assert list(moved) == [leaf(path)]

    def test_an_unknown_path_is_one_value_error_naming_it(self):
        for build in (
                lambda: SimulationConfig.for_cores(8, l2mode="private"),
                lambda: SimulationConfig.for_cores(8, **{"noc.latncy": 3}),
                lambda: SimulationConfig.for_cores(8, **{"l2.mode": 1}),
                lambda: BASE.with_overrides(memhier=BASE.memhier),
                lambda: SimulationConfig.builder(8).set(vlen=512).build()):
            with pytest.raises(ValueError, match="unknown configuration"):
                build()

    def test_with_overrides_copies(self):
        layered = BASE.with_overrides(**{"telemetry.histograms": True,
                                         "mem_latency": 7})
        assert layered.telemetry.histograms and layered.get("mem_latency") == 7
        assert BASE == SimulationConfig.for_cores(8)


class TestWholeSections:
    @pytest.mark.parametrize("whole, dotted", [
        ({"telemetry": TelemetryConfig(histograms=True)},
         {"telemetry.sample_interval": 100}),
        ({"resilience": ResilienceConfig(fault_seed=9)},
         {"resilience.watchdog_cycles": 5000}),
        ({"l1": L1Config(associativity=4)}, {"l1.dcache_bytes": 65536}),
        ({"noc": NocConfig(kind="mesh", columns=2)}, {"noc.routing": "yx"}),
        # The config-file spelling of a section, as a service spec has it.
        ({"noc": {"kind": "mesh", "columns": 2}}, {"noc.routing": "yx"}),
    ])
    def test_dotted_keys_layer_on_a_whole_object(self, whole, dotted):
        (section, value), = whole.items()
        (path, setting), = dotted.items()
        if isinstance(value, dict):
            value = NocConfig(**value)
        config = SimulationConfig.for_cores(8, **whole, **dotted)
        assert config.get(section) == dataclasses.replace(
            value, **{path.partition(".")[2]: setting})


class TestCliTable:
    def test_the_table_is_the_pinned_flag_set(self):
        assert set(cli.CONFIG_FLAGS) == set(PINNED_FLAGS)

    @pytest.mark.parametrize("flag", cli.CONFIG_FLAGS)
    def test_row_resolves_and_dest_is_the_flag_name(self, flag):
        path, help = cli.CONFIG_FLAGS[flag]
        assert config_trail(path) and help
        assert leaf(path) == PINNED_FLAGS[flag][1]
        for parser in (cli.build_parser(), cli.build_profile_parser()):
            (action,) = [action for action in parser._actions
                         if flag in action.option_strings]
            assert action.dest == flag[2:].replace("-", "_")

    def test_choices_are_the_constants_validate_checks(self):
        assert set(cli.CHOICES) <= {path for path, _help
                                    in cli.CONFIG_FLAGS.values()}
        for path, choices in cli.CHOICES.items():
            for choice in choices:       # every allowed value validates
                SimulationConfig.for_cores(8, **{path: choice})


class TestBuilderSetters:
    SETTERS = {
        "l2_mode": "private", "mapping": "page-to-bank", "mem_latency": 50,
        "vlen": 1024, "max_cycles": 1000, "trace_misses": True,
        "translate": False, "telemetry": TelemetryConfig(histograms=True),
        "resilience": ResilienceConfig(fault_seed=3),
    }

    def test_the_nine_named_setters_are_all_there_is(self):
        public = {name for name in vars(ConfigBuilder)
                  if not name.startswith("_")}
        assert public - {"cores", "set", "noc", "build"} == set(self.SETTERS)

    @pytest.mark.parametrize("setter", sorted(SETTERS))
    def test_setter_is_one_set_call_on_a_real_path(self, setter):
        builder = SimulationConfig.builder(8)
        assert getattr(builder, setter)(self.SETTERS[setter]) is builder
        ((path, value),) = builder._overrides.items()
        assert value is self.SETTERS[setter]
        assert builder.build().get(path) == value

    def test_noc_goes_through_the_same_names(self):
        builder = SimulationConfig.builder(8).noc("torus", routing="yx")
        assert set(builder._overrides) == {"noc.kind", "noc.routing"}
        assert all(config_trail(path) for path in builder._overrides)


class TestSweepNames:
    def test_axis_and_override_names_are_checked_at_construction(self):
        for build in (
                lambda: Sweep(base_cores=2, axes={"l2mode": ["shared"]}),
                lambda: Sweep(base_cores=2, axes={"noc.latency": [2]},
                              mem_latncy=100),
                lambda: api.sweep("vector-axpy", cores=2, size=32,
                                  axes={"noc.latncy": [2]})):
            with pytest.raises(SweepError, match="unknown configuration"):
                build()

    def test_any_section_is_an_axis(self):
        table = api.sweep("vector-axpy", cores=2, size=32, axes={
            "l1.dcache_bytes": [16384, 32768],
            "resilience.watchdog_cycles": [100000]})
        assert [point.settings["l1.dcache_bytes"]
                for point in table.points] == [16384, 32768]
        assert not table.failures()
