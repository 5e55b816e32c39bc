"""Tests for SimulationConfig."""

import json

import pytest

from repro.coyote.config import SimulationConfig
from repro.memhier.noc import NocConfig
from repro.spike.simulator import L1Config


class TestForCores:
    def test_small_counts_single_tile(self):
        for cores in (1, 2, 4):
            config = SimulationConfig.for_cores(cores)
            assert config.num_cores == cores
            assert config.memhier.num_tiles == 1

    def test_eight_cores_one_tile(self):
        config = SimulationConfig.for_cores(8)
        assert config.memhier.num_tiles == 1
        assert config.memhier.cores_per_tile == 8

    def test_large_counts_use_tiles(self):
        config = SimulationConfig.for_cores(128)
        assert config.memhier.num_tiles == 16
        assert config.num_cores == 128

    def test_non_tileable_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(12)

    def test_non_power_of_two_tiles_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(24)  # 3 tiles

    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(0)

    def test_memhier_overrides(self):
        config = SimulationConfig.for_cores(
            8, l2_mode="private", mapping_policy="page-to-bank",
            **{"noc.latency": 12})
        assert config.memhier.l2_mode == "private"
        assert config.memhier.mapping_policy == "page-to-bank"
        assert config.memhier.noc.latency == 12
        assert config.noc.latency == 12  # the SimulationConfig view

    def test_noc_overrides(self):
        config = SimulationConfig.for_cores(
            8, **{"noc.kind": "torus", "noc.routing": "adaptive",
                  "noc.columns": 2, "noc.link_capacity": 2})
        noc = config.noc
        assert noc.kind == "torus" and noc.wrap
        assert noc.routing == "adaptive"
        assert noc.columns == 2 and noc.link_capacity == 2

    def test_whole_noc_object_override(self):
        noc = NocConfig(kind="mesh", columns=2)
        config = SimulationConfig.for_cores(8, noc=noc)
        assert config.noc == noc
        # Dotted keys layer on top of the whole-object override.
        layered = SimulationConfig.for_cores(
            8, noc=noc, **{"noc.routing": "yx"})
        assert layered.noc.columns == 2
        assert layered.noc.routing == "yx"

    def test_unknown_noc_override_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(8, **{"noc.bogus": 1})

    def test_config_level_overrides(self):
        config = SimulationConfig.for_cores(8, vlen_bits=1024,
                                            trace_misses=True)
        assert config.vlen_bits == 1024 and config.trace_misses


class TestValidation:
    def test_bad_vlen(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(1, vlen_bits=100)

    def test_line_size_mismatch(self):
        with pytest.raises(ValueError):
            SimulationConfig(l1=L1Config(line_bytes=32))

    def test_bad_max_cycles(self):
        with pytest.raises(ValueError):
            SimulationConfig.for_cores(1, max_cycles=0)


# Values a unit of the model refuses.  ``for_cores`` must refuse them
# too, so a sweep point, a journaled job or the CLI reports a
# configuration error rather than a traceback from ``Simulation()`` or,
# for a negative bank latency, from an event scheduled into the past.
REFUSED_BY_THE_MODEL = {
    "mem_cycles_per_request": {"mem_cycles_per_request": 0},
    "mem_latency": {"mem_latency": 0},
    "prefetch_depth": {"prefetch_depth": -1},
    "l2_max_in_flight": {"l2_max_in_flight": 0},
    "l2_cycles_per_request": {"l2_cycles_per_request": -1},
    "l2_associativity": {"l2_associativity": 3},
    "l2_bank_bytes": {"l2_bank_bytes": 1000},
    "page_bytes": {"page_bytes": 100},
    "l1.associativity": {"l1.associativity": 3},
    "l1.dcache_bytes": {"l1.dcache_bytes": 1000},
    "l1.icache_bytes": {"l1.icache_bytes": 0},
    "l2_hit_latency": {"l2_hit_latency": -5},
    "l2_miss_latency": {"l2_miss_latency": -3},
    "l3_hit_latency": {"l3_enable": True, "l3_hit_latency": -1},
    "l3_max_in_flight": {"l3_enable": True, "l3_max_in_flight": 0},
    "l3_bank_bytes": {"l3_enable": True, "l3_bank_bytes": 1000},
}


@pytest.mark.parametrize("overrides", REFUSED_BY_THE_MODEL.values(),
                         ids=REFUSED_BY_THE_MODEL)
def test_what_the_model_refuses_is_refused_by_for_cores(overrides):
    with pytest.raises(ValueError):
        SimulationConfig.for_cores(2, **overrides)


def test_the_cli_reports_a_refused_value_as_a_configuration_error(
        tmp_path, capsys):
    from repro.coyote import cli

    kernel = ["--kernel", "vector-axpy", "--size", "16"]
    assert cli.main([*kernel, "--cores", "2", "--mem-latency", "0"]) \
        == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    document = SimulationConfig.for_cores(2).to_dict()
    document["memhier"]["l2_hit_latency"] = -4
    path = tmp_path / "c.json"
    path.write_text(json.dumps(document))
    assert cli.main([*kernel, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
