"""The ``coyote-sim`` flag surface, pinned.

Two things a refactor of the CLI must not move:

* per parser (and per ``jobs`` subparser) every option's strings,
  ``dest``, type, choices, ``required`` and action kind — compared with
  the recorded ``cli_surface.json`` (run this file as a script to
  re-record it: ``PYTHONPATH=src python tests/coyote/test_cli_surface.py``);
* what the configuration flags *do*: no flags builds
  ``SimulationConfig.for_cores(8)``, and each single-field flag alone
  changes exactly its one leaf of ``to_dict()`` — for the plain run and
  for ``profile``.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.coyote import cli
from repro.coyote.cli import campaign
from repro.coyote.config import SimulationConfig
from repro.coyote.simulation import Simulation

SNAPSHOT = Path(__file__).with_name("cli_surface.json")
RECORDED = json.loads(SNAPSHOT.read_text()) if SNAPSHOT.exists() else {}

PARSERS = {
    "run": cli.build_parser,
    "profile": cli.build_profile_parser,
    "sweep": campaign.build_sweep_parser,
    "serve": campaign.build_serve_parser,
    "cluster": campaign.build_cluster_parser,
    "jobs": campaign.build_jobs_parser,
}


def describe(parser: argparse.ArgumentParser) -> dict:
    """``{first option string or positional dest: its description}``."""
    options = {}
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction,
                               argparse._SubParsersAction)):
            continue
        key = (action.option_strings[0] if action.option_strings
               else action.dest)
        options[key] = {
            "strings": list(action.option_strings),
            "dest": action.dest,
            "type": getattr(action.type, "__name__", None),
            "choices": (None if action.choices is None
                        else list(action.choices)),
            "required": action.required,
            "action": type(action).__name__,
        }
    return dict(sorted(options.items()))


def surface() -> dict:
    """Every parser's options, ``jobs`` subparsers as ``jobs NAME``."""
    recorded = {}
    for name, builder in PARSERS.items():
        parser = builder()
        recorded[name] = describe(parser)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for command, sub in action.choices.items():
                    recorded[f"{name} {command}"] = describe(sub)
    return recorded


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_parser_matches_the_recorded_surface(name):
    assert surface()[name] == RECORDED[name]


def test_no_parser_is_missing_from_the_snapshot():
    assert sorted(surface()) == sorted(RECORDED)


# flag -> (argv after the flag, the to_dict() leaf it sets, the value).
CONFIG_FLAGS = {
    "--l2-mode": (["private"], "memhier.l2_mode", "private"),
    "--mapping": (["page-to-bank"], "memhier.mapping_policy",
                  "page-to-bank"),
    "--noc-topology": (["mesh"], "memhier.noc.kind", "mesh"),
    "--noc-routing": (["yx"], "memhier.noc.routing", "yx"),
    "--noc-columns": (["2"], "memhier.noc.columns", 2),
    "--noc-router-latency": (["3"], "memhier.noc.router_latency", 3),
    "--noc-link-latency": (["3"], "memhier.noc.link_latency", 3),
    "--noc-link-capacity": (["2"], "memhier.noc.link_capacity", 2),
    "--noc-wrap": ([], "memhier.noc.wrap", True),
    "--noc-crossbar-latency": (["9"], "memhier.noc.latency", 9),
    "--mem-latency": (["250"], "memhier.mem_latency", 250),
    "--vlen": (["1024"], "vlen_bits", 1024),
    "--no-translate": ([], "translate", False),
    "--sample-interval": (["500"], "telemetry.sample_interval", 500),
    "--fault-seed": (["7"], "resilience.fault_seed", 7),
    "--watchdog": (["5000"], "resilience.watchdog_cycles", 5000),
    "--check-invariants": (["400"], "resilience.invariant_interval", 400),
}

WORKLOAD = ["--kernel", "scalar-matmul", "--size", "4"]


def leaves(document: dict, prefix: str = "") -> dict:
    """Flatten nested dicts to ``{"a.b.c": value}``."""
    flat = {}
    for key, value in document.items():
        if isinstance(value, dict):
            flat.update(leaves(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.fixture
def effective_config(monkeypatch):
    """``effective_config(argv)``: the configuration the CLI hands the
    simulation for ``argv``, caught at ``Simulation.run``."""
    seen = []

    def capture(self, pause_at=None):
        seen.append(self.config)
        raise KeyboardInterrupt

    monkeypatch.setattr(Simulation, "run", capture)

    def effective(argv):
        assert cli.main(argv) == cli.EXIT_INTERRUPT
        return leaves(seen.pop().to_dict())

    return effective


def changed(before: dict, after: dict) -> dict:
    assert before.keys() == after.keys()
    return {key: after[key] for key in after if after[key] != before[key]}


class TestRunConfigFlags:
    def test_no_flags_is_for_cores_8(self, effective_config):
        assert effective_config(WORKLOAD) \
            == leaves(SimulationConfig.for_cores(8).to_dict())

    @pytest.mark.parametrize("flag", CONFIG_FLAGS)
    def test_flag_alone_sets_exactly_its_path(self, flag,
                                              effective_config):
        values, leaf, value = CONFIG_FLAGS[flag]
        assert changed(effective_config(WORKLOAD),
                       effective_config(WORKLOAD + [flag, *values])) \
            == {leaf: value}


class TestProfileConfigFlags:
    ARGV = ["profile", *WORKLOAD]

    def test_no_flags_is_for_cores_8_with_the_guest_profiler(
            self, effective_config):
        assert changed(leaves(SimulationConfig.for_cores(8).to_dict()),
                       effective_config(self.ARGV)) \
            == {"telemetry.guest_profile": True}

    @pytest.mark.parametrize("flag", CONFIG_FLAGS)
    def test_flag_alone_sets_exactly_its_path(self, flag,
                                              effective_config):
        values, leaf, value = CONFIG_FLAGS[flag]
        assert changed(effective_config(self.ARGV),
                       effective_config(self.ARGV + [flag, *values])) \
            == {leaf: value}


if __name__ == "__main__":
    # One line per option, so a surface change reads as a line diff.
    parsers = ",\n".join(
        f' {json.dumps(name)}: {{\n' + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(option)}"
            for key, option in options.items()) + "\n }"
        for name, options in surface().items())
    SNAPSHOT.write_text("{\n" + parsers + "\n}\n")
    print(f"recorded {SNAPSHOT}")
