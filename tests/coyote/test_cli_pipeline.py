"""What the one run/profile pipeline and the one serve guard fixed.

Each test fails on the parent of the change that introduced them:
config flags layer over ``--config``; a workload that refuses its size
is a configuration error under both commands; ``profile`` takes the
whole config group; ``serve``/``cluster`` keep the service's own retry
policy; a plain run imports no campaign code; ``--help`` names the
subcommands.
"""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.coyote import cli
from repro.coyote.config import SimulationConfig
from repro.service.service import CampaignService

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
MATMUL = ["--kernel", "scalar-matmul", "--size", "6"]


def test_config_flags_layer_over_a_config_file(tmp_path, capsys):
    loaded = tmp_path / "c.json"
    effective = tmp_path / "effective.json"
    SimulationConfig.for_cores(2, l2_mode="private").save(loaded)
    assert cli.main(MATMUL + [
        "--config", str(loaded), "--mem-latency", "400",
        "--noc-topology", "mesh", "--no-translate", "--watchdog", "90000",
        "--save-config", str(effective)]) == cli.EXIT_OK
    assert "cores                : 2" in capsys.readouterr().out
    assert SimulationConfig.load(effective) == SimulationConfig.for_cores(
        2, l2_mode="private", mem_latency=400, translate=False,
        **{"noc.kind": "mesh", "resilience.watchdog_cycles": 90000})


def test_a_config_file_alone_is_used_as_written(tmp_path, capsys):
    loaded = tmp_path / "c.json"
    effective = tmp_path / "effective.json"
    config = SimulationConfig.for_cores(2, mem_latency=250, translate=False)
    config.save(loaded)
    assert cli.main(MATMUL + ["--config", str(loaded),
                              "--save-config", str(effective)]) == cli.EXIT_OK
    capsys.readouterr()
    assert SimulationConfig.load(effective) == config


def test_a_trace_path_in_a_missing_directory_is_refused_up_front(
        tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(MATMUL + ["--cores", "2",
                           "--trace", str(tmp_path / "missing" / "t")])
    assert excinfo.value.code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "output directory does not exist" in captured.err
    assert "cores                :" not in captured.out


@pytest.mark.parametrize("command", [[], ["profile"]])
def test_a_refused_size_is_a_configuration_error(command, capsys):
    assert cli.main(command + ["--kernel", "fft-radix2", "--cores", "2",
                               "--size", "24"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "power of two" in err


def test_profile_takes_the_whole_config_group(tmp_path, capsys):
    """The point ROADMAP item 3 is about, profiled from the shell."""
    out = tmp_path / "profile.json"
    assert cli.main(["profile", "--kernel", "spmv-csr-gather-reduce",
                     "--cores", "4", "--size", "64", "--noc-topology",
                     "mesh", "--no-translate", "--json", str(out)]) \
        == cli.EXIT_OK
    assert "translator" not in capsys.readouterr().out   # interpreter only
    document = json.loads(out.read_text())
    assert document["verified"] is True
    for stack in document["cpi_stacks"]:
        assert sum(stack["classes"].values()) == document["cycles"]


class TestServiceRetryPolicy:
    @pytest.fixture
    def served(self, monkeypatch):
        """The services ``serve``/``cluster`` built, caught at ``serve()``."""
        built = []

        @functools.wraps(CampaignService.serve)     # flags read its defaults
        def serve(self, **_kwargs):
            built.append(self)
            return cli.EXIT_OK

        monkeypatch.setattr(CampaignService, "serve", serve)
        return built

    @pytest.mark.parametrize("command", [["serve"],
                                         ["cluster", "--nodes", "0"]])
    def test_default_is_the_services_own(self, command, served, tmp_path):
        assert cli.main(command + ["--root", str(tmp_path / "root"),
                                   "--log-level", "error"]) == cli.EXIT_OK
        assert served[0].policy.retry \
            == CampaignService(tmp_path / "other").policy.retry

    @pytest.mark.parametrize("command", [["serve"],
                                         ["cluster", "--nodes", "0"]])
    def test_max_retries_changes_only_the_attempt_count(self, command,
                                                        served, tmp_path):
        assert cli.main(command + ["--root", str(tmp_path / "root"),
                                   "--log-level", "error",
                                   "--max-retries", "5"]) == cli.EXIT_OK
        assert served[0].policy.retry == replace(
            CampaignService(tmp_path / "other").policy.retry, max_attempts=6)


def test_a_plain_run_imports_no_campaign_code():
    script = (
        "import sys\n"
        "from repro.coyote.cli import main\n"
        "code = main(['--kernel', 'scalar-matmul', '--cores', '2',"
        " '--size', '8'])\n"
        "loaded = sorted(name for name in sys.modules if name in ("
        "'repro.api', 'repro.coyote.parallel', 'repro.coyote.cli.campaign',"
        " 'multiprocessing', 'socket') or name.startswith('repro.service'))\n"
        "print('campaign modules:', loaded)\n"
        "sys.exit(code or bool(loaded))\n")
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        timeout=120)
    assert done.returncode == 0, done.stdout[-400:] + done.stderr[-400:]
    assert "campaign modules: []" in done.stdout


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--help"])
    assert exit_info.value.code == 0
    epilog = capsys.readouterr().out.split("subcommands")[1]
    for command in ("profile", "sweep", "jobs", "serve", "cluster"):
        assert f"\n  {command}" in epilog
