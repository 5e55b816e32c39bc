"""The ``coyote-sim profile`` subcommand (flat, annotated, JSON)."""

import json
import re

import pytest

from repro.coyote.cli import EXIT_CONFIG, main as cli_main
from repro.spike.simulator import CoreModel, StepStatus
from repro.telemetry.profile_report import PROFILE_SCHEMA


def test_profile_flat_report(capsys):
    exit_code = cli_main(["profile", "--kernel", "scalar-spmv",
                          "--cores", "2", "--size", "8"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "output verified      : True" in captured.out
    assert "CPI stack (aggregate over 2 core(s)" in captured.out
    assert "hot blocks" in captured.out
    assert "retired" in captured.out


def test_profile_lists_translator_counters(capsys):
    exit_code = cli_main(["profile", "--kernel", "vector-matmul",
                          "--cores", "2", "--size", "16"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "blocks compiled" in captured.out
    assert re.search(r"\(whole \d+, micro \d+, single \d+\)", captured.out)
    enders = next(line for line in captured.out.splitlines()
                  if line.startswith("block enders"))
    assert " v" not in enders.split(":", 1)[1]


@pytest.mark.parametrize("kernel,cores", [
    ("scalar-matmul", 1), ("vector-matmul", 4), ("scalar-spmv", 8)])
def test_dispatch_counts_conserve(kernel, cores, tmp_path, capsys,
                                  monkeypatch):
    """Every retired instruction is counted once: by the block
    dispatch (of one shape) that retired it, or as an interpreter step
    — counted here at ``CoreModel.step``, not derived."""
    stepped = []
    step = CoreModel.step

    def counted(core):
        outcome = step(core)
        stepped.append(outcome.status is StepStatus.EXECUTED)
        return outcome
    monkeypatch.setattr(CoreModel, "step", counted)
    out = tmp_path / "profile.json"
    assert cli_main(["profile", "--kernel", kernel, "--cores", str(cores),
                     "--size", "8", "--json", str(out)]) == 0
    document = json.loads(out.read_text())
    dispatch = document["translator"]["dispatch"]
    assert set(dispatch) == {"whole", "micro", "single"}
    assert all(0 <= tally["dispatches"] <= tally["instructions"]
               for tally in dispatch.values())
    retired = sum(tally["instructions"] for tally in dispatch.values())
    assert retired + sum(stepped) == document["instructions"]
    # One live core runs whole blocks; two or more never do.
    assert (dispatch["whole"]["dispatches"] > 0) == (cores == 1)
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("dispatches"))
    assert line.endswith(f"interpreter steps {sum(stepped)}")
    assert re.search(r"micro \d+\.\d% at \d\.\d\d", line)


def test_unobserved_and_untranslated_runs_count_no_dispatches(
        tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert cli_main(["--kernel", "scalar-matmul", "--cores", "2",
                     "--size", "6", "--metrics-out", str(out)]) == 0
    translator = json.loads(out.read_text())["host_profile"]["translator"]
    assert translator["by_shape"]["single"] > 0
    assert "dispatch" not in translator     # absent, not zero
    profile = tmp_path / "profile.json"
    assert cli_main(["profile", "--kernel", "scalar-matmul", "--cores", "2",
                     "--size", "6", "--no-translate",
                     "--json", str(profile)]) == 0
    assert "translator" not in json.loads(profile.read_text())
    assert "dispatches" not in capsys.readouterr().out


def test_profile_annotated_and_per_core(capsys):
    exit_code = cli_main(["profile", "--kernel", "scalar-matmul",
                          "--cores", "2", "--size", "6",
                          "--annotate", "--per-core", "--top", "3"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "CPI stack (core 1)" in captured.out
    assert "block #1" in captured.out


def test_profile_json_document(tmp_path, capsys):
    out = tmp_path / "profile.json"
    exit_code = cli_main(["profile", "--kernel", "scalar-spmv",
                          "--cores", "2", "--size", "8",
                          "--json", str(out)])
    assert exit_code == 0, capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["schema"] == PROFILE_SCHEMA
    assert document["kernel"] == "scalar-spmv"
    assert document["verified"] is True
    assert document["hot_blocks"]
    for stack in document["cpi_stacks"]:
        assert sum(stack["classes"].values()) == document["cycles"]


def test_profile_chrome_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    exit_code = cli_main(["profile", "--kernel", "scalar-spmv",
                          "--cores", "2", "--size", "8",
                          "--chrome-trace", str(out)])
    assert exit_code == 0, capsys.readouterr().out
    trace = json.loads(out.read_text())
    assert any(event.get("ph") == "C"
               for event in trace["traceEvents"])


@pytest.mark.parametrize("argv", [
    ["profile", "--json", "/nonexistent-dir/p.json"],
    ["profile", "--top", "0"],
])
def test_profile_config_errors(argv, capsys):
    exit_code = cli_main(argv)
    captured = capsys.readouterr()
    assert exit_code == EXIT_CONFIG
    assert "configuration error" in captured.err
