"""Smoke tests: the shipped examples must run cleanly end to end."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))

# A line each example prints only once its own checks have passed.
EXPECTED = {
    "quickstart.py": "result matches numpy: True",
    "chaos_campaign.py":
        "campaign: 2 ok, 2 quarantined, 2 worker(s) — terminated cleanly",
    "codesign_compression.py": "-> compressed wins at scarce bandwidth",
    "paraver_trace_analysis.py": "misses completing per time bin:",
    "spmv_design_space.py": "banded     private  page-to-bank",
    "stencil_scaling.py": "Speedup saturates",
    "sweep_api.py": "campaign: 8/8 points succeeded across 2 worker(s)",
}


def run_example(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=600)


def test_examples_directory_complete():
    """The directory is what the README's table and DESIGN.md point at."""
    readme = (REPO / "README.md").read_text()
    referenced = set(re.findall(r"^\| `(\w+\.py)` \|", readme, re.MULTILINE))
    referenced.update(re.findall(
        r"examples/(\w+\.py)", readme + (REPO / "DESIGN.md").read_text()))
    assert referenced == set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_fast_example_runs(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert EXPECTED[name] in result.stdout


def test_every_example_compiles():
    """All examples must at least be importable/compilable."""
    for path in EXAMPLES_DIR.glob("*.py"):
        source = path.read_text()
        compile(source, str(path), "exec")
        assert '"""' in source, f"{path.name} lacks a docstring"
        assert "def main(" in source, f"{path.name} lacks main()"
