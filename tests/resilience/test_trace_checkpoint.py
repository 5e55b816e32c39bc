"""A checkpoint carries the run's traces.

A run paused and resumed through the CLI writes the Chrome trace-event
JSON and the Paraver ``.prv`` of an uninterrupted run, byte for byte,
and so does a committed checkpoint paused with both traces on.
"""

from pathlib import Path

from repro.coyote import cli
from repro.api import load_checkpoint
from tests.resilience.fixtures import MATMUL_TRACED

SPMV = ["--kernel", "spmv-csr-gather-reduce", "--cores", "8",
        "--size", "64", "--noc-topology", "mesh"]


def _traces(tmp_path: Path, tag: str, *argv: str) -> dict[str, bytes]:
    """Run the CLI with both traces on; the bytes of each."""
    base = tmp_path / tag
    assert cli.main([*argv, "--chrome-trace", f"{base}.json",
                     "--trace", str(base)]) == cli.EXIT_OK
    return {suffix: base.with_suffix(suffix).read_bytes()
            for suffix in (".json", ".prv")}


def test_a_resumed_cli_run_writes_the_straight_run_traces(tmp_path, capsys):
    checkpoint = tmp_path / "spmv.ckpt"
    assert cli.main([*SPMV, "--chrome-trace", str(tmp_path / "unused.json"),
                     "--trace", str(tmp_path / "unused"), "--pause-at", "900",
                     "--checkpoint-out", str(checkpoint)]) == cli.EXIT_OK
    assert "(cycle 900)" in capsys.readouterr().out
    assert _traces(tmp_path, "resumed", "--resume", str(checkpoint)) \
        == _traces(tmp_path, "straight", *SPMV)


def test_a_committed_traced_checkpoint_resumes_to_the_same_bytes(tmp_path):
    simulation, _ = load_checkpoint(MATMUL_TRACED.path)
    records = simulation.telemetry.chrome._records
    assert sum(isinstance(record, tuple) for record in records) > 100
    assert _traces(tmp_path, "resumed", "--resume",
                   str(MATMUL_TRACED.path)) \
        == _traces(tmp_path, "straight", "--kernel", "scalar-matmul",
                   "--cores", "4", "--size", "8")
