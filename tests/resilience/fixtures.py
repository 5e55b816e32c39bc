"""The committed checkpoints in ``data/``: each one's file, the
``coyote-sim`` arguments that write it, and the metadata the CLI
records in it.

A checkpoint is only read by the source of its own
``CHECKPOINT_FORMAT``, so a format bump rewrites all of them from the
current source, with one command::

    PYTHONPATH=src python tests/resilience/fixtures.py
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.coyote import cli

DATA = Path(__file__).parent / "data"


@dataclass(frozen=True)
class Fixture:
    file: str
    # ``coyote-sim`` arguments less ``--checkpoint-out``; ``{scratch}``
    # stands for a directory for the run's other output files.
    argv: tuple[str, ...]
    metadata: dict

    @property
    def path(self) -> Path:
        return DATA / self.file

    def write(self, scratch: Path) -> None:
        argv = [arg.format(scratch=scratch) for arg in self.argv]
        if cli.main([*argv, "--checkpoint-out", str(self.path)]) \
                != cli.EXIT_OK:
            raise SystemExit(f"coyote-sim {' '.join(argv)} failed")


_MATMUL = ("--kernel", "scalar-matmul", "--cores", "4", "--size", "8")
_MATMUL_METADATA = {"kernel": "scalar-matmul", "cores": 4, "size": 8}

# Events pending and cores 0 and 3 inside a micro-block.
MATMUL = Fixture("scalar-matmul-c4-s8-pause2161.ckpt",
                 (*_MATMUL, "--pause-at", "2161"), _MATMUL_METADATA)
# The invariant checker has run 8 checks and has one still due.
MATMUL_CHECKED = Fixture(
    "scalar-matmul-c4-s8-inv250-pause2161.ckpt",
    (*_MATMUL, "--watchdog", "50000", "--check-invariants", "250",
     "--pause-at", "2161"), _MATMUL_METADATA)
# Both trace builders hold the run so far.
MATMUL_TRACED = Fixture(
    "scalar-matmul-c4-s8-chrome-pause1300.ckpt",
    (*_MATMUL, "--chrome-trace", "{scratch}/unused.json",
     "--trace", "{scratch}/unused", "--pause-at", "1300"),
    _MATMUL_METADATA)
# Messages on routers mid-route, others waiting for delivery, and one
# link granted four cycles into the future.
MESH = Fixture(
    "scalar-spmv-c8-s16-mesh2-pause526.ckpt",
    ("--kernel", "scalar-spmv", "--cores", "8", "--size", "16",
     "--noc-topology", "mesh", "--noc-columns", "2", "--pause-at", "526"),
    {"kernel": "scalar-spmv", "cores": 8, "size": 16})

FIXTURES = (MATMUL, MATMUL_CHECKED, MATMUL_TRACED, MESH)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for fixture in FIXTURES:
            fixture.write(Path(scratch))
