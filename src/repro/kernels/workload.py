"""The Workload abstraction: an assembled kernel plus its verifier."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.assembler import DataBlock, assemble
from repro.assembler.program import Program


@dataclass
class Workload:
    """An assembled kernel with metadata and an output verifier.

    ``verify(memory)`` reads the kernel's outputs from simulated memory
    and compares them against the numpy reference, returning ``True`` on
    match.
    """

    name: str
    program: Program
    num_cores: int
    verify: Callable[[Any], bool]
    expected: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        details = ", ".join(f"{key}={value}"
                            for key, value in self.metadata.items())
        return f"<Workload {self.name} cores={self.num_cores} {details}>"


def build_workload(name: str, source: str, num_cores: int,
                   output_symbol: str, expected: np.ndarray,
                   metadata: dict | None = None,
                   rtol: float = 1e-10,
                   data: Sequence[DataBlock] = ()) -> Workload:
    """Assemble ``source`` plus its ``data`` blocks and wire a float64
    output verifier."""
    program = assemble(source, data=data)
    address = program.symbols[output_symbol]
    flat_expected = np.asarray(expected, dtype=np.float64).ravel()

    def verify(memory) -> bool:
        raw = memory.load_bytes(address, 8 * flat_expected.size)
        actual = np.frombuffer(raw, dtype=np.float64)
        return bool(np.allclose(actual, flat_expected, rtol=rtol,
                                atol=1e-12))

    return Workload(name=name, program=program, num_cores=num_cores,
                    verify=verify, expected=flat_expected,
                    metadata=metadata or {})
