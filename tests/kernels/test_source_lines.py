"""Kernel data must not reach the assembler as text.

The deterministic stand-in for a build-time gate: whatever a kernel's
arrays hold, the source it hands ``assemble`` is its code plus the
runtime scaffolding — a few hundred lines at most — and everything else
travels as :class:`~repro.assembler.DataBlock` bytes.
"""

import importlib

import pytest

import repro.assembler
from repro.kernels import KERNELS

MAX_SOURCE_LINES = 300
# Every module under repro.kernels that calls ``assemble``, by path:
# the package re-exports a *function* called ``histogram``.
ASSEMBLE_CALLERS = [importlib.import_module(f"repro.kernels.{name}")
                    for name in ("workload", "extras", "fft", "histogram")]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_default_build_hands_the_assembler_code_only(name, monkeypatch):
    line_counts = []

    def counting_assemble(source, *args, **kwargs):
        line_counts.append(source.count("\n"))
        return repro.assembler.assemble(source, *args, **kwargs)

    for module in ASSEMBLE_CALLERS:
        monkeypatch.setattr(module, "assemble", counting_assemble)
    KERNELS[name]()
    assert len(line_counts) == 1
    assert line_counts[0] <= MAX_SOURCE_LINES
