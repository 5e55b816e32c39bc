"""Shared test helpers: assemble-and-run harnesses for tiny programs."""

from __future__ import annotations

import pytest

from repro.assembler import assemble
from repro.soc.memory import SparseMemory
from repro.spike.hart import Hart


TEXT_BASE = 0x8000_0000

# ``--hypothesis-profile=ci``: the deep setting for generated
# differentials that size themselves from the loaded profile
# (tests/coyote/test_fuzz_differential.py).  Still derandomized, so a CI
# failure reproduces locally with the same flag.  Jobs that run only
# hypothesis-free directories (tests/service) install just pytest.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", max_examples=500, derandomize=True,
                              deadline=None)


def make_hart(source: str, vlen_bits: int = 256, hart_id: int = 0) -> Hart:
    """Assemble ``source`` (raw body; no prolog added), load it, and
    return a hart reset to the entry point."""
    program = assemble(source)
    memory = SparseMemory()
    program.load_into(memory)
    hart = Hart(hart_id, memory, vlen_bits=vlen_bits, reset_pc=program.entry)
    hart.program_symbols = program.symbols  # type: ignore[attr-defined]
    return hart


def read_velem(hart: Hart, base_reg: int, index: int, sew: int) -> int:
    """Element ``index`` of the register group starting at ``base_reg``,
    read the way the vector unit reads a group."""
    from repro.spike.vector import lanes, read_group

    group = read_group(hart.vregs, base_reg, (index + 1) * sew // 8,
                       hart.vlenb)
    return lanes("u", sew, index + 1).unpack(group)[index]


def run_steps(hart: Hart, count: int) -> None:
    """Step a hart ``count`` times."""
    for _ in range(count):
        hart.step()


def run_until_ebreak(hart: Hart, max_steps: int = 100_000) -> int:
    """Step until an ``ebreak``; returns the number of steps executed."""
    from repro.spike.hart import Breakpoint

    for step_count in range(max_steps):
        try:
            hart.step()
        except Breakpoint:
            return step_count
    raise AssertionError(f"no ebreak within {max_steps} steps")


@pytest.fixture
def memory() -> SparseMemory:
    return SparseMemory()
