"""Bare-metal runtime scaffolding shared by all kernels.

Provides the boot/exit wrapper (each hart calls ``main`` with
``a0 = hartid`` and exits through the ``tohost`` protocol), assembly
fragments like the per-hart work splitter, and the functions that turn
numpy arrays into :class:`~repro.assembler.DataBlock` bytes — kernel
data reaches the program image as bytes, never as directive text.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.assembler import DataBlock
from repro.utils.bitops import truncate

_PROLOG = """\
.text
.globl _start
_start:
    csrr a0, mhartid
    jal  ra, main
exit:
    slli a0, a0, 1
    ori  a0, a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt_loop:
    j    halt_loop
"""

_TOHOST = """\
.align 3
tohost:
    .dword 0
"""

_label_counter = itertools.count()


def wrap_program(main_body: str, data_section: str) -> str:
    """Assemble the full source: prolog + ``main`` + data + tohost.

    ``main_body`` must define the ``main`` label and return (``ret``) with
    the exit code in ``a0``.  ``data_section`` is directive text for
    hand-written programs; kernels pass ``""`` and give ``assemble``
    their arrays as blocks, which land after ``tohost``.
    """
    return (f"{_PROLOG}\n{main_body}\n.data\n{_TOHOST}\n{data_section}\n")


def range_split(total: str | int, cores: str | int,
                start_reg: str = "s0", end_reg: str = "s1") -> str:
    """Fragment computing this hart's [start, end) slice of ``total`` items.

    Expects ``a0 = hartid``; clobbers ``t0``-``t4``.  Remainder items go
    one-each to the lowest-numbered harts, so any total/cores combination
    divides fully.
    """
    uid = next(_label_counter)
    return f"""\
    li   t0, {total}
    li   t1, {cores}
    divu t2, t0, t1              # q = total / cores
    remu t3, t0, t1              # r = total % cores
    mul  {start_reg}, a0, t2     # start = hid * q
    bltu a0, t3, rs_lo_{uid}     # if hid < r: start += hid; len = q+1
    add  {start_reg}, {start_reg}, t3
    mv   t4, t2
    j    rs_done_{uid}
rs_lo_{uid}:
    add  {start_reg}, {start_reg}, a0
    addi t4, t2, 1
rs_done_{uid}:
    add  {end_reg}, {start_reg}, t4
"""


def barrier(num_cores: int, hartid_reg: str = "a6") -> str:
    """Sense-reversing barrier fragment built on ``amoadd.w``.

    Requires the data section to contain ``bar_cnt``/``bar_gen`` words
    (use :func:`barrier_blocks`).  Clobbers ``t0``-``t5``.  Safe for
    repeated use: the generation counter only ever increments.
    """
    uid = next(_label_counter)
    return f"""\
    la   t0, bar_gen
    lw   t1, 0(t0)           # my generation
    la   t2, bar_cnt
    li   t3, 1
    amoadd.w t4, t3, (t2)    # t4 = arrivals before me
    addi t4, t4, 1
    li   t5, {num_cores}
    bne  t4, t5, bw_{uid}    # not last: wait for the generation bump
    sw   zero, 0(t2)         # last arrival: reset count,
    addi t1, t1, 1           # bump generation, and go
    sw   t1, 0(t0)
    j    bd_{uid}
bw_{uid}:
    lw   t5, 0(t0)
    beq  t5, t1, bw_{uid}
bd_{uid}:
"""


def barrier_blocks() -> tuple[DataBlock, DataBlock]:
    """The two adjacent words the :func:`barrier` fragment spins on."""
    return (DataBlock("bar_cnt", bytes(4)),
            DataBlock("bar_gen", bytes(4), align=4))


def doubles_block(symbol: str, values: np.ndarray | list[float]) -> DataBlock:
    """A float64 array, row-major, bit for bit."""
    return DataBlock(symbol, np.asarray(values, "<f8").tobytes())


def dwords_block(symbol: str, values: np.ndarray | list[int]) -> DataBlock:
    """An array of 64-bit integers; negatives wrap to two's complement."""
    if not isinstance(values, np.ndarray):
        # Mask Python ints one by one: np.asarray without a dtype would
        # coerce values above 2**63-1 to float64 and lose precision.
        values = np.array([truncate(int(value)) for value in values],
                          dtype="<u8")
    return DataBlock(symbol, values.astype("<u8").tobytes())


def zero_doubles_block(symbol: str, count: int) -> DataBlock:
    """A zero-initialised array of ``count`` doubles."""
    return DataBlock(symbol, bytes(8 * count))


def read_doubles(memory, address: int, count: int) -> np.ndarray:
    """Read ``count`` float64 values from simulated memory."""
    raw = memory.load_bytes(address, 8 * count)
    return np.frombuffer(raw, dtype=np.float64).copy()


def read_dwords(memory, address: int, count: int) -> np.ndarray:
    """Read ``count`` uint64 values from simulated memory."""
    raw = memory.load_bytes(address, 8 * count)
    return np.frombuffer(raw, dtype=np.uint64).copy()
