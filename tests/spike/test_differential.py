"""Differential testing of scalar execution.

Hypothesis generates random straight-line programs over a small register
window; the expected architectural state is computed by an *independent*
evaluator built on numpy's fixed-width integer semantics (a different
code path from the hart's executors, which use arbitrary-precision
Python ints).  Any divergence flags a semantics bug in one of the two.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_hart, run_until_ebreak

# Registers the generated programs operate on (avoid sp/ra/zero).
_REGS = ["a0", "a1", "a2", "a3", "a4", "a5"]
_REG_INDEX = {"a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14,
              "a5": 15}

_BINARY_OPS = ["add", "sub", "mul", "and", "or", "xor", "sll", "srl",
               "sra", "slt", "sltu", "addw", "subw", "mulw"]
_IMM_OPS = ["addi", "andi", "ori", "xori", "slti", "sltiu", "addiw"]


def _np_binary(op: str, a: np.uint64, b: np.uint64) -> np.uint64:
    """Reference semantics via numpy fixed-width arithmetic."""
    with np.errstate(over="ignore"):
        signed_a = np.uint64(a).astype(np.int64)
        signed_b = np.uint64(b).astype(np.int64)
        shamt = int(b & np.uint64(63))
        wshamt = int(b & np.uint64(31))
        if op == "add":
            return np.uint64(a + b)
        if op == "sub":
            return np.uint64(a - b)
        if op == "mul":
            return np.uint64(a * b)
        if op == "and":
            return np.uint64(a & b)
        if op == "or":
            return np.uint64(a | b)
        if op == "xor":
            return np.uint64(a ^ b)
        if op == "sll":
            return np.uint64(a << np.uint64(shamt))
        if op == "srl":
            return np.uint64(a >> np.uint64(shamt))
        if op == "sra":
            return np.uint64(signed_a >> np.int64(shamt))
        if op == "slt":
            return np.uint64(1 if signed_a < signed_b else 0)
        if op == "sltu":
            return np.uint64(1 if a < b else 0)
        if op in ("addw", "subw", "mulw"):
            a32 = np.uint64(a).astype(np.uint32)
            b32 = np.uint64(b).astype(np.uint32)
            if op == "addw":
                r32 = np.uint32(a32 + b32)
            elif op == "subw":
                r32 = np.uint32(a32 - b32)
            else:
                r32 = np.uint32(a32 * b32)
            return np.uint64(r32.astype(np.int32).astype(np.int64)
                             .astype(np.uint64))
    raise AssertionError(op)


def _np_immediate(op: str, a: np.uint64, imm: int) -> np.uint64:
    signed_a = np.uint64(a).astype(np.int64)
    uimm = np.uint64(np.int64(imm).astype(np.uint64))
    with np.errstate(over="ignore"):
        if op == "addi":
            return np.uint64(a + uimm)
        if op == "andi":
            return np.uint64(a & uimm)
        if op == "ori":
            return np.uint64(a | uimm)
        if op == "xori":
            return np.uint64(a ^ uimm)
        if op == "slti":
            return np.uint64(1 if signed_a < np.int64(imm) else 0)
        if op == "sltiu":
            return np.uint64(1 if a < uimm else 0)
        if op == "addiw":
            r32 = np.uint32(np.uint64(a).astype(np.uint32)
                            + np.int64(imm).astype(np.uint64)
                            .astype(np.uint32))
            return np.uint64(r32.astype(np.int32).astype(np.int64)
                             .astype(np.uint64))
    raise AssertionError(op)


_instruction = st.one_of(
    st.tuples(st.just("bin"), st.sampled_from(_BINARY_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("imm"), st.sampled_from(_IMM_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.integers(min_value=-2048, max_value=2047)),
)


@settings(max_examples=120, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0,
                                  max_value=(1 << 64) - 1),
                      min_size=len(_REGS), max_size=len(_REGS)),
       program=st.lists(_instruction, min_size=1, max_size=25))
def test_random_straight_line_programs(seeds, program):
    # Independent reference state.
    state = {reg: np.uint64(value)
             for reg, value in zip(_REGS, seeds)}
    lines = []
    for reg, value in zip(_REGS, seeds):
        lines.append(f"    li {reg}, {int(value)}")
    for entry in program:
        if entry[0] == "bin":
            _tag, op, rd, rs1, rs2 = entry
            lines.append(f"    {op} {rd}, {rs1}, {rs2}")
            state[rd] = _np_binary(op, state[rs1], state[rs2])
        else:
            _tag, op, rd, rs1, imm = entry
            lines.append(f"    {op} {rd}, {rs1}, {imm}")
            state[rd] = _np_immediate(op, state[rs1], imm)
    source = ".text\n_start:\n" + "\n".join(lines) + "\n    ebreak\n"
    hart = make_hart(source)
    run_until_ebreak(hart)
    for reg, expected in state.items():
        actual = hart.regs[_REG_INDEX[reg]]
        assert actual == int(expected), (
            f"{reg}: hart={actual:#x} reference={int(expected):#x}\n"
            f"program:\n{source}")


# ---------------------------------------------------------------------------
# The rest of the integer table: M extension, shifts by immediate, the
# W shifts, lui/auipc.  Expectations come from numpy fixed-width types
# or explicit exact arithmetic (``Fraction``), never from ``repro.spike``.
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1

_MULDIV_OPS = ["mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu",
               "divw", "divuw", "remw", "remuw"]
_W_SHIFT_OPS = ["sllw", "srlw", "sraw"]
_SHIFT_IMM_OPS = ["slli", "srli", "srai"]
_W_SHIFT_IMM_OPS = ["slliw", "srliw", "sraiw"]
_UPPER_OPS = ["lui", "auipc"]


def _signed(value: int, width: int) -> int:
    value &= (1 << width) - 1
    return value - (1 << width) if value >> (width - 1) else value


def _truncating_divide(a: int, b: int, width: int, signed: bool):
    """(quotient, remainder) as the ISA defines them, on ``width``-bit
    views of ``a`` and ``b``; results are signed/unsigned ints."""
    if signed:
        a, b = _signed(a, width), _signed(b, width)
    else:
        a, b = a & ((1 << width) - 1), b & ((1 << width) - 1)
    if b == 0:
        return (-1 if signed else (1 << width) - 1), a
    quotient = math.trunc(Fraction(a, b))
    if signed and quotient == 1 << (width - 1):  # INT_MIN / -1 wraps
        return a, 0
    return quotient, a - quotient * b


def _ref_muldiv(op: str, a: int, b: int) -> int:
    if op == "mulh":
        return ((_signed(a, 64) * _signed(b, 64)) >> 64) & _M64
    if op == "mulhsu":
        return ((_signed(a, 64) * b) >> 64) & _M64
    if op == "mulhu":
        return (a * b) >> 64
    width = 32 if op.endswith("w") else 64
    base = op[:-1] if op.endswith("w") else op
    quotient, remainder = _truncating_divide(a, b, width,
                                             not base.endswith("u"))
    result = quotient if base.startswith("div") else remainder
    # W forms sign-extend their 32-bit result, unsigned ones included.
    return _signed(result, width) & _M64


def _np_shift(op: str, a: int, amount: int) -> int:
    """Shifts by a 6-/5-bit amount through numpy's fixed-width types."""
    a64 = np.uint64(a)
    if op in ("slli", "srli", "srai"):
        sh = np.uint64(amount & 63)
        if op == "slli":
            return int(a64 << sh)
        if op == "srli":
            return int(a64 >> sh)
        return int((a64.astype(np.int64) >> np.int64(amount & 63))
                   .astype(np.uint64))
    a32 = a64.astype(np.uint32)
    sh32 = np.uint32(amount & 31)
    if op in ("sllw", "slliw"):
        r32 = np.uint32(a32 << sh32)
    elif op in ("srlw", "srliw"):
        r32 = np.uint32(a32 >> sh32)
    else:  # sraw / sraiw
        r32 = (a32.astype(np.int32) >> np.int32(amount & 31)) \
            .astype(np.uint32)
    return int(r32.astype(np.int32).astype(np.int64).astype(np.uint64))


_wide_instruction = st.one_of(
    _instruction,
    st.tuples(st.just("muldiv"), st.sampled_from(_MULDIV_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("wshift"), st.sampled_from(_W_SHIFT_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.sampled_from(_REGS)),
    st.tuples(st.just("shimm"), st.sampled_from(_SHIFT_IMM_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("shimm"), st.sampled_from(_W_SHIFT_IMM_OPS),
              st.sampled_from(_REGS), st.sampled_from(_REGS),
              st.integers(min_value=0, max_value=31)),
    st.tuples(st.just("upper"), st.sampled_from(_UPPER_OPS),
              st.sampled_from(_REGS), st.just(""),
              st.integers(min_value=0, max_value=(1 << 20) - 1)),
)

# Operands that sit on the edges the M extension special-cases.
_EDGES = [0, 1, _M64, 1 << 63, (1 << 63) - 1, 1 << 31, (1 << 31) - 1,
          0xFFFF_FFFF, 0xFFFF_FFFF_8000_0000, 0x8000_0000_0000_0001]
_seed_value = st.one_of(st.sampled_from(_EDGES),
                        st.integers(min_value=0, max_value=_M64))


# ``--hypothesis-profile=ci`` (tests/conftest.py) deepens the search.
_CI = settings.get_profile("ci")
_WIDE_EXAMPLES = _CI.max_examples if settings.default is _CI else 200


@settings(max_examples=_WIDE_EXAMPLES, deadline=None)
@given(seeds=st.lists(_seed_value, min_size=len(_REGS),
                      max_size=len(_REGS)),
       program=st.lists(_wide_instruction, min_size=1, max_size=25))
def test_random_programs_over_the_whole_integer_table(seeds, program):
    lines = [f"    li {reg}, {value}" for reg, value in zip(_REGS, seeds)]
    for index, (tag, op, rd, rs1, last) in enumerate(program):
        if tag == "upper":
            lines.append(f"upper_{index}:")
            lines.append(f"    {op} {rd}, {last}")
        else:
            lines.append(f"    {op} {rd}, {rs1}, {last}")
    source = ".text\n_start:\n" + "\n".join(lines) + "\n    ebreak\n"
    hart = make_hart(source)

    state = dict(zip(_REGS, seeds))
    for index, (tag, op, rd, rs1, last) in enumerate(program):
        if tag == "bin":
            state[rd] = int(_np_binary(op, np.uint64(state[rs1]),
                                       np.uint64(state[last])))
        elif tag == "imm":
            state[rd] = int(_np_immediate(op, np.uint64(state[rs1]), last))
        elif tag == "muldiv":
            state[rd] = _ref_muldiv(op, state[rs1], state[last])
        elif tag == "wshift":
            state[rd] = _np_shift(op, state[rs1], state[last])
        elif tag == "shimm":
            state[rd] = _np_shift(op, state[rs1], last)
        else:
            upper = _signed(last << 12, 32)
            pc = hart.program_symbols[f"upper_{index}"] \
                if op == "auipc" else 0
            state[rd] = (pc + upper) & _M64

    run_until_ebreak(hart)
    for reg, expected in state.items():
        actual = hart.regs[_REG_INDEX[reg]]
        assert actual == expected, (
            f"{reg}: hart={actual:#x} reference={expected:#x}\n"
            f"program:\n{source}")
