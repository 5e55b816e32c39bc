"""One differential per row of the scalar semantics table.

``repro.spike.semantics`` is the single definition both the interpreter
(``Hart.step``) and the block translator are derived from, so the two
cannot disagree about an instruction's *arithmetic* — a wrong row is
wrong in both, and the independent oracles (``test_differential.py``,
``test_fp_differential.py``, the directed ``test_hart_*`` files) are what
catch that.  What can still go wrong is the *derivation*: operand
routing, ``x0`` folding, constant folding, masking, temp reuse, the
load/store plumbing.  This file checks exactly that, for every row, and
is generated from the table: a new row is covered without an edit here.

Each row's instruction is executed alone — through ``Hart.step``, through
a one-instruction translated block with a cycle budget (``run(limit)``)
and through its unchecked twin (``run()``) — over boundary operands and
aliased / ``x0`` register assignments, and all three must leave the same
registers, pc and memory.  The closure tests pin the table to the
decoder, the encoder and the translator's notion of translatable.
"""

from __future__ import annotations

import itertools
import keyword
import math
import re
import struct

import pytest

from repro.assembler import AsmSyntaxError, assemble
from repro.assembler.encoder import supported_mnemonics
from repro.isa.decoder import IllegalInstruction, decode
from repro.spike import BareMetalMachine, CoreModel
from repro.spike import translate
from repro.spike.hart import EXEC
from repro.spike.semantics import (
    BRANCHES,
    COMPUTE,
    HELPERS,
    LOADS,
    STORES,
    X_XX,
)

_M64 = (1 << 64) - 1
_INTS = (0, 1, _M64, 1 << 63, (1 << 63) - 1, 0xFFFF_FFFF_8000_0000,
         0x8000_0000, 0x7FFF_FFFF, 0xFFFF_FFFF, 31, 32, 63)
_F32_MAX = 3.4028234663852886e38
_FLOATS = (0.0, -0.0, 1.0, -1.5, math.inf, -math.inf, math.nan,
           5e-324,                       # smallest binary64 subnormal
           1.401298464324817e-45,        # smallest binary32 subnormal
           _F32_MAX, -_F32_MAX,
           3.5e38, -1e300,               # beyond binary32: round to inf
           0.1,                          # inexact in binary32
           2.0 ** 31, -(2.0 ** 31) - 1.0, 2.0 ** 63, 1.8446744073709552e19)
_FEW_FLOATS = (0.0, -0.0, 1.0, -1.5, math.inf, math.nan, _F32_MAX, 1e300)
_VALUES = {"x": _INTS, "f": _FLOATS}

_IMMEDIATES = {
    "imm": (0, 1, -1, 2047, -2048),
    "shamt": (0, 1, 31, 32, 63),
}
# lui/auipc take the 20-bit upper immediate.
_UPPER_IMMEDIATES = (0, 1, 0x7FFFF, 0x80000, 0xFFFFF)

# Bytes the loads read: sign bits set and clear at every access size.
_PATTERN = bytes(range(0x78, 0x88)) * 8


class _Bench:
    """One instruction, assembled alone, runnable three ways."""

    def __init__(self, line: str):
        program = assemble(f""".text
_start:
    {line}
    ebreak
    ebreak
taken:
    ebreak
.data
.align 6
buffer:
    .zero {len(_PATTERN)}
""")
        self.machine = BareMetalMachine(program, 1)
        self.hart = self.machine.harts[0]
        core = CoreModel(self.hart, self.machine)
        self.entry = program.entry
        self.buffer = program.symbols["buffer"]
        translator = translate.BlockTranslator(core, self.machine)
        # The trailing ebreak is untranslatable, so this block is the
        # one instruction; its fetch line is made resident up front.
        self.checked = translator.translate_uop(self.entry)
        assert self.checked is not False, f"not translated: {line}"
        self.unchecked = translator.ufast[self.entry]
        core.l1i.access_fast(self.entry, False)

    def run(self, path: str, xregs: dict, fregs: dict):
        hart = self.hart
        hart.regs[:] = [0] * 32
        hart.fregs[:] = [0.0] * 32
        for index, value in xregs.items():
            if index:
                hart.regs[index] = value
        for index, value in fregs.items():
            hart.fregs[index] = value
        hart.pc = self.entry
        self.machine.memory.store_bytes(self.buffer, _PATTERN)
        if path == "interpreter":
            hart.step()
        else:
            result = self.checked(1) if path == "checked" \
                else self.unchecked()
            executed = 1 if result is None or result == 1 \
                else result.executed
            if executed == 0:
                # Zero progress (an access crossing a cache line): the
                # dispatcher's contract is one interpreter step.
                hart.step()
            else:
                assert executed == 1
        assert hart.regs[0] == 0
        # Packed so the sign of zero counts.  Any NaN equals any other:
        # which operand's NaN ``nan1 + nan2`` returns is up to the host
        # (and changes as CPython specialises a code object), and the
        # model does not canonicalise it.
        fregs = struct.pack("<32d", *(math.nan if value != value else value
                                      for value in hart.fregs))
        return (list(hart.regs), fregs, hart.pc,
                self.machine.memory.load_bytes(self.buffer, len(_PATTERN)))

    def check(self, xregs: dict, fregs: dict, what: str) -> None:
        expected = self.run("interpreter", xregs, fregs)
        for path in ("checked", "unchecked"):
            assert self.run(path, xregs, fregs) == expected, \
                f"{path} block differs from Hart.step: {what} " \
                f"x={xregs} f={fregs}"


def _assignments(dest: str, files: list):
    """Register numbers ``[rd, source...]``: distinct, ``rd == x0``, each
    integer source ``== x0``, and everything aliased to one index."""
    base = [5] + [6 + position for position in range(len(files))]
    yield base
    if dest == "x":
        yield [0] + base[1:]
    for position, file in enumerate(files):
        if file == "x":
            yield base[:position + 1] + [0] + base[position + 2:]
    yield [5] * len(base)


def _operand_values(files: list):
    if len(files) == 3:
        return itertools.product(_FEW_FLOATS, repeat=3)
    return itertools.product(*(_VALUES[file] for file in files))


def _check_register_rows(mnemonic: str, dest: str, operands: tuple,
                         target: str | None = None) -> int:
    """Run every assignment x immediate x operand value of one row;
    returns how many encodings the assembler accepted."""
    files = [file for _name, file, _field in operands if file]
    constants = [field for _name, file, field in operands
                 if file is None and field != "pc"]
    if any(field == "pc" for _name, _file, field in operands):
        immediates = _UPPER_IMMEDIATES
    elif constants:
        immediates = _IMMEDIATES[constants[0]]
    else:
        immediates = (None,)
    encodings = 0
    for numbers in _assignments(dest, files):
        for immediate in immediates:
            fields = [] if target else [f"{dest}{numbers[0]}"]
            fields += [f"{file}{number}"
                       for file, number in zip(files, numbers[1:])]
            if immediate is not None:
                fields.append(str(immediate))
            if target:
                fields.append(target)
            line = f"{mnemonic} " + ", ".join(fields)
            try:
                bench = _Bench(line)
            except AsmSyntaxError:
                continue  # e.g. a 6-bit shift amount on a W shift
            encodings += 1
            for values in _operand_values(files):
                xregs = {number: value for file, number, value
                         in zip(files, numbers[1:], values) if file == "x"}
                fregs = {number: value for file, number, value
                         in zip(files, numbers[1:], values) if file == "f"}
                bench.check(xregs, fregs, line)
    return encodings


@pytest.mark.parametrize("mnemonic", sorted(COMPUTE))
def test_compute_row_interpreter_equals_translated(mnemonic):
    form = COMPUTE[mnemonic].form
    encodings = _check_register_rows(mnemonic, form.dest, form.operands)
    # rd == x0 and the all-aliased assignment exist for every form.
    assert encodings >= 2


@pytest.mark.parametrize("mnemonic", sorted(BRANCHES))
def test_branch_row_interpreter_equals_translated(mnemonic):
    assert _check_register_rows(mnemonic, "x", X_XX.operands,
                                target="taken") >= 4


@pytest.mark.parametrize("mnemonic", sorted(LOADS) + sorted(STORES))
def test_memory_row_interpreter_equals_translated(mnemonic):
    if mnemonic in LOADS:
        size, _signed, file = LOADS[mnemonic]
    else:
        size, file = STORES[mnemonic]
    values = _VALUES[file]
    for data, base in ((5, 6), (0, 6), (5, 0), (6, 6)):
        if file == "f" and data == 0:
            continue
        # In-line aligned, misaligned within the line, negative, and
        # (offset 60, sizes above 4) crossing the 64-byte line.
        for offset in (0, size, 1, -8, 60):
            bench = _Bench(f"{mnemonic} {file}{data}, {offset}(x{base})")
            for value in values:
                # The base wins when it is also the data register.
                xregs = {data: value} if file == "x" else {}
                fregs = {data: value} if file == "f" else {}
                xregs[base] = bench.buffer + 64
                bench.check(xregs, fregs, f"{mnemonic} offset {offset}")


# ---------------------------------------------------------------------------
# Closure: the table against the decoder, the encoder and the translator
# ---------------------------------------------------------------------------

_ROWS = [COMPUTE, LOADS, STORES, BRANCHES]
_ROW_MNEMONICS = frozenset().union(*_ROWS)


def _decodable_scalar_mnemonics() -> set:
    """Every non-vector mnemonic ``isa.decoder`` produces, found by
    sweeping the fields that select one: opcode, funct3, funct7, and the
    rs2 values OP-FP and SYSTEM use as sub-opcodes."""
    found = set()
    for opcode in range(0b11, 128, 4):
        for funct3 in range(8):
            for funct7 in range(128):
                for rs2 in (0, 1, 2, 3, 5):
                    for rd_rs1 in (0, 0x1 << 7 | 0x2 << 15):
                        word = funct7 << 25 | rs2 << 20 | funct3 << 12 \
                            | rd_rs1 | opcode
                        try:
                            instr = decode(word)
                        except IllegalInstruction:
                            continue
                        if not instr.is_vector:
                            found.add(instr.mnemonic)
    return found


def test_every_scalar_mnemonic_has_exactly_one_definition():
    assert sum(len(rows) for rows in _ROWS) == len(_ROW_MNEMONICS), \
        "a mnemonic appears in two row tables"
    decodable = _decodable_scalar_mnemonics()
    assert len(decodable) > 150
    # Effectful executors are the hand-registered rest; ``executor()``
    # itself refuses a second registration of a mnemonic.
    undefined = decodable - set(EXEC)
    assert not undefined, f"decodable but not executable: {undefined}"
    assert not _ROW_MNEMONICS - decodable, \
        f"rows the decoder never produces: {_ROW_MNEMONICS - decodable}"
    effectful = decodable - _ROW_MNEMONICS
    assert {"jal", "jalr", "ecall", "csrrw", "lr.d", "amoadd.w",
            "fence.i"} <= effectful


def test_translatable_is_computed_from_the_table():
    assert translate._TRANSLATABLE == _ROW_MNEMONICS | {"jal", "jalr"}
    assert translate._LOAD_OPS == frozenset(LOADS)
    assert translate._CONTROL_OK == frozenset(BRANCHES) | {"jal", "jalr"}


def test_every_row_can_be_assembled():
    assert _ROW_MNEMONICS <= supported_mnemonics()


def test_row_expressions_name_only_operands_and_helpers():
    """The translator pastes expressions by substituting identifiers, so
    every identifier must be an operand of the row's form, a helper the
    generated code can see, or ``w`` (the one in-expression temp)."""
    for mnemonic, row in COMPUTE.items():
        allowed = {name for name, _file, _field in row.form.operands} \
            | set(HELPERS) | {"w", "True", "False"} | set(keyword.kwlist)
        for text in filter(None, (row.expr, row.imm0)):
            unknown = set(re.findall(r"\b[A-Za-z_]\w*", text)) - allowed
            assert not unknown, f"{mnemonic}: {unknown}"
        assert row.imm0 is None or "imm" in allowed
    assert not set(HELPERS) & {"a", "b", "c", "imm", "sh", "pc", "w"}


# ---------------------------------------------------------------------------
# Helper names against the names the emitted code uses itself
# ---------------------------------------------------------------------------

def _whole_block(body: str):
    program = assemble(f".text\n_start:\n{body}\n    ebreak\n"
                       ".data\n.align 6\nbuffer:\n"
                       "    .dword 0x8877665544332211, -2\n")
    machine = BareMetalMachine(program, 1)
    core = CoreModel(machine.harts[0], machine)
    return program, machine.harts[0], core, machine


def test_helper_rows_share_a_block_with_every_load_width():
    """Rows that call a helper sit at block positions 2, 4 and 8, next to
    ``lh``/``lw``/``ld``, whose emitted code calls ``U2``/``U4``/``U8``.
    (The translator used to bind a row's helper to ``U<position>``, which
    shadowed exactly those unpackers for the rest of the block.)"""
    body = """
    la a0, buffer
    fcvt.d.l fa0, a1
    lh a2, 0(a0)
    fsqrt.d fa1, fa0
    lw a3, 4(a0)
    fmv.x.d a4, fa1
    fdiv.d fa2, fa0, fa1
    fclass.d a5, fa2
    ld a6, 8(a0)
    fmv.x.d a7, fa2"""
    count = 11
    program, stepped, _core, _machine = _whole_block(body)
    stepped.regs[11] = 1 << 40
    for _ in range(count):
        stepped.step()

    program, hart, core, machine = _whole_block(body)
    hart.regs[11] = 1 << 40
    core.l1i.access_fast(program.entry, False)
    block = translate.BlockTranslator(core, machine).translate(program.entry)
    result = block(count)
    executed = count if result is None else result.executed
    for _ in range(count - executed):   # a cold L1D line ends the block
        hart.step()                     # early; finish in the interpreter
    assert hart.pc == stepped.pc
    assert hart.regs == stepped.regs
    assert hart.fregs == stepped.fregs


def test_helper_names_are_not_names_the_emitted_code_uses():
    # translate's own globals must not have replaced a helper ...
    assert all(translate._G[name] is helper
               for name, helper in HELPERS.items())
    # ... and no local or closure variable of a block may be one.
    for line in ("lw x5, 0(x6)", "sw x5, 0(x6)", "jalr x5, 0(x6)",
                 "blt x5, x6, taken", "div x5, x6, x7", "fsw f5, 0(x6)"):
        bench = _Bench(line)
        for code in (bench.checked.__code__, bench.unchecked.__code__):
            used = set(code.co_varnames) | set(code.co_freevars)
            assert not used & set(HELPERS), line
    assert not [name for name in HELPERS
                if re.fullmatch(r"(r|i|iw|w)\d+", name)]
