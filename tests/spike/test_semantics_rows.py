"""One differential per row of the semantics table, scalar and vector.

``repro.spike.semantics`` is the single definition both the interpreter
(``Hart.step``) and the block translator are derived from, so the two
cannot disagree about an instruction's *arithmetic* — a wrong row is
wrong in both, and the independent oracles (``test_differential.py``,
``test_fp_differential.py``, the directed ``test_hart_*`` files) are what
catch that.  What can still go wrong is the *derivation*: operand
routing, ``x0`` folding, constant folding, masking, temp reuse, the
load/store plumbing.  This file checks exactly that, for every row, and
is generated from the table: a new row is covered without an edit here.

Each row's instruction is executed alone — through ``Hart.step`` and
through a one-instruction translated block (``run()``) — over boundary
operands and aliased / ``x0`` register assignments, and both must leave
the same registers, pc and memory.  The closure tests pin the table to the
decoder, the encoder and the translator's notion of translatable.

The vector rows (second half) are more inputs to the same check: each
row's instruction through ``CoreModel.step`` and through a
one-instruction block over ``vl`` 0 / 1 / VLMAX, every SEW the row allows, LMUL 1 and 2, masked and unmasked,
``vd == vs2``, and register contents made of all-ones, ``INT_MIN``,
NaN, signed zeros and infinities at every width.
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
from repro.isa.encoding import ENCODINGS
from repro.isa.vtype import VType
from repro.spike import BareMetalMachine, CoreModel
from repro.spike import translate
from repro.spike.hart import EXEC
from repro.spike.semantics import (
    BRANCHES,
    COMPUTE,
    HELPERS,
    LOADS,
    STORES,
    VECTOR,
    VLOADS,
    VSTORES,
    X_XX,
)
from repro.spike.vector import derive_executor

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
    """One instruction, assembled alone, runnable both ways."""

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
        self.translated = translator.translate(self.entry, "micro")
        assert translator.stats.by_shape["micro"], f"not translated: {line}"
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
            result = self.translated()
            executed = 1 if result == 1 else result.executed
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
        assert self.run("translated", xregs, fregs) == expected, \
            f"block differs from Hart.step: {what} x={xregs} f={fregs}"


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


def test_every_scalar_mnemonic_has_exactly_one_definition():
    assert sum(len(rows) for rows in _ROWS) == len(_ROW_MNEMONICS), \
        "a mnemonic appears in two row tables"
    scalar = {mnemonic for mnemonic, row in ENCODINGS.items()
              if "is_vector" not in row.flags}
    assert len(scalar) > 150
    # Decodable is executable and the other way round.  Every row has
    # its executor derived; the hand-registered effectful ones are the
    # rest (``executor()`` itself refuses a second registration).
    assert scalar == {mnemonic for mnemonic in EXEC
                      if not mnemonic.startswith("v")}
    assert {"jal", "jalr", "ecall", "csrrw", "lr.d", "amoadd.w",
            "fence.i"} <= scalar - _ROW_MNEMONICS


def test_translatable_is_computed_from_the_table():
    # Rows, memory and control: the scalar tables and both jumps; every
    # vector row; the vector loads and the unit-stride vector stores
    # (a scatter stays with the interpreter); the two configuration
    # instructions whose vtype is an immediate.
    unit_stores = {mnemonic for mnemonic, (_eew, addressing)
                   in VSTORES.items() if addressing == "unit"}
    assert len(unit_stores) == 4
    assert translate._TRANSLATABLE == _ROW_MNEMONICS | {"jal", "jalr"} \
        | set(VECTOR) | set(VLOADS) | unit_stores | {"vsetvli", "vsetivli"}
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
    result = block()
    executed = result if result.__class__ is int else result.executed
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
        code = bench.translated.__code__
        used = set(code.co_varnames) | set(code.co_freevars)
        assert not used & set(HELPERS), line
    assert not [name for name in HELPERS
                if re.fullmatch(r"(r|i|iw|w)\d+", name)]


# ---------------------------------------------------------------------------
# Vector rows
# ---------------------------------------------------------------------------

# 64-bit patterns that are a boundary value at some width: all-ones
# (-1, a NaN), INT_MIN / -0.0 at 64, 32 (with +0.0 beside it) and 8
# bits, binary64 and binary32 infinities of both signs, quiet NaNs,
# 1.0, -1.5, INT_MAX, the largest binary32 (times two overflows) and
# small integers.
_LANES = (
    0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_0000_0000, 0x8000_0000_0000_0000 >> 32,
    0x8080_8080_8080_8080, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000,
    0x7F80_0000_FF80_0000, 0x7FF8_0000_0000_0000, 0x7FC0_0000_FFC0_0001,
    0x3FF0_0000_0000_0000, 0xBFF8_0000_0000_0000, 0x3F80_0000_BFC0_0000,
    0x7FFF_FFFF_FFFF_FFFF, 0x7F7F_FFFF_7F7F_FFFF, 0x0000_0001_0000_0002,
    0x0000_0000_0000_0000, 0x0003_0001_0000_0002, 0x0000_0000_0000_0007,
)
_V_SCALARS = {"x": (0, 1, 3, _M64, 1 << 63, 0x80, 0x7FFF_FFFF),
              "f": (0.0, -0.0, 1.0, -1.5, math.inf, math.nan, 3.0e38)}
_VLENB = 64     # BareMetalMachine's default VLEN of 512


def _planted(register: int) -> bytes:
    """Register contents: the boundary lanes, rotated per register so
    that two operands never line up value for value."""
    lanes = [_LANES[(register * 5 + lane) % len(_LANES)]
             for lane in range(_VLENB // 8)]
    return struct.pack(f"<{len(lanes)}Q", *lanes)


class _VectorBench:
    """One vector instruction, assembled alone, runnable both ways over
    a planted vector state.  Its data sits across a page boundary:
    ``buffer + 128`` is the first byte of the next page."""

    def __init__(self, line: str):
        program = assemble(f""".text
_start:
    {line}
    ebreak
    ebreak
.data
tohost: .dword 0
.align 12
    .zero 3968
buffer:
    .zero 512
""")
        self.machine = BareMetalMachine(program, 1)
        self.hart = self.machine.harts[0]
        self.core = CoreModel(self.hart, self.machine)
        self.entry = program.entry
        self.buffer = program.symbols["buffer"]
        translator = translate.BlockTranslator(self.core, self.machine)
        self.translated = translator.translate(self.entry, "micro")
        assert translator.stats.by_shape["micro"], f"not translated: {line}"
        self.line = line

    def run(self, path: str, vtype: VType, avl: int, xregs: dict,
            fregs: dict, vregs: dict | None = None):
        hart, core = self.hart, self.core
        hart.regs[:] = [0] * 32
        hart.fregs[:] = [0.0] * 32
        for index, value in xregs.items():
            hart.regs[index] = value
        for index, value in fregs.items():
            hart.fregs[index] = value
        for register in range(32):
            hart.vregs[register][:] = _planted(register)
        for register, contents in (vregs or {}).items():
            hart.vregs[register][:] = contents
        hart.set_vl(avl, vtype)
        hart.pc = self.entry
        core.halted = False
        memory = self.machine.memory
        memory.store_bytes(self.buffer, bytes(range(256)) * 2)
        memory.store_bytes(self.entry + 64, bytes(192))
        memory.store_int(self.machine.tohost_address, 0, 8)
        # Cold L1D, warm fetch line: the instruction's own lookups are
        # all there is to see in the data cache afterwards.
        core.l1d.invalidate_all()
        vars(core.l1d.stats).update(vars(type(core.l1d.stats)()))
        core.l1i.access_fast(self.entry, False)
        if path == "interpreter":
            misses = core.step().misses
        else:
            result = self.translated()
            if result == 1:
                misses = []
            elif result.executed:
                misses = result.misses
            else:
                # Zero progress: the dispatcher's contract is one
                # interpreter step.
                assert result.misses is None and not result.halted
                misses = core.step().misses
        return (list(hart.regs), list(hart.fregs), hart.pc, hart.vl,
                hart.vtype, [bytes(register) for register in hart.vregs],
                memory.load_bytes(self.buffer - 64, 640),
                memory.load_bytes(self.entry, 256),
                memory.load_bytes(self.machine.tohost_address, 8),
                core.halted, dict(vars(core.l1d.stats)), [list(ways.items())
                                 for ways in core.l1d._sets],
                list(misses or ()))


def _same_vector_outcome(expected, observed, numeric, sew) -> bool:
    """Equal, where FP arithmetic results (the lanes of the ``numeric``
    registers, and every scalar FP register) count any NaN as every
    NaN: which operand's NaN ``nan1 + nan2`` hands back is the host's
    choice (see ``_Bench.run``)."""
    def canonical(outcome):
        regs, fregs, pc, vl, vtype, vregs, *rest = outcome
        fregs = struct.pack("<32d", *(math.nan if value != value else value
                                      for value in fregs))
        vregs = list(vregs)
        code = {32: "f", 64: "d"}.get(sew)
        for register in numeric if code else ():
            lanes = struct.Struct(f"<{_VLENB * 8 // sew}{code}")
            vregs[register] = lanes.pack(*(
                math.nan if value != value else value
                for value in lanes.unpack(vregs[register])))
        return regs, fregs, pc, vl, vtype, vregs, *rest
    return canonical(expected) == canonical(observed)


def _vector_cases(sews):
    for sew in sews:
        for lmul in (1, 2):
            vlmax = _VLENB * 8 // sew * lmul
            for avl in (0, 1, vlmax):
                yield VType(sew=sew, lmul=lmul), avl


def _check_vector_line(line, sews, xregs=None, fregs=None, numeric=()):
    bench = _VectorBench(line)
    for vtype, avl in _vector_cases(sews):
        expected = bench.run("interpreter", vtype, avl, xregs or {},
                             fregs or {})
        observed = bench.run("translated", vtype, avl, xregs or {},
                             fregs or {})
        assert _same_vector_outcome(expected, observed, numeric,
                                    vtype.sew), \
            f"block differs from CoreModel.step: {line} " \
            f"{vtype.describe()} avl={avl} x={xregs} f={fregs}"


def _row_lines(mnemonic, row):
    """Assembly lines of one vector row — distinct registers and
    ``vd == vs2``, with and without ``v0.t`` where the encoding has a
    mask bit — each with the scalar values to run it over and the
    registers its FP results land in."""
    scalars = {"x": "x11", "f": "f11"}
    for vd, vs2 in ((8, 4), (4, 4)):
        if row.b == "i":
            unsigned = row.kind == "pick" or mnemonic.split(".")[0] in (
                "vsll", "vsrl", "vsra")
            seconds = [str(value) for value in
                       ((0, 1, 7, 31) if unsigned else (-16, -1, 0, 15))]
        else:
            seconds = [{"v": "v6"}.get(row.b, scalars.get(row.b))]
        for second in seconds:
            if row.kind == "to_x":
                operands = f"x5, v{vs2}"
            elif row.kind == "to_f":
                operands = f"f5, v{vs2}"
            elif row.kind == "first" or mnemonic in (
                    "vmv.v.v", "vmv.v.x", "vmv.v.i", "vfmv.v.f"):
                operands = f"v{vd}, {second}"
            elif row.b is None:
                operands = f"v{vd}"
            elif row.merge:
                operands = f"v{vd}, v{vs2}, {second}, v0"
            elif row.kind == "each" and re.search(r"\bd\b", row.expr):
                operands = f"v{vd}, {second}, v{vs2}"      # multiply-add
            else:
                operands = f"v{vd}, v{vs2}, {second}"
            maskable = row.kind in ("each", "mask", "fold", "pick") \
                and not row.merge and not mnemonic.startswith(
                    ("vmv.v", "vfmv.v"))
            for suffix in ("", ", v0.t") if maskable else ("",):
                numeric = (vd, vd + 1) if row.view == "f" \
                    and row.kind in ("each", "fold") else ()
                yield f"{mnemonic} {operands}{suffix}", numeric


@pytest.mark.parametrize("mnemonic", sorted(VECTOR))
def test_vector_row_interpreter_equals_translated(mnemonic):
    row = VECTOR[mnemonic]
    sews = (32, 64) if row.view == "f" else (8, 16, 32, 64)
    lines = 0
    for line, numeric in _row_lines(mnemonic, row):
        lines += 1
        for value in _V_SCALARS.get(row.b, (None,)):
            _check_vector_line(
                line, sews,
                xregs={11: value} if row.b == "x" else None,
                fregs={11: value} if row.b == "f" else None,
                numeric=numeric)
    assert lines >= 2      # distinct registers, and vd == vs2


def test_fp_vector_rows_trap_alike_below_sew_32():
    """A block must hand an FP row at SEW 8/16 — and anything vector
    under vill — to the interpreter, which raises the trap."""
    for line, vtype in (("vfadd.vv v8, v4, v6", VType(sew=16)),
                        ("vfmv.f.s f5, v4", VType(sew=8)),
                        ("vadd.vv v8, v4, v6", VType(vill=True)),
                        ("vle32.v v8, (x11)", VType(vill=True))):
        bench = _VectorBench(line)
        for path in ("interpreter", "translated"):
            with pytest.raises(translate.Trap, match="vector configuration"):
                bench.run(path, vtype, 4, {11: bench.buffer}, {})


@pytest.mark.parametrize("mnemonic", sorted(VLOADS) + sorted(VSTORES))
def test_vector_memory_row_interpreter_equals_translated(mnemonic):
    """Registers, memory, and the data cache: its statistics, every
    set's lines in LRU order, and the miss requests in order — the
    per-line first-touch probe of a block against ``CoreModel.step``
    classifying the per-element records."""
    eew, addressing = (VLOADS.get(mnemonic) or VSTORES[mnemonic])
    translated = mnemonic in translate._TRANSLATABLE
    for suffix in ("", ", v0.t"):
        if addressing == "unit":
            line = f"{mnemonic} v8, (x11){suffix}"
        elif addressing == "strided":
            line = f"{mnemonic} v8, (x11), x12{suffix}"
        else:
            line = f"{mnemonic} v8, (x11), v6{suffix}"
        if not translated or suffix:
            # Left to the interpreter, by mnemonic or by its mask bit.
            with pytest.raises(AssertionError, match="not translated"):
                _VectorBench(line)
            continue
        bench = _VectorBench(line)
        # Line-aligned, straddling lines, running over the page end,
        # and (stores) the hart's own code page and tohost.
        bases = [bench.buffer, bench.buffer + 8, bench.buffer + 100,
                 bench.buffer + 127]
        if mnemonic in VSTORES:
            bases += [bench.entry + 64, bench.machine.tohost_address]
        for base in bases:
            for stride in (0, eew // 8, 24, -8 & _M64) \
                    if addressing == "strided" else (0,):
                # Index lanes as planted are far out of range: use
                # small byte offsets, out of order, some repeated.
                lanes = _VLENB * 8 // eew
                indices = struct.pack(
                    f"<{lanes}{'BHIQ'[eew.bit_length() - 4]}",
                    *((lane * 37) % 96 for lane in range(lanes)))
                vregs = {6: indices, 7: indices} \
                    if addressing == "indexed" else None
                for vtype, avl in _vector_cases((8, 16, 32, 64)):
                    expected, observed = (
                        bench.run(path, vtype, avl, {11: base, 12: stride},
                                  {}, vregs)
                        for path in ("interpreter", "translated"))
                    assert observed == expected, \
                        f"{line} {vtype.describe()} avl={avl} " \
                        f"base=buffer{base - bench.buffer:+d} stride={stride}"


@pytest.mark.parametrize("line", [
    "vsetvli x5, x11, e32, m2, ta, ma", "vsetvli x0, x11, e8, m1, tu, mu",
    "vsetvli x5, x0, e64, m1, ta, ma", "vsetvli x0, x0, e16, m2, ta, ma",
    "vsetvli x11, x11, e64, m1, ta, ma", "vsetivli x5, 0, e32, m1, ta, ma",
    "vsetivli x5, 31, e8, m2, ta, ma", "vsetivli x0, 5, e64, m1, ta, ma"])
def test_vset_interpreter_equals_translated(line):
    bench = _VectorBench(line)
    for vtype, avl in _vector_cases((8, 64)):
        for requested in (0, 1, 5, 1 << 40, _M64):
            expected = bench.run("interpreter", vtype, avl,
                                 {11: requested}, {})
            assert bench.run("translated", vtype, avl, {11: requested},
                             {}) == expected, f"{line} avl={requested}"


def test_a_vsetvli_inside_a_block_refreshes_the_plan():
    """SEW, vl and the group structs are read through a plan fetched
    once per block; a vsetvli in the block must drop it."""
    body = """
    vsetvli x5, x11, e64, m1, ta, ma
    vid.v v8
    vadd.vi v8, v8, 1
    vsetvli x6, x12, e8, m2, ta, ma
    vid.v v10
    vadd.vv v12, v10, v10
    vsetvli x0, x0, e32, m1, ta, ma
    vmv.v.i v14, -1"""
    count = 8
    _program, stepped, _core, _machine = _whole_block(body)
    stepped.regs[11], stepped.regs[12] = 3, 100
    for _ in range(count):
        stepped.step()

    program, hart, core, machine = _whole_block(body)
    hart.regs[11], hart.regs[12] = 3, 100
    core.l1i.access_fast(program.entry, False)
    block = translate.BlockTranslator(core, machine).translate(program.entry)
    assert block() == count
    assert hart.pc == stepped.pc and hart.regs == stepped.regs
    assert (hart.vl, hart.vtype) == (stepped.vl, stepped.vtype)
    assert hart.vregs == stepped.vregs
    assert hart.vl == 16 and bytes(hart.vregs[14][:8]) == b"\xff" * 8


# -- closure ------------------------------------------------------------------

_VECTOR_EFFECTFUL = {"vsetvli", "vsetivli", "vsetvl", "viota.m"}


def test_every_vector_mnemonic_has_exactly_one_definition():
    tables = [VECTOR, VLOADS, VSTORES]
    rows = frozenset().union(*tables)
    assert sum(len(table) for table in tables) == len(rows)
    assert not rows & _VECTOR_EFFECTFUL and not rows & _ROW_MNEMONICS
    vector = {mnemonic for mnemonic, row in ENCODINGS.items()
              if "is_vector" in row.flags}
    assert len(vector) > 190
    # A row or a hand-written executor, never both — ``executor()``
    # refuses a second registration, also the one that derives a vector
    # row's executor when it is first decoded — and what decodes is
    # exactly what one of them executes.
    for mnemonic in VECTOR:
        assert mnemonic in EXEC or derive_executor(mnemonic)
    assert rows | _VECTOR_EFFECTFUL == vector \
        == {mnemonic for mnemonic in EXEC if mnemonic.startswith("v")}


def test_every_vector_row_can_be_assembled():
    assert set(VECTOR) | set(VLOADS) | set(VSTORES) <= supported_mnemonics()


def test_vector_expressions_name_only_operands_and_helpers():
    operands = {"a", "b", "d", "i", "A", "m", "sew", "vlmax"}
    for mnemonic, row in VECTOR.items():
        unknown = set(re.findall(r"\b[A-Za-z_]\w*", row.expr)) \
            - operands - set(HELPERS) - set(keyword.kwlist)
        assert not unknown, f"{mnemonic}: {unknown}"
    # ... which the statements around them (vector.row_source) and the
    # block code they are pasted into must not use for anything else.
    assert not set(HELPERS) & (operands | {"P", "V", "B", "D", "values",
                                           "x", "f", "n", "o"})
