"""The one table of instruction encodings.

``ENCODINGS`` holds one :class:`Row` per mnemonic: the bits that identify
it (``match`` under ``mask``), its operands in assembly order, and the
``Instruction.is_*`` flags of its class.  :func:`repro.isa.decoder.decode`,
:func:`repro.isa.disasm.disassemble` and
:func:`repro.assembler.encoder.encode` are all derived from it — find the
row a word matches and read each operand's field, print each operand,
parse each operand and OR it into ``match`` — so the three cannot
disagree about an instruction, and no other module knows an encoding.

An operand is a :class:`Kind`, which states once where the operand lives
in the word, the values it takes, whether it names a register that is
read or written, and how it is spelled; a memory operand is a
:class:`Mem` of two.  The set is closed: the three consumers handle
exactly the spellings listed under :class:`Kind`.

A row's ``mask`` is every bit that no operand of the row occupies and
that the row does not explicitly ignore (FP rounding mode, AMO aq/rl,
the operands of ``fence``): a word with a reserved field set matches no
row, and is an illegal instruction.  Segment loads/stores and compressed
encodings are rejected the same way, by having no row.

The bit layouts themselves (R/I/S/B/U/J, OP-V, vector memory) are those
of :mod:`repro.isa.fields`; a kind packs its value with that module's
``encode_*`` functions, every other field left zero.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.isa import fields as f
from repro.isa import opcodes as op
from repro.utils.bitops import sign_extend


class Kind(NamedTuple):
    """One kind of operand.

    ``syntax`` is the register file for a register (``"x"``, ``"f"``,
    ``"v"``), otherwise how the value is written: ``"int"`` an integer
    expression, ``"upper"`` the 20-bit value of a U-type immediate,
    ``"target"`` an address encoded relative to the pc, ``"csr"`` a CSR
    name or number, ``"vtype"`` the ``e32, m2, ta, ma`` token list (or
    one number) that ends a ``vset{i}vli``, ``"v0.t"`` the optional
    trailing mask operand and ``"v0"`` the literal mask operand of a
    merge.  ``get`` reads the value of ``Instruction.<slot>`` out of a
    word; ``put`` turns a parsed value into its bits.
    """

    slot: str
    get: Callable[[int], int]
    pack: Callable[[int], int]
    low: int
    high: int
    syntax: str
    access: str     # registers: "r" read, "w" written, "rw" both
    step: int
    bits: int       # the bits of the word the operand occupies

    def put(self, value: int) -> int:
        if not self.low <= value <= self.high or value % self.step:
            raise ValueError(
                f"operand out of range [{self.low}, {self.high}]"
                f"{' or odd' if self.step == 2 else ''}: {value}")
        return self.pack(value)


def _kind(slot: str, get: Callable, pack: Callable, low: int, high: int,
          syntax: str, access: str = "", step: int = 1) -> Kind:
    return Kind(slot, get, pack, low, high, syntax, access, step,
                pack(low) | pack(high))


# Instruction slot -> (extract, pack) of the register field behind it.
_REG_FIELDS = {
    "rd": (f.rd, lambda v: f.encode_r(0, v, 0, 0, 0, 0)),
    "rs1": (f.rs1, lambda v: f.encode_r(0, 0, 0, v, 0, 0)),
    "rs2": (f.rs2, lambda v: f.encode_r(0, 0, 0, 0, v, 0)),
    "rs3": (f.rs3, lambda v: f.encode_r4(0, 0, 0, 0, 0, v, 0)),
}
_AT_RS1 = _REG_FIELDS["rs1"][1]


def _reg(file: str, slot: str, access: str) -> Kind:
    return _kind(slot, *_REG_FIELDS[slot], 0, 31, file, access)


def _i_bits(value: int) -> int:
    """``value`` in the twelve bits of the I-type immediate."""
    return f.encode_i(0, 0, 0, 0, value)


XD, XS1, XS2 = _reg("x", "rd", "w"), _reg("x", "rs1", "r"), \
    _reg("x", "rs2", "r")
FD, FS1, FS2, FS3 = _reg("f", "rd", "w"), _reg("f", "rs1", "r"), \
    _reg("f", "rs2", "r"), _reg("f", "rs3", "r")
VD, VS1, VS2 = _reg("v", "rd", "w"), _reg("v", "rs1", "r"), \
    _reg("v", "rs2", "r")
VS3 = _reg("v", "rd", "r")       # store data, in vd's field
VD_RW = _reg("v", "rd", "rw")    # a multiply-accumulate's vd is also read

IMM_I = _kind("imm", f.imm_i, _i_bits, -2048, 2047, "int")
IMM_S = _kind("imm", f.imm_s, lambda v: f.encode_s(0, 0, 0, 0, v),
              -2048, 2047, "int")
IMM_B = _kind("imm", f.imm_b, lambda v: f.encode_b(0, 0, 0, 0, v),
              -4096, 4094, "target", step=2)
IMM_J = _kind("imm", f.imm_j, lambda v: f.encode_j(0, 0, v),
              -(1 << 20), (1 << 20) - 2, "target", step=2)
# Written as its 20 bits, signed or unsigned; the slot holds it shifted.
IMM_U = _kind("imm", f.imm_u, lambda v: f.encode_u(0, 0, v),
              -(1 << 19), (1 << 20) - 1, "upper")
SHAMT6 = _kind("shamt", f.shamt64, _i_bits, 0, 63, "int")
SHAMT5 = _kind("shamt", f.shamt32, _i_bits, 0, 31, "int")
UIMM5 = _kind("imm", f.rs1, _AT_RS1, 0, 31, "int")
SIMM5 = _kind("imm", lambda word: sign_extend(f.rs1(word), 5),
              lambda v: _AT_RS1(v & 31), -16, 15, "int")
AVL5 = _kind("shamt", f.rs1, _AT_RS1, 0, 31, "int")   # vsetivli's AVL
CSR = _kind("csr", f.csr_address, lambda v: _i_bits(sign_extend(v, 12)),
            0, 4095, "csr")
VTYPE11 = _kind("imm", lambda word: f.imm_i(word) & 0x7FF, _i_bits,
                0, 0x7FF, "vtype")
VTYPE10 = _kind("imm", lambda word: f.imm_i(word) & 0x3FF, _i_bits,
                0, 0x3FF, "vtype")
VM = _kind("vm", f.vm, lambda v: f.encode_vector_arith(0, v, 0, 0, 0, 0, 0),
           0, 1, "v0.t")
# No field: the row's match has vm = 0, and the operand says so.
V0 = _kind("vm", lambda word: 0, lambda v: 0, 0, 0, "v0")


class Mem(NamedTuple):
    """``offset(base)``, one operand over two fields; with no ``offset``
    kind the operand is ``(base)`` and takes none."""

    offset: Kind | None
    base: Kind = XS1


MEM_I, MEM_S, BASE = Mem(IMM_I), Mem(IMM_S), Mem(None)


class Row(NamedTuple):
    match: int
    mask: int
    operands: tuple     # Kind | Mem, in assembly order
    flags: tuple        # the Instruction.is_* slots that are True
    fields: tuple       # the operands' kinds, memory operands flattened


ENCODINGS: dict[str, Row] = {}


def _row(mnemonic: str, match: int, operands: tuple = (), flags: str = "",
         ignored: int = 0) -> None:
    if mnemonic in ENCODINGS:
        raise RuntimeError(f"duplicate encoding for {mnemonic}")
    fields = tuple(kind for operand in operands for kind in
                   (operand if isinstance(operand, Mem) else (operand,))
                   if kind is not None)
    occupied = ignored
    for kind in fields:
        occupied |= kind.bits
    ENCODINGS[mnemonic] = Row(
        match, 0xFFFF_FFFF & ~occupied, operands,
        tuple(f"is_{flag}" for flag in flags.split()), fields)


def _r(opcode: int, funct3: int, funct7: int, rs2: int = 0) -> int:
    return f.encode_r(opcode, 0, funct3, 0, rs2, funct7)


def _i(opcode: int, funct3: int, funct12: int = 0) -> int:
    """Opcode and funct3 — the same bits in the I, S and B formats —
    and, for the I-type rows that have one, funct12."""
    return funct12 << 20 | f.encode_i(opcode, 0, funct3, 0, 0)


# ---------------------------------------------------------------------------
# RV64IM
# ---------------------------------------------------------------------------

_XXX = (XD, XS1, XS2)

# mnemonic -> (funct3, funct7); some also exist as 32-bit ``...w`` under
# OP-32 with the same functs.
_OP = {
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
    "mul": (0, 0x01), "mulh": (1, 0x01), "mulhsu": (2, 0x01),
    "mulhu": (3, 0x01), "div": (4, 0x01), "divu": (5, 0x01),
    "rem": (6, 0x01), "remu": (7, 0x01),
}
for _name, (_f3, _f7) in _OP.items():
    _row(_name, _r(op.OP, _f3, _f7), _XXX)
    if _name in ("add", "sub", "sll", "srl", "sra",
                 "mul", "div", "divu", "rem", "remu"):
        _row(f"{_name}w", _r(op.OP_32, _f3, _f7), _XXX)

for _name, _f3 in (("addi", 0), ("slti", 2), ("sltiu", 3), ("xori", 4),
                   ("ori", 6), ("andi", 7)):
    _row(_name, _i(op.OP_IMM, _f3), (XD, XS1, IMM_I))
_row("addiw", _i(op.OP_IMM_32, 0), (XD, XS1, IMM_I))
for _name, _f3, _f7 in (("slli", 1, 0x00), ("srli", 5, 0x00),
                        ("srai", 5, 0x20)):
    _row(_name, _r(op.OP_IMM, _f3, _f7), (XD, XS1, SHAMT6))
    _row(f"{_name}w", _r(op.OP_IMM_32, _f3, _f7), (XD, XS1, SHAMT5))

for _f3, _name in enumerate(("lb", "lh", "lw", "ld", "lbu", "lhu", "lwu")):
    _row(_name, _i(op.LOAD, _f3), (XD, MEM_I), "load")
for _f3, _name in enumerate(("sb", "sh", "sw", "sd")):
    _row(_name, _i(op.STORE, _f3), (XS2, MEM_S), "store")
for _name, _f3 in (("beq", 0), ("bne", 1), ("blt", 4), ("bge", 5),
                   ("bltu", 6), ("bgeu", 7)):
    _row(_name, _i(op.BRANCH, _f3), (XS1, XS2, IMM_B), "branch")

_row("lui", op.LUI, (XD, IMM_U))
_row("auipc", op.AUIPC, (XD, IMM_U))
_row("jal", op.JAL, (XD, IMM_J), "jump")
_row("jalr", _i(op.JALR, 0), (XD, MEM_I), "jump")

# ---------------------------------------------------------------------------
# System, Zicsr, Zifencei, A
# ---------------------------------------------------------------------------

for _name, _funct12 in (("ecall", 0x000), ("ebreak", 0x001), ("wfi", 0x105)):
    _row(_name, _i(op.SYSTEM, 0, _funct12), (), "system")
_row("mret", _i(op.SYSTEM, 0, 0x302), (), "system jump")
# The model orders nothing, so only opcode and funct3 tell a fence; the
# encoder writes ``fence iorw, iorw``.
_NOT_FUNCT3 = 0xFFFF_FFFF & ~_i(0x7F, 7)
_row("fence", _i(op.MISC_MEM, 0, 0x0FF), (), "system", ignored=_NOT_FUNCT3)
_row("fence.i", _i(op.MISC_MEM, 1), (), "system", ignored=_NOT_FUNCT3)

for _f3, _name in enumerate(("csrrw", "csrrs", "csrrc"), start=1):
    _row(_name, _i(op.SYSTEM, _f3), (XD, CSR, XS1), "system")
    _row(f"{_name}i", _i(op.SYSTEM, _f3 + 4), (XD, CSR, UIMM5), "system")

_AQ_RL = _r(0, 0, 0b11)
for _size, _f3 in (("w", 2), ("d", 3)):
    _row(f"lr.{_size}", _r(op.AMO, _f3, 0x02 << 2), (XD, BASE), "load amo",
         ignored=_AQ_RL)
    _row(f"sc.{_size}", _r(op.AMO, _f3, 0x03 << 2), (XD, XS2, BASE),
         "store amo", ignored=_AQ_RL)
    for _name, _funct5 in (("amoswap", 0x01), ("amoadd", 0x00),
                           ("amoxor", 0x04), ("amoand", 0x0C),
                           ("amoor", 0x08), ("amomin", 0x10),
                           ("amomax", 0x14), ("amominu", 0x18),
                           ("amomaxu", 0x1C)):
        _row(f"{_name}.{_size}", _r(op.AMO, _f3, _funct5 << 2),
             (XD, XS2, BASE), "load store amo", ignored=_AQ_RL)

# ---------------------------------------------------------------------------
# F and D.  The rounding mode is ignored (arithmetic is the host's
# round-to-nearest-even); the encoder writes rm = 0.
# ---------------------------------------------------------------------------

_RM = _r(0, 7, 0)
_FFF, _FF, _XFF, _XF, _FX = (FD, FS1, FS2), (FD, FS1), (XD, FS1, FS2), \
    (XD, FS1), (FD, XS1)

for _size, _f3 in (("w", 2), ("d", 3)):
    _row(f"fl{_size}", _i(op.LOAD_FP, _f3), (FD, MEM_I), "load fp")
    _row(f"fs{_size}", _i(op.STORE_FP, _f3), (FS2, MEM_S), "store fp")

for _fmt, _s in enumerate(("s", "d")):
    for _name, _f7 in (("fadd", 0x00), ("fsub", 0x04), ("fmul", 0x08),
                       ("fdiv", 0x0C)):
        _row(f"{_name}.{_s}", _r(op.OP_FP, 0, _f7 | _fmt), _FFF, "fp",
             ignored=_RM)
    _row(f"fsqrt.{_s}", _r(op.OP_FP, 0, 0x2C | _fmt), _FF, "fp", ignored=_RM)
    for _name, _f7, _f3 in (("fsgnj", 0x10, 0), ("fsgnjn", 0x10, 1),
                            ("fsgnjx", 0x10, 2), ("fmin", 0x14, 0),
                            ("fmax", 0x14, 1)):
        _row(f"{_name}.{_s}", _r(op.OP_FP, _f3, _f7 | _fmt), _FFF, "fp")
    for _name, _f3 in (("fle", 0), ("flt", 1), ("feq", 2)):
        _row(f"{_name}.{_s}", _r(op.OP_FP, _f3, 0x50 | _fmt), _XFF, "fp")
    _row(f"fclass.{_s}", _r(op.OP_FP, 1, 0x70 | _fmt), _XF, "fp")
    for _code, _int in enumerate(("w", "wu", "l", "lu")):
        _row(f"fcvt.{_int}.{_s}", _r(op.OP_FP, 0, 0x60 | _fmt, _code), _XF,
             "fp", ignored=_RM)
        _row(f"fcvt.{_s}.{_int}", _r(op.OP_FP, 0, 0x68 | _fmt, _code), _FX,
             "fp", ignored=_RM)
    for _name, _opcode in (("fmadd", op.MADD), ("fmsub", op.MSUB),
                           ("fnmsub", op.NMSUB), ("fnmadd", op.NMADD)):
        _row(f"{_name}.{_s}", f.encode_r4(_opcode, 0, 0, 0, 0, 0, _fmt),
             (FD, FS1, FS2, FS3), "fp", ignored=_RM)
_row("fcvt.s.d", _r(op.OP_FP, 0, 0x20, 1), _FF, "fp", ignored=_RM)
_row("fcvt.d.s", _r(op.OP_FP, 0, 0x21, 0), _FF, "fp", ignored=_RM)
_row("fmv.x.w", _r(op.OP_FP, 0, 0x70), _XF, "fp")
_row("fmv.x.d", _r(op.OP_FP, 0, 0x71), _XF, "fp")
_row("fmv.w.x", _r(op.OP_FP, 0, 0x78), _FX, "fp")
_row("fmv.d.x", _r(op.OP_FP, 0, 0x79), _FX, "fp")

# ---------------------------------------------------------------------------
# V: configuration and memory
# ---------------------------------------------------------------------------

_row("vsetvli", _i(op.OP_V, 7), (XD, XS1, VTYPE11), "vector")
_row("vsetivli", _i(op.OP_V, 7, 0xC00), (XD, AVL5, VTYPE10), "vector")
_row("vsetvl", _r(op.OP_V, 7, 0x40), (XD, XS1, XS2), "vector")

for _eew, _width in f.EEW_TO_VMEM_WIDTH.items():
    for _way, _opcode, _data in (("l", op.LOAD_FP, VD),
                                 ("s", op.STORE_FP, VS3)):
        _flags = ("load" if _way == "l" else "store") + " vector vector_mem"
        # name -> (mop, what follows the base register)
        for _name, (_mop, _extra) in {
                f"v{_way}e{_eew}.v": (0b00, ()),
                f"v{_way}se{_eew}.v": (0b10, (XS2,)),
                f"v{_way}uxei{_eew}.v": (0b01, (VS2,)),
                f"v{_way}oxei{_eew}.v": (0b11, (VS2,))}.items():
            _row(_name,
                 f.encode_vector_mem(0, _mop, 0, 0, 0, _width, 0, _opcode),
                 (_data, BASE, *_extra, VM), _flags)

# ---------------------------------------------------------------------------
# V: arithmetic.  ``base.shape`` for every shape a family has; funct3
# and the kind of the shape's scalar-or-vector operand come from the
# category (OPI / OPM / OPF) and the shape.
# ---------------------------------------------------------------------------

_SHAPES = {
    "i": {"vv": (0b000, VS1), "vx": (0b100, XS1), "vi": (0b011, SIMM5)},
    "m": {"vv": (0b010, VS1), "vx": (0b110, XS1), "vs": (0b010, VS1)},
    "f": {"vv": (0b001, VS1), "vf": (0b101, FS1), "vs": (0b001, VS1)},
}
_VFLAGS = {"i": "vector", "m": "vector", "f": "vector fp"}


def _v(funct6: int, funct3: int, vm: int = 0, vs1: int = 0) -> int:
    return f.encode_vector_arith(funct6, vm, 0, vs1, funct3, 0, op.OP_V)


# Shapes the family loops below would make but RVV 1.0 does not define:
# no row, so their words decode as illegal (and ``semantics`` has no row
# for them either).
UNDEFINED_SHAPES = frozenset({
    "vsub.vi", "vrsub.vv", "vmin.vi", "vminu.vi", "vmax.vi", "vmaxu.vi",
    "vmslt.vi", "vmsltu.vi", "vmsgt.vv", "vmsgtu.vv"})


def _vrows(category: str, shapes: tuple, funct6s: dict, *,
           accumulate: bool = False, imm: Kind = SIMM5) -> None:
    for base, funct6 in funct6s.items():
        for shape in shapes:
            if f"{base}.{shape}" in UNDEFINED_SHAPES:
                continue
            funct3, op1 = _SHAPES[category][shape]
            if shape == "vi":
                op1 = imm
            # A multiply-accumulate is written ``vd, op1, vs2``.
            operands = (VD_RW, op1, VS2, VM) if accumulate \
                else (VD, VS2, op1, VM)
            _row(f"{base}.{shape}", _v(funct6, funct3), operands,
                 _VFLAGS[category])


_OPI, _OPM, _OPF = ("vv", "vx", "vi"), ("vv", "vx"), ("vv", "vf")
_vrows("i", _OPI, {
    "vadd": 0x00, "vsub": 0x02, "vrsub": 0x03, "vminu": 0x04, "vmin": 0x05,
    "vmaxu": 0x06, "vmax": 0x07, "vand": 0x09, "vor": 0x0A, "vxor": 0x0B,
    "vmseq": 0x18, "vmsne": 0x19, "vmsltu": 0x1A, "vmslt": 0x1B,
    "vmsleu": 0x1C, "vmsle": 0x1D, "vmsgtu": 0x1E, "vmsgt": 0x1F})
_vrows("i", _OPI, {"vrgather": 0x0C, "vsll": 0x25, "vsrl": 0x28,
                   "vsra": 0x29}, imm=UIMM5)
# OPIVV has vrgatherei16 and a reserved encoding at these two funct6.
_vrows("i", ("vx", "vi"), {"vslideup": 0x0E, "vslidedown": 0x0F}, imm=UIMM5)
_vrows("m", ("vs",), {
    "vredsum": 0x00, "vredand": 0x01, "vredor": 0x02, "vredxor": 0x03,
    "vredminu": 0x04, "vredmin": 0x05, "vredmaxu": 0x06, "vredmax": 0x07})
_vrows("m", _OPM, {
    "vdivu": 0x20, "vdiv": 0x21, "vremu": 0x22, "vrem": 0x23,
    "vmulhu": 0x24, "vmul": 0x25, "vmulhsu": 0x26, "vmulh": 0x27})
_vrows("m", _OPM, {"vmadd": 0x29, "vnmsub": 0x2B, "vmacc": 0x2D,
                   "vnmsac": 0x2F}, accumulate=True)
_vrows("f", ("vs",), {"vfredusum": 0x01, "vfredosum": 0x03,
                      "vfredmin": 0x05, "vfredmax": 0x07})
_vrows("f", _OPF, {
    "vfadd": 0x00, "vfsub": 0x02, "vfmin": 0x04, "vfmax": 0x06,
    "vfsgnj": 0x08, "vfsgnjn": 0x09, "vfsgnjx": 0x0A,
    "vmfeq": 0x18, "vmfle": 0x19, "vmflt": 0x1B, "vmfne": 0x1C,
    "vfdiv": 0x20, "vfmul": 0x24})
_vrows("f", _OPF, {
    "vfmadd": 0x28, "vfnmadd": 0x29, "vfmsub": 0x2A, "vfnmsub": 0x2B,
    "vfmacc": 0x2C, "vfnmacc": 0x2D, "vfmsac": 0x2E, "vfnmsac": 0x2F},
    accumulate=True)

# funct6 0x17: a move when unmasked (vs2 = 0), a merge under v0.
for _letter, _category, _shape in (("v", "i", "vv"), ("x", "i", "vx"),
                                   ("i", "i", "vi"), ("f", "f", "vf")):
    _f3, _op1 = _SHAPES[_category][_shape]
    _v_or_vf = "vf" if _category == "f" else "v"
    _row(f"{_v_or_vf}mv.v.{_letter}", _v(0x17, _f3, vm=1), (VD, _op1),
         _VFLAGS[_category])
    _row(f"{_v_or_vf}merge.v{_letter}m", _v(0x17, _f3),
         (VD, VS2, _op1, V0), _VFLAGS[_category])

# Scalar <-> element 0 (VWXUNARY0 / VRXUNARY0 and their FP twins), and
# VMUNARY0, whose vs1 field selects the operation.
_row("vmv.x.s", _v(0x10, 0b010, vm=1), (XD, VS2), "vector")
_row("vmv.s.x", _v(0x10, 0b110, vm=1), (VD, XS1), "vector")
_row("vfmv.f.s", _v(0x10, 0b001, vm=1), (FD, VS2), "vector fp")
_row("vfmv.s.f", _v(0x10, 0b101, vm=1), (VD, FS1), "vector fp")
_row("viota.m", _v(0x14, 0b010, vs1=0b10000), (VD, VS2, VM), "vector")
_row("vid.v", _v(0x14, 0b010, vs1=0b10001), (VD, VM), "vector")
