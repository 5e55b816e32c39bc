"""The one table of instruction semantics.

Every scalar instruction that computes a value from registers and
immediates, every scalar load/store, every conditional branch and every
RVV instruction that computes elements from elements is defined here
once.  :mod:`repro.spike.hart` derives its executors from
the table and :mod:`repro.spike.translate` derives the source it emits
from the same rows (the approach of Guo & Mullins, PAPERS.md: generate
interpreter and translator from one description so they cannot drift),
so what an instruction *computes* has a single spelling; the two
consumers only add operand routing (interpreter) and the timing model
(translator).

* ``COMPUTE`` — one :class:`Row` per register-to-register mnemonic: an
  operand :class:`Form` plus one Python expression over the form's
  operand names that yields the value *as stored* (integers masked to 64
  bits, binary32 results rounded).  Expressions are written in the
  spelling the translator emits, because they are pasted into block
  source verbatim with the operands substituted.
* ``LOADS`` / ``STORES`` — access size, signedness and register class.
* ``BRANCHES`` — the comparison over ``a`` (rs1) and ``b`` (rs2).
* ``FN`` — every expression above compiled (once, together) into a
  function of its operands.
* ``HELPERS`` — the names an expression may call; rare operations stay
  one call rather than an inlined expression.
* ``VECTOR`` — one :class:`VRow` per RVV mnemonic: what the expression
  computes (``kind``), where its ``b`` operand comes from, how elements
  are viewed, and one per-element expression.  ``VLOADS`` / ``VSTORES``
  give the vector memory instructions' element width and addressing.
  :func:`repro.spike.vector.row_source` turns a row into the statements
  both consumers run.

Effectful instructions (jumps, system, CSR, atomics, ``vsetvl``,
``viota.m``) are not rows; their executors live in ``hart.py`` /
``vector.py``.
"""

from __future__ import annotations

import math
import re
import struct
from typing import NamedTuple

from repro.isa.encoding import UNDEFINED_SHAPES
from repro.utils.bitops import MASK32, MASK64, sign_extend

# ---------------------------------------------------------------------------
# Bit casts and binary32 rounding
# ---------------------------------------------------------------------------

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def f64_to_bits(value: float) -> int:
    return _U64.unpack(_F64.pack(value))[0]


def bits_to_f64(raw: int) -> float:
    return _F64.unpack(_U64.pack(raw & MASK64))[0]


def _pack_f32(value: float) -> bytes:
    # struct raises exactly when round-to-nearest leaves the binary32
    # range, which IEEE 754 rounds to the infinity of that sign.
    try:
        return _F32.pack(value)
    except OverflowError:
        return _F32.pack(math.copysign(math.inf, value))


def f32_to_bits(value: float) -> int:
    return _U32.unpack(_pack_f32(value))[0]


def bits_to_f32(raw: int) -> float:
    return _F32.unpack(_U32.pack(raw & MASK32))[0]


def round_f32(value: float) -> float:
    """Round a double to the nearest representable float32."""
    return _F32.unpack(_pack_f32(value))[0]


# ---------------------------------------------------------------------------
# Rare-path helpers
# ---------------------------------------------------------------------------

def sdiv(a: int, b: int) -> int:
    """Signed division truncating toward zero (operands already signed)."""
    if b == 0:
        return -1
    if a == -(1 << 63) and b == -1:
        return a
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def srem(a: int, b: int) -> int:
    if b == 0:
        return a
    if a == -(1 << 63) and b == -1:
        return 0
    return a - sdiv(a, b) * b


def fp_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = -1.0 if (a < 0) != (math.copysign(1.0, b) < 0) else 1.0
        return sign * math.inf
    return a / b


def fp_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:  # -0.0 is the minimum
        return a if math.copysign(1.0, a) < 0 else b
    return min(a, b)


def fp_max(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    if a == 0.0 and b == 0.0:
        return a if math.copysign(1.0, a) > 0 else b
    return max(a, b)


def fp_sgnj(a: float, b: float) -> float:
    """Copy b's sign onto a's magnitude."""
    if math.isnan(a):
        return math.nan
    return math.copysign(abs(a), b)


def fp_sgnjx(a: float, b: float) -> float:
    """Result sign is the XOR of both operand signs, on a's magnitude."""
    if math.isnan(a):
        return math.nan
    negative = (math.copysign(1.0, a) < 0) != (math.copysign(1.0, b) < 0)
    return math.copysign(abs(a), -1.0 if negative else 1.0)


def fcvt_to_int(value: float, width: int, signed: bool) -> int:
    """Float -> ``width``-bit integer as the register stores it:
    truncated, saturated (NaN to the maximum), 32-bit results
    sign-extended."""
    if signed:
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        low, high = 0, (1 << width) - 1
    if math.isnan(value) or value == math.inf:
        result = high
    elif value == -math.inf:
        result = low
    else:
        result = min(max(math.trunc(value), low), high)
    return sign_extend(result, width) & MASK64


def fclass(value: float) -> int:
    if math.isnan(value):
        return 1 << 9  # quiet NaN
    if value == math.inf:
        return 1 << 7
    if value == -math.inf:
        return 1 << 0
    if value == 0.0:
        return 1 << 4 if math.copysign(1.0, value) > 0 else 1 << 3
    if value > 0:
        return 1 << 6
    return 1 << 1


HELPERS = {
    "R": round_f32, "sdiv": sdiv, "srem": srem, "sign_extend": sign_extend,
    "fp_div": fp_div, "fp_min": fp_min, "fp_max": fp_max,
    "fp_sgnj": fp_sgnj, "fp_sgnjx": fp_sgnjx, "fcvt_to_int": fcvt_to_int,
    "fclass": fclass, "f64_to_bits": f64_to_bits,
    "bits_to_f64": bits_to_f64, "f32_to_bits": f32_to_bits,
    "bits_to_f32": bits_to_f32, "float": float, "sqrt": math.sqrt,
    "nan": math.nan, "min": min, "max": max,
}

# An identifier in a row's expression: an operand name or a helper.
NAME = re.compile(r"\b[A-Za-z_]\w*")


# ---------------------------------------------------------------------------
# Operand forms
# ---------------------------------------------------------------------------

class Form(NamedTuple):
    """Where a row's value goes and where its named operands come from.

    ``dest`` is the register file (``"x"`` or ``"f"``) written at
    ``instr.rd``; writes to ``x0`` are discarded.  Each operand is
    ``(name, register file, Instruction field)``; a register file of
    ``None`` marks a translate-time constant (an immediate, or ``"pc"``
    for the instruction's own address), and ``x0`` reads as the
    constant 0.
    """

    dest: str
    operands: tuple


_XA, _XB = ("a", "x", "rs1"), ("b", "x", "rs2")
_FA, _FB, _FC = ("a", "f", "rs1"), ("b", "f", "rs2"), ("c", "f", "rs3")
_IMM, _SH, _PC = ("imm", None, "imm"), ("sh", None, "shamt"), \
    ("pc", None, "pc")

X_XX = Form("x", (_XA, _XB))
X_XI = Form("x", (_XA, _IMM))
X_XS = Form("x", (_XA, _SH))
X_PI = Form("x", (_PC, _IMM))
X_FF = Form("x", (_FA, _FB))
X_F = Form("x", (_FA,))
F_FF = Form("f", (_FA, _FB))
F_FFF = Form("f", (_FA, _FB, _FC))
F_F = Form("f", (_FA,))
F_X = Form("f", (_XA,))


class Row(NamedTuple):
    form: Form
    expr: str
    # An equal, cheaper expression for imm == 0 (``addi rd, rs, 0`` is
    # ``mv``); only the translator, which sees the immediate, uses it.
    imm0: str | None = None


# ---------------------------------------------------------------------------
# Expression spellings shared by several rows
# ---------------------------------------------------------------------------

_M = "0xFFFFFFFFFFFFFFFF"
_M32 = "0xFFFFFFFF"


def _s(name: str) -> str:
    """Signed view of the 64-bit operand ``name``."""
    return f"({name} - (({name} >> 63) << 64))"


def _s32(expr: str) -> str:
    """Signed view of the 32-bit value of ``expr``."""
    return f"((w := {expr}) - ((w >> 31) << 32))"


def _w(expr: str) -> str:
    """The 32-bit value of ``expr``, sign-extended, as stored."""
    return f"{_s32(expr)} & {_M}"


def _lo(name: str) -> str:
    return f"({name} & {_M32})"


# ---------------------------------------------------------------------------
# Register-to-register rows
# ---------------------------------------------------------------------------

COMPUTE: dict[str, Row] = {
    "lui": Row(X_PI, f"imm & {_M}"),
    "auipc": Row(X_PI, f"(pc + imm) & {_M}"),

    "addi": Row(X_XI, f"(a + imm) & {_M}", imm0="a"),
    "slti": Row(X_XI, f"1 if {_s('a')} < imm else 0"),
    "sltiu": Row(X_XI, f"1 if a < (imm & {_M}) else 0"),
    "xori": Row(X_XI, f"a ^ (imm & {_M})"),
    "ori": Row(X_XI, f"a | (imm & {_M})"),
    "andi": Row(X_XI, f"a & (imm & {_M})"),
    "slli": Row(X_XS, f"(a << sh) & {_M}"),
    "srli": Row(X_XS, "a >> sh"),
    "srai": Row(X_XS, f"({_s('a')} >> sh) & {_M}"),
    "addiw": Row(X_XI, _w(f"(a + imm) & {_M32}")),
    "slliw": Row(X_XS, _w(f"(a << sh) & {_M32}")),
    "srliw": Row(X_XS, _w(f"{_lo('a')} >> sh")),
    "sraiw": Row(X_XS, f"({_s32(f'a & {_M32}')} >> sh) & {_M}"),

    "add": Row(X_XX, f"(a + b) & {_M}"),
    "sub": Row(X_XX, f"(a - b) & {_M}"),
    "sll": Row(X_XX, f"(a << (b & 63)) & {_M}"),
    "slt": Row(X_XX, f"1 if {_s('a')} < {_s('b')} else 0"),
    "sltu": Row(X_XX, "1 if a < b else 0"),
    "xor": Row(X_XX, "a ^ b"),
    "srl": Row(X_XX, "a >> (b & 63)"),
    "sra": Row(X_XX, f"({_s('a')} >> (b & 63)) & {_M}"),
    "or": Row(X_XX, "a | b"),
    "and": Row(X_XX, "a & b"),
    "addw": Row(X_XX, _w(f"(a + b) & {_M32}")),
    "subw": Row(X_XX, _w(f"(a - b) & {_M32}")),
    "sllw": Row(X_XX, _w(f"(a << (b & 31)) & {_M32}")),
    "srlw": Row(X_XX, _w(f"{_lo('a')} >> (b & 31)")),
    "sraw": Row(X_XX, f"({_s32(f'a & {_M32}')} >> (b & 31)) & {_M}"),

    "mul": Row(X_XX, f"(a * b) & {_M}"),
    "mulh": Row(X_XX, f"(({_s('a')} * {_s('b')}) >> 64) & {_M}"),
    "mulhsu": Row(X_XX, f"(({_s('a')} * b) >> 64) & {_M}"),
    "mulhu": Row(X_XX, "(a * b) >> 64"),
    "div": Row(X_XX, f"sdiv({_s('a')}, {_s('b')}) & {_M}"),
    "divu": Row(X_XX, f"(a // b) if b else {_M}"),
    "rem": Row(X_XX, f"srem({_s('a')}, {_s('b')}) & {_M}"),
    "remu": Row(X_XX, "(a % b) if b else a"),
    "mulw": Row(X_XX, _w(f"(a * b) & {_M32}")),
    "divw": Row(X_XX, _w(
        f"sdiv(sign_extend(a, 32), sign_extend(b, 32)) & {_M32}")),
    "divuw": Row(X_XX, _w(
        f"({_lo('a')} // {_lo('b')}) if {_lo('b')} else {_M32}")),
    "remw": Row(X_XX, _w(
        f"srem(sign_extend(a, 32), sign_extend(b, 32)) & {_M32}")),
    "remuw": Row(X_XX, _w(
        f"({_lo('a')} % {_lo('b')}) if {_lo('b')} else {_lo('a')}")),

    "fcvt.s.d": Row(F_F, "R(a)"),
    "fcvt.d.s": Row(F_F, "a"),
    "fmv.x.d": Row(X_F, "f64_to_bits(a)"),
    "fmv.x.w": Row(X_F, f"sign_extend(f32_to_bits(a), 32) & {_M}"),
    "fmv.d.x": Row(F_X, "bits_to_f64(a)"),
    "fmv.w.x": Row(F_X, "bits_to_f32(a)"),
}


def _fp_rows(form: Form, rows: dict[str, str]) -> None:
    """``base.d`` as written; ``base.s`` additionally rounds to binary32."""
    for base, expr in rows.items():
        COMPUTE[f"{base}.d"] = Row(form, expr)
        COMPUTE[f"{base}.s"] = Row(form, f"R({expr})")


_fp_rows(F_FF, {
    "fadd": "a + b", "fsub": "a - b", "fmul": "a * b",
    "fdiv": "fp_div(a, b)", "fmin": "fp_min(a, b)", "fmax": "fp_max(a, b)",
    "fsgnj": "fp_sgnj(a, b)", "fsgnjn": "fp_sgnj(a, -b)",
    "fsgnjx": "fp_sgnjx(a, b)"})
_fp_rows(F_FFF, {
    "fmadd": "a * b + c", "fmsub": "a * b - c",
    "fnmadd": "-(a * b) - c", "fnmsub": "-(a * b) + c"})
_fp_rows(F_F, {"fsqrt": "sqrt(a) if a >= 0 else nan"})
# Integer -> float: the conversion of the source's w/wu/l/lu view.
for _int, _view in (("w", "sign_extend(a, 32)"), ("wu", _lo("a")),
                    ("l", _s("a")), ("lu", "a")):
    COMPUTE[f"fcvt.d.{_int}"] = Row(F_X, f"float({_view})")
    COMPUTE[f"fcvt.s.{_int}"] = Row(F_X, f"R(float({_view}))")
for _fmt in ("d", "s"):
    # A comparison with a NaN operand is False, hence 0.
    COMPUTE[f"feq.{_fmt}"] = Row(X_FF, "1 if a == b else 0")
    COMPUTE[f"flt.{_fmt}"] = Row(X_FF, "1 if a < b else 0")
    COMPUTE[f"fle.{_fmt}"] = Row(X_FF, "1 if a <= b else 0")
    COMPUTE[f"fclass.{_fmt}"] = Row(X_F, "fclass(a)")
    for _int, _width, _signed in (("w", 32, True), ("wu", 32, False),
                                  ("l", 64, True), ("lu", 64, False)):
        COMPUTE[f"fcvt.{_int}.{_fmt}"] = Row(
            X_F, f"fcvt_to_int(a, {_width}, {_signed})")


# ---------------------------------------------------------------------------
# Memory and branch rows
# ---------------------------------------------------------------------------

# mnemonic -> (access bytes, sign-extend the loaded value, register file)
LOADS = {
    "lb": (1, True, "x"), "lh": (2, True, "x"), "lw": (4, True, "x"),
    "ld": (8, False, "x"), "lbu": (1, False, "x"), "lhu": (2, False, "x"),
    "lwu": (4, False, "x"), "flw": (4, False, "f"), "fld": (8, False, "f"),
}
# mnemonic -> (access bytes, register file)
STORES = {
    "sb": (1, "x"), "sh": (2, "x"), "sw": (4, "x"), "sd": (8, "x"),
    "fsw": (4, "f"), "fsd": (8, "f"),
}
# mnemonic -> "taken" condition over a = x[rs1], b = x[rs2]
BRANCHES = {
    "beq": "a == b",
    "bne": "a != b",
    "blt": f"{_s('a')} < {_s('b')}",
    "bge": f"{_s('a')} >= {_s('b')}",
    "bltu": "a < b",
    "bgeu": "a >= b",
}


# ---------------------------------------------------------------------------
# Vector rows
# ---------------------------------------------------------------------------

class VRow(NamedTuple):
    """One RVV instruction as a per-element expression.

    ``kind`` says what the expression's value is:

    * ``"each"`` — element ``i`` of vd;
    * ``"mask"`` — bit ``i`` of the mask register vd (its truth);
    * ``"fold"`` — the next accumulator of a reduction, ``b`` being the
      accumulator (element 0 of vs1 to begin with); element 0 of vd gets
      the last one, and nothing is written when ``vl`` is 0;
    * ``"pick"`` — element ``i`` of vd chosen out of ``A``, all VLMAX
      elements of vs2 (slides, gather);
    * ``"first"`` — element 0 of vd (written when ``vl`` > 0);
    * ``"to_x"`` / ``"to_f"`` — the scalar register rd.

    Operands by name: ``a`` is element ``i`` of vs2 (element 0 for
    ``to_x``/``to_f``), ``d`` the old element ``i`` of vd, ``i`` the
    element index, ``b`` whatever ``b`` names — ``"v"`` element ``i`` of
    vs1, ``"x"`` x[rs1], ``"i"`` the immediate, ``"f"`` f[rs1] —
    ``sew`` the element width, ``m`` its all-ones mask and ``vlmax``.
    ``view`` is how elements and integer scalars are read: ``"u"``
    unsigned, ``"s"`` signed, ``"f"`` the binary32/binary64 value
    (``pick`` rows take an integer scalar as it stands: a slide amount
    is not an element).  The value is the element *as stored*: an
    unsigned SEW-bit integer or a float (binary32 rounding, overflow to
    the infinity of the sign, happens where the group is packed).

    Under ``v0.t`` the expression's value is kept for the active
    elements only; with ``merge`` the others come from vs2 instead of
    vd, which is all that ``vmerge`` adds to a masked move.
    """

    kind: str
    b: str | None
    view: str
    expr: str
    merge: bool = False


VECTOR: dict[str, VRow] = {}

_B_OF_SHAPE = {"vv": "v", "vx": "x", "vi": "i", "vf": "f", "vs": "v"}
_OPI, _OPM, _OPF = ("vv", "vx", "vi"), ("vv", "vx"), ("vv", "vf")


def _vrows(kind: str, view: str, shapes: tuple, rows: dict[str, str]) -> None:
    for base, expr in rows.items():
        for shape in shapes:
            if f"{base}.{shape}" not in UNDEFINED_SHAPES:
                VECTOR[f"{base}.{shape}"] = VRow(kind, _B_OF_SHAPE[shape],
                                                 view, expr)


_SHIFT = "(b & (sew - 1))"
_vrows("each", "u", _OPI, {
    "vadd": "(a + b) & m", "vsub": "(a - b) & m", "vrsub": "(b - a) & m",
    "vand": "a & b", "vor": "a | b", "vxor": "a ^ b",
    "vsll": f"(a << {_SHIFT}) & m", "vsrl": f"a >> {_SHIFT}",
    "vminu": "min(a, b)", "vmaxu": "max(a, b)"})
_vrows("each", "s", _OPI, {
    "vsra": f"(a >> {_SHIFT}) & m",
    "vmin": "min(a, b) & m", "vmax": "max(a, b) & m"})
_vrows("each", "u", _OPM, {
    "vmul": "(a * b) & m", "vmulhu": "(a * b) >> sew",
    "vdivu": "a // b if b else m", "vremu": "a % b if b else a",
    # Multiply-accumulate: b is vs1/rs1, a is vs2, d is vd.
    "vmacc": "(d + b * a) & m", "vnmsac": "(d - b * a) & m",
    "vmadd": "(d * b + a) & m", "vnmsub": "(a - d * b) & m"})
_vrows("each", "s", _OPM, {
    "vmulh": "((a * b) >> sew) & m", "vmulhsu": "((a * (b & m)) >> sew) & m",
    # The most negative dividend over -1 is 2**(sew-1), i.e. itself
    # once masked; a remainder of 0 follows.
    "vdiv": "sdiv(a, b) & m", "vrem": "srem(a, b) & m"})
_vrows("each", "f", _OPF, {
    "vfadd": "a + b", "vfsub": "a - b", "vfmul": "a * b",
    "vfdiv": "fp_div(a, b)", "vfmin": "fp_min(a, b)", "vfmax": "fp_max(a, b)",
    "vfsgnj": "fp_sgnj(a, b)", "vfsgnjn": "fp_sgnj(a, -b)",
    "vfsgnjx": "fp_sgnjx(a, b)",
    "vfmacc": "b * a + d", "vfnmacc": "-(b * a) - d",
    "vfmsac": "b * a - d", "vfnmsac": "-(b * a) + d",
    "vfmadd": "d * b + a", "vfnmadd": "-(d * b) - a",
    "vfmsub": "d * b - a", "vfnmsub": "-(d * b) + a"})

_vrows("mask", "u", _OPI, {
    "vmseq": "a == b", "vmsne": "a != b", "vmsltu": "a < b",
    "vmsleu": "a <= b", "vmsgtu": "a > b"})
_vrows("mask", "s", _OPI, {
    "vmslt": "a < b", "vmsle": "a <= b", "vmsgt": "a > b"})
# Python's float comparisons are IEEE's: false with a NaN, != true.
_vrows("mask", "f", _OPF, {
    "vmfeq": "a == b", "vmfne": "a != b", "vmflt": "a < b",
    "vmfle": "a <= b"})

_vrows("fold", "u", ("vs",), {
    "vredsum": "(b + a) & m", "vredand": "b & a", "vredor": "b | a",
    "vredxor": "b ^ a", "vredminu": "min(b, a)", "vredmaxu": "max(b, a)"})
_vrows("fold", "s", ("vs",), {"vredmin": "min(b, a)", "vredmax": "max(b, a)"})
_vrows("fold", "f", ("vs",), {
    "vfredosum": "b + a", "vfredusum": "b + a",
    "vfredmin": "fp_min(b, a)", "vfredmax": "fp_max(b, a)"})

_vrows("pick", "u", ("vx", "vi"), {
    "vslideup": "A[i - b] if i >= b else d",
    "vslidedown": "A[i + b] if i + b < vlmax else 0"})
_vrows("pick", "u", _OPI, {"vrgather": "A[b] if b < vlmax else 0"})

for _shape, _b in (("v", "v"), ("x", "x"), ("i", "i")):
    VECTOR[f"vmv.v.{_shape}"] = VRow("each", _b, "u", "b")
    VECTOR[f"vmerge.v{_shape}m"] = VRow("each", _b, "u", "b", merge=True)
VECTOR["vfmv.v.f"] = VRow("each", "f", "f", "b")
VECTOR["vfmerge.vfm"] = VRow("each", "f", "f", "b", merge=True)
VECTOR["vid.v"] = VRow("each", None, "u", "i & m")
VECTOR["vmv.s.x"] = VRow("first", "x", "u", "b")
VECTOR["vfmv.s.f"] = VRow("first", "f", "f", "b")
VECTOR["vmv.x.s"] = VRow("to_x", None, "s", f"a & {_M}")
VECTOR["vfmv.f.s"] = VRow("to_f", None, "f", "a")

# mnemonic -> (element width the instruction names, addressing)
VLOADS: dict[str, tuple] = {}
VSTORES: dict[str, tuple] = {}
for _eew in (8, 16, 32, 64):
    for _table, _way in ((VLOADS, "l"), (VSTORES, "s")):
        _table[f"v{_way}e{_eew}.v"] = (_eew, "unit")
        _table[f"v{_way}se{_eew}.v"] = (_eew, "strided")
        # Indexed: the width is the indices'; data elements are SEW.
        _table[f"v{_way}uxei{_eew}.v"] = (_eew, "indexed")
        _table[f"v{_way}oxei{_eew}.v"] = (_eew, "indexed")


def _compile_table() -> dict:
    """Every row's expression as a function of its operands, through a
    single ``compile()`` so import pays for one code object, not 107."""
    entries = [
        f"{mnemonic!r}: lambda "
        f"{', '.join(name for name, _file, _field in row.form.operands)}: "
        f"{row.expr}"
        for mnemonic, row in COMPUTE.items()]
    entries += [f"{mnemonic!r}: lambda a, b: {condition}"
                for mnemonic, condition in BRANCHES.items()]
    source = "{" + ",\n".join(entries) + "}"
    return eval(compile(source, "<scalar semantics>", "eval"),
                {**HELPERS, "__builtins__": {}})


FN: dict = _compile_table()
