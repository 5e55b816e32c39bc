"""RVV-subset vector executors.

Registered into :data:`repro.spike.hart.EXEC` on import.  The model follows
RVV 1.0 semantics for the subset the kernels need: vset{i}vl{i}, unit-stride
/ strided / indexed loads and stores, integer and FP arithmetic (including
multiply-accumulate), reductions, masks, merges, slides and gathers.

Elements are stored little-endian inside each vector register's backing
``bytearray``; LMUL > 1 treats consecutive registers as one group.  Masked
elements (``vm = 0`` and mask bit clear) are left undisturbed, which is a
legal mask-undisturbed implementation.
"""

from __future__ import annotations

import math
import struct

from repro.isa.decoder import Instruction
from repro.isa.vtype import VType
from repro.spike.hart import EXEC, Hart, Trap, executor
from repro.spike.semantics import (
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
    fp_div,
    fp_max,
    fp_min,
    fp_sgnj,
    fp_sgnjx,
    round_f32,
)
from repro.utils.bitops import MASK64, sign_extend

_SEWS = (8, 16, 32, 64)


class VectorConfigError(Trap):
    """Raised when a vector instruction runs under an unusable vtype."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"vector configuration error: {reason}", pc)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@executor("vsetvli")
def _vsetvli(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(instr.imm)
    _apply_vset(hart, instr, vtype, avl_reg=instr.rs1)


@executor("vsetivli")
def _vsetivli(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(instr.imm)
    new_vl = hart.set_vl(instr.shamt, vtype)
    hart.write_reg(instr.rd, new_vl)


@executor("vsetvl")
def _vsetvl(hart: Hart, instr: Instruction) -> None:
    vtype = VType.decode(hart.regs[instr.rs2])
    _apply_vset(hart, instr, vtype, avl_reg=instr.rs1)


def _apply_vset(hart: Hart, instr: Instruction, vtype: VType,
                avl_reg: int) -> None:
    if avl_reg != 0:
        avl = hart.regs[avl_reg]
    elif instr.rd != 0:
        avl = (1 << 62)  # AVL = ~0: request VLMAX
    else:
        avl = hart.vl  # keep vl, change vtype only
    new_vl = hart.set_vl(avl, vtype)
    hart.write_reg(instr.rd, new_vl)


def _require_vconfig(hart: Hart) -> int:
    if hart.vtype.vill:
        raise VectorConfigError(hart.pc, "vtype is vill")
    return hart.vtype.sew


def _active(hart: Hart, instr: Instruction, index: int) -> bool:
    return bool(instr.vm) or bool(hart.read_vmask_bit(index))


# ---------------------------------------------------------------------------
# Loads and stores
# ---------------------------------------------------------------------------

def _unit_stride(hart: Hart, instr: Instruction, eew: int,
                 is_load: bool) -> None:
    base = hart.regs[instr.rs1]
    step = eew // 8
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            continue
        address = (base + i * step) & MASK64
        if is_load:
            hart.write_velem(instr.rd, i, eew,
                             hart.load_int(address, step))
        else:
            hart.store_int(address, hart.read_velem(instr.rd, i, eew), step)


def _strided(hart: Hart, instr: Instruction, eew: int,
             is_load: bool) -> None:
    base = hart.regs[instr.rs1]
    stride = sign_extend(hart.regs[instr.rs2], 64)
    step = eew // 8
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            continue
        address = (base + i * stride) & MASK64
        if is_load:
            hart.write_velem(instr.rd, i, eew,
                             hart.load_int(address, step))
        else:
            hart.store_int(address, hart.read_velem(instr.rd, i, eew), step)


def _indexed(hart: Hart, instr: Instruction, index_eew: int,
             is_load: bool) -> None:
    sew = _require_vconfig(hart)
    base = hart.regs[instr.rs1]
    step = sew // 8
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            continue
        offset = hart.read_velem(instr.rs2, i, index_eew)
        address = (base + offset) & MASK64
        if is_load:
            hart.write_velem(instr.rd, i, sew, hart.load_int(address, step))
        else:
            hart.store_int(address, hart.read_velem(instr.rd, i, sew), step)


def _register_vector_memops() -> None:
    for eew in _SEWS:
        def make_unit(eew=eew, is_load=True):
            def fn(hart, instr):
                _unit_stride(hart, instr, eew, is_load)
            return fn

        def make_strided(eew=eew, is_load=True):
            def fn(hart, instr):
                _strided(hart, instr, eew, is_load)
            return fn

        def make_indexed(eew=eew, is_load=True):
            def fn(hart, instr):
                _indexed(hart, instr, eew, is_load)
            return fn

        EXEC[f"vle{eew}.v"] = make_unit(eew, True)

        def unit_store(hart, instr, eew=eew):
            _unit_stride(hart, instr, eew, False)
        EXEC[f"vse{eew}.v"] = unit_store

        EXEC[f"vlse{eew}.v"] = make_strided(eew, True)

        def strided_store(hart, instr, eew=eew):
            _strided(hart, instr, eew, False)
        EXEC[f"vsse{eew}.v"] = strided_store

        EXEC[f"vluxei{eew}.v"] = make_indexed(eew, True)
        EXEC[f"vloxei{eew}.v"] = make_indexed(eew, True)

        def indexed_store(hart, instr, eew=eew):
            _indexed(hart, instr, eew, False)
        EXEC[f"vsuxei{eew}.v"] = indexed_store
        EXEC[f"vsoxei{eew}.v"] = indexed_store


_register_vector_memops()


# ---------------------------------------------------------------------------
# Integer arithmetic
# ---------------------------------------------------------------------------

def _mask_to(value: int, sew: int) -> int:
    return value & ((1 << sew) - 1)


_V_INT_BINOPS = {
    "vadd": lambda a, b, sew: a + b,
    "vsub": lambda a, b, sew: a - b,
    "vrsub": lambda a, b, sew: b - a,
    "vand": lambda a, b, sew: a & b,
    "vor": lambda a, b, sew: a | b,
    "vxor": lambda a, b, sew: a ^ b,
    "vsll": lambda a, b, sew: a << (b & (sew - 1)),
    "vsrl": lambda a, b, sew: a >> (b & (sew - 1)),
    "vsra": lambda a, b, sew: sign_extend(a, sew) >> (b & (sew - 1)),
    "vmin": lambda a, b, sew: min(sign_extend(a, sew), sign_extend(b, sew)),
    "vminu": lambda a, b, sew: min(a, b),
    "vmax": lambda a, b, sew: max(sign_extend(a, sew), sign_extend(b, sew)),
    "vmaxu": lambda a, b, sew: max(a, b),
    "vmul": lambda a, b, sew: a * b,
    "vmulh": lambda a, b, sew:
        (sign_extend(a, sew) * sign_extend(b, sew)) >> sew,
    "vmulhu": lambda a, b, sew: (a * b) >> sew,
    "vmulhsu": lambda a, b, sew: (sign_extend(a, sew) * b) >> sew,
    "vdivu": lambda a, b, sew: (a // b) if b else (1 << sew) - 1,
    "vremu": lambda a, b, sew: (a % b) if b else a,
}


def _signed_div(a: int, b: int, sew: int) -> int:
    sa, sb = sign_extend(a, sew), sign_extend(b, sew)
    if sb == 0:
        return -1
    if sa == -(1 << (sew - 1)) and sb == -1:
        return sa
    quotient = abs(sa) // abs(sb)
    return -quotient if (sa < 0) != (sb < 0) else quotient


def _signed_rem(a: int, b: int, sew: int) -> int:
    sa, sb = sign_extend(a, sew), sign_extend(b, sew)
    if sb == 0:
        return sa
    return sa - _signed_div(a, b, sew) * sb


_V_INT_BINOPS["vdiv"] = _signed_div
_V_INT_BINOPS["vrem"] = _signed_rem


def _v_operand2(hart: Hart, instr: Instruction, index: int, sew: int,
                shape: str) -> int:
    if shape == "vv":
        return hart.read_velem(instr.rs1, index, sew)
    if shape == "vx":
        return _mask_to(hart.regs[instr.rs1], sew)
    return _mask_to(instr.imm, sew)  # vi


def _register_int_binops() -> None:
    for base, fn in _V_INT_BINOPS.items():
        for shape in ("vv", "vx", "vi"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _require_vconfig(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    a = hart.read_velem(instr.rs2, i, sew)
                    b = _v_operand2(hart, instr, i, sew, shape)
                    hart.write_velem(instr.rd, i, sew,
                                     _mask_to(fn(a, b, sew), sew))
            EXEC[f"{base}.{shape}"] = vexec


_register_int_binops()


_V_MACC = {
    # result = fn(vd, vs1/rs1, vs2)
    "vmacc": lambda vd, op1, vs2: vd + op1 * vs2,
    "vnmsac": lambda vd, op1, vs2: vd - op1 * vs2,
    "vmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vnmsub": lambda vd, op1, vs2: vs2 - vd * op1,
}


def _register_int_macc() -> None:
    for base, fn in _V_MACC.items():
        for shape in ("vv", "vx"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _require_vconfig(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    vd = hart.read_velem(instr.rd, i, sew)
                    op1 = (hart.read_velem(instr.rs1, i, sew) if shape == "vv"
                           else _mask_to(hart.regs[instr.rs1], sew))
                    vs2 = hart.read_velem(instr.rs2, i, sew)
                    hart.write_velem(instr.rd, i, sew,
                                     _mask_to(fn(vd, op1, vs2), sew))
            EXEC[f"{base}.{shape}"] = vexec


_register_int_macc()


_V_INT_COMPARES = {
    "vmseq": lambda a, b, sew: a == b,
    "vmsne": lambda a, b, sew: a != b,
    "vmsltu": lambda a, b, sew: a < b,
    "vmslt": lambda a, b, sew: sign_extend(a, sew) < sign_extend(b, sew),
    "vmsleu": lambda a, b, sew: a <= b,
    "vmsle": lambda a, b, sew: sign_extend(a, sew) <= sign_extend(b, sew),
    "vmsgtu": lambda a, b, sew: a > b,
    "vmsgt": lambda a, b, sew: sign_extend(a, sew) > sign_extend(b, sew),
}


def _register_int_compares() -> None:
    for base, fn in _V_INT_COMPARES.items():
        for shape in ("vv", "vx", "vi"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _require_vconfig(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    a = hart.read_velem(instr.rs2, i, sew)
                    b = _v_operand2(hart, instr, i, sew, shape)
                    hart.write_vmask_bit(instr.rd, i,
                                         1 if fn(a, b, sew) else 0)
            EXEC[f"{base}.{shape}"] = vexec


_register_int_compares()


_V_REDUCTIONS = {
    "vredsum": lambda acc, v, sew: acc + v,
    "vredand": lambda acc, v, sew: acc & v,
    "vredor": lambda acc, v, sew: acc | v,
    "vredxor": lambda acc, v, sew: acc ^ v,
    "vredminu": lambda acc, v, sew: min(acc, v),
    "vredmaxu": lambda acc, v, sew: max(acc, v),
    "vredmin": lambda acc, v, sew:
        min(sign_extend(acc, sew), sign_extend(v, sew)),
    "vredmax": lambda acc, v, sew:
        max(sign_extend(acc, sew), sign_extend(v, sew)),
}


def _register_int_reductions() -> None:
    for base, fn in _V_REDUCTIONS.items():
        def vexec(hart, instr, fn=fn):
            sew = _require_vconfig(hart)
            acc = hart.read_velem(instr.rs1, 0, sew)
            for i in range(hart.vl):
                if not _active(hart, instr, i):
                    continue
                acc = _mask_to(fn(acc, hart.read_velem(instr.rs2, i, sew),
                                  sew), sew)
            hart.write_velem(instr.rd, 0, sew, acc)
        EXEC[f"{base}.vs"] = vexec


_register_int_reductions()


# ---------------------------------------------------------------------------
# Moves, merges, slides, gathers, vid/viota
# ---------------------------------------------------------------------------

@executor("vmv.v.v")
def _vmv_v_v(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    for i in range(hart.vl):
        hart.write_velem(instr.rd, i, sew,
                         hart.read_velem(instr.rs1, i, sew))


@executor("vmv.v.x")
def _vmv_v_x(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    value = _mask_to(hart.regs[instr.rs1], sew)
    for i in range(hart.vl):
        hart.write_velem(instr.rd, i, sew, value)


@executor("vmv.v.i")
def _vmv_v_i(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    value = _mask_to(instr.imm, sew)
    for i in range(hart.vl):
        hart.write_velem(instr.rd, i, sew, value)


@executor("vmv.x.s")
def _vmv_x_s(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    hart.write_reg(instr.rd,
                   sign_extend(hart.read_velem(instr.rs2, 0, sew), sew)
                   & MASK64)


@executor("vmv.s.x")
def _vmv_s_x(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    if hart.vl > 0:
        hart.write_velem(instr.rd, 0, sew, _mask_to(hart.regs[instr.rs1],
                                                    sew))


@executor("vid.v")
def _vid(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    for i in range(hart.vl):
        if _active(hart, instr, i):
            hart.write_velem(instr.rd, i, sew, _mask_to(i, sew))


@executor("viota.m")
def _viota(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    count = 0
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            continue
        hart.write_velem(instr.rd, i, sew, _mask_to(count, sew))
        if (hart.vregs[instr.rs2][i >> 3] >> (i & 7)) & 1:
            count += 1


def _merge_operand(hart: Hart, instr: Instruction, index: int, sew: int,
                   shape: str) -> int:
    if shape == "vvm":
        return hart.read_velem(instr.rs1, index, sew)
    if shape == "vxm":
        return _mask_to(hart.regs[instr.rs1], sew)
    return _mask_to(instr.imm, sew)


def _register_merges() -> None:
    for shape in ("vvm", "vxm", "vim"):
        def vexec(hart, instr, shape=shape):
            sew = _require_vconfig(hart)
            for i in range(hart.vl):
                if hart.read_vmask_bit(i):
                    value = _merge_operand(hart, instr, i, sew, shape)
                else:
                    value = hart.read_velem(instr.rs2, i, sew)
                hart.write_velem(instr.rd, i, sew, value)
        EXEC[f"vmerge.{shape}"] = vexec


_register_merges()


@executor("vslideup.vx", "vslideup.vi")
def _vslideup(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    offset = (hart.regs[instr.rs1] if instr.mnemonic.endswith(".vx")
              else instr.imm)
    for i in range(hart.vl - 1, -1, -1):
        if i < offset or not _active(hart, instr, i):
            continue
        hart.write_velem(instr.rd, i, sew,
                         hart.read_velem(instr.rs2, i - offset, sew))


@executor("vslidedown.vx", "vslidedown.vi")
def _vslidedown(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    offset = (hart.regs[instr.rs1] if instr.mnemonic.endswith(".vx")
              else instr.imm)
    vlmax = hart.vlmax()
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            continue
        source = i + offset
        value = (hart.read_velem(instr.rs2, source, sew)
                 if source < vlmax else 0)
        hart.write_velem(instr.rd, i, sew, value)


@executor("vrgather.vv", "vrgather.vx", "vrgather.vi")
def _vrgather(hart: Hart, instr: Instruction) -> None:
    sew = _require_vconfig(hart)
    vlmax = hart.vlmax()
    results = []
    for i in range(hart.vl):
        if not _active(hart, instr, i):
            results.append(None)
            continue
        if instr.mnemonic.endswith(".vv"):
            index = hart.read_velem(instr.rs1, i, sew)
        elif instr.mnemonic.endswith(".vx"):
            index = hart.regs[instr.rs1]
        else:
            index = instr.imm
        results.append(hart.read_velem(instr.rs2, index, sew)
                       if index < vlmax else 0)
    for i, value in enumerate(results):
        if value is not None:
            hart.write_velem(instr.rd, i, sew, value)


# ---------------------------------------------------------------------------
# Floating-point
# ---------------------------------------------------------------------------

def _read_vfp(hart: Hart, reg: int, index: int, sew: int) -> float:
    raw = hart.read_velem(reg, index, sew)
    return bits_to_f64(raw) if sew == 64 else bits_to_f32(raw)


def _write_vfp(hart: Hart, reg: int, index: int, sew: int,
               value: float) -> None:
    if sew == 64:
        hart.write_velem(reg, index, sew, f64_to_bits(value))
    else:
        hart.write_velem(reg, index, sew, f32_to_bits(round_f32(value)))


def _fp_sew(hart: Hart) -> int:
    sew = _require_vconfig(hart)
    if sew not in (32, 64):
        raise VectorConfigError(hart.pc, f"FP vector op at SEW={sew}")
    return sew


_V_FP_BINOPS = {
    "vfadd": lambda a, b: a + b,
    "vfsub": lambda a, b: a - b,
    "vfmul": lambda a, b: a * b,
    "vfdiv": fp_div,
    "vfmin": fp_min,
    "vfmax": fp_max,
    "vfsgnj": fp_sgnj,
    "vfsgnjn": lambda a, b: fp_sgnj(a, -b),
    "vfsgnjx": fp_sgnjx,
}


def _register_fp_binops() -> None:
    for base, fn in _V_FP_BINOPS.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    a = _read_vfp(hart, instr.rs2, i, sew)
                    b = (_read_vfp(hart, instr.rs1, i, sew) if shape == "vv"
                         else hart.fregs[instr.rs1])
                    _write_vfp(hart, instr.rd, i, sew, fn(a, b))
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_binops()


_V_FP_MACC = {
    # result = fn(vd, op1, vs2) matching RVV operand roles
    "vfmacc": lambda vd, op1, vs2: op1 * vs2 + vd,
    "vfnmacc": lambda vd, op1, vs2: -(op1 * vs2) - vd,
    "vfmsac": lambda vd, op1, vs2: op1 * vs2 - vd,
    "vfnmsac": lambda vd, op1, vs2: -(op1 * vs2) + vd,
    "vfmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vfnmadd": lambda vd, op1, vs2: -(vd * op1) - vs2,
    "vfmsub": lambda vd, op1, vs2: vd * op1 - vs2,
    "vfnmsub": lambda vd, op1, vs2: -(vd * op1) + vs2,
}


def _register_fp_macc() -> None:
    for base, fn in _V_FP_MACC.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    vd = _read_vfp(hart, instr.rd, i, sew)
                    op1 = (_read_vfp(hart, instr.rs1, i, sew)
                           if shape == "vv" else hart.fregs[instr.rs1])
                    vs2 = _read_vfp(hart, instr.rs2, i, sew)
                    _write_vfp(hart, instr.rd, i, sew, fn(vd, op1, vs2))
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_macc()


_V_FP_COMPARES = {
    "vmfeq": lambda a, b: a == b,
    "vmfne": lambda a, b: a != b,
    "vmflt": lambda a, b: a < b,
    "vmfle": lambda a, b: a <= b,
}


def _register_fp_compares() -> None:
    for base, fn in _V_FP_COMPARES.items():
        for shape in ("vv", "vf"):
            def vexec(hart, instr, fn=fn, shape=shape):
                sew = _fp_sew(hart)
                for i in range(hart.vl):
                    if not _active(hart, instr, i):
                        continue
                    a = _read_vfp(hart, instr.rs2, i, sew)
                    b = (_read_vfp(hart, instr.rs1, i, sew) if shape == "vv"
                         else hart.fregs[instr.rs1])
                    if math.isnan(a) or math.isnan(b):
                        result = 1 if base == "vmfne" else 0
                    else:
                        result = 1 if fn(a, b) else 0
                    hart.write_vmask_bit(instr.rd, i, result)
            EXEC[f"{base}.{shape}"] = vexec


_register_fp_compares()


_V_FP_REDUCTIONS = {
    "vfredosum": lambda acc, v: acc + v,
    "vfredusum": lambda acc, v: acc + v,
    "vfredmin": fp_min,
    "vfredmax": fp_max,
}


def _register_fp_reductions() -> None:
    for base, fn in _V_FP_REDUCTIONS.items():
        def vexec(hart, instr, fn=fn):
            sew = _fp_sew(hart)
            acc = _read_vfp(hart, instr.rs1, 0, sew)
            for i in range(hart.vl):
                if not _active(hart, instr, i):
                    continue
                acc = fn(acc, _read_vfp(hart, instr.rs2, i, sew))
            _write_vfp(hart, instr.rd, 0, sew, acc)
        EXEC[f"{base}.vs"] = vexec


_register_fp_reductions()


@executor("vfmv.v.f")
def _vfmv_v_f(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    for i in range(hart.vl):
        _write_vfp(hart, instr.rd, i, sew, hart.fregs[instr.rs1])


@executor("vfmv.f.s")
def _vfmv_f_s(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    hart.fregs[instr.rd] = _read_vfp(hart, instr.rs2, 0, sew)


@executor("vfmv.s.f")
def _vfmv_s_f(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    if hart.vl > 0:
        _write_vfp(hart, instr.rd, 0, sew, hart.fregs[instr.rs1])


@executor("vfmerge.vfm")
def _vfmerge(hart: Hart, instr: Instruction) -> None:
    sew = _fp_sew(hart)
    for i in range(hart.vl):
        if hart.read_vmask_bit(i):
            _write_vfp(hart, instr.rd, i, sew, hart.fregs[instr.rs1])
        else:
            hart.write_velem(instr.rd, i, sew,
                             hart.read_velem(instr.rs2, i, sew))
