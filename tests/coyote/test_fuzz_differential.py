"""Generated differential: random multi-hart programs through all loops.

``test_differential.py`` and ``test_translate.py`` compare the loops on
the fifteen hand-written kernels; this file lets Hypothesis write the
programs.  Each generated program mixes straight-line RV64IM ALU work,
scalar FP (``.s``/``.d`` arithmetic, FMA, compares, conversions, moves,
sign injection), integer and FP loads and stores into per-hart and
shared cache lines and loads from a read-only page
(``DataBlock(readonly=True)``; loads there may run ahead of their cycle
in translated micro-blocks, counted loops included), counted loops,
forward branches, one ``rdcycle``/``rdinstret`` read, RVV
(``vsetvli``/``vsetivli`` at
e8-e64 and m1/m2 with drawn AVLs, unit-stride / strided / indexed
loads and stores, element-wise integer and FP operations in every
shape, multiply-accumulates, compares into a mask, ``v0.t``-masked
forms, reductions, moves, merges, slides and gathers) and (in a
variant) a store into the hart's own upcoming code followed by
``fence.i``.  It runs at 1, 2 and 8 cores through

(a) the reference loop (``use_reference_loop``),
(b) the fast loop with ``translate=False``,
(c) the fast loop with ``translate=True``,

each in four modes — plain, interval sampler on, paused at a drawn
cycle then resumed, and the invariant checker live at a drawn interval
(lockstep cycles under full-budget run-ahead, and the retire-credit
invariant on every generated program) — and everything observable must
agree: the results document minus host fields, every hart's integer,
FP and vector register files (FP by bit pattern, any NaN equal to any
other; vector registers byte for byte outside the numeric domain
described below), ``vl`` and ``vtype``, and the data and patched-code
bytes the program touched.  A second test stores into the read-only page
at a drawn point of a generated program: every loop must stop there with
the same store access fault, at the same cycle, the page unwritten.

The examples are derandomized (same programs on every run).  Tier-1
runs the default profile below; CI's ``translate-smoke`` job runs the
``ci`` profile registered in ``tests/conftest.py`` (500 examples).
"""

import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.assembler import DataBlock, assemble
from repro.assembler.encoder import supported_mnemonics
from repro.coyote import Simulation, SimulationConfig
from repro.coyote.errors import SimulationError
from repro.resilience import ResilienceConfig
from repro.telemetry import TelemetryConfig

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")

# Work registers the generator may read and write freely.  a0 keeps the
# hart id for the whole body (read-only: it is what makes the harts
# diverge); s8 (shared base), s9 (per-hart base), s10 (read-only base,
# loaded from but never stored to), s2 (loop counter),
# t3/t4 (patch scratch), t4/t5 (vector stride and address scratch, set
# right before each use) and t6 (exit) belong to the scaffolding.
_WORK = ("t0", "t1", "t2", "a1", "a2", "a3", "a4", "a5")
_BASES = ("s8", "s9")
_LOAD_BASES = _BASES + ("s10",)

_ALU_RR = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt",
           "sltu", "mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem",
           "remu", "addw", "subw", "sllw", "srlw", "sraw", "mulw", "divw",
           "divuw", "remw", "remuw")
_ALU_IMM = ("addi", "xori", "ori", "andi", "slti", "sltiu", "addiw")
_SHIFT_IMM = ("slli", "srli", "srai")
_LOADS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
_STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")

# FP work registers, in two domains.  Python float arithmetic hands back
# one operand's NaN when both are NaNs — which one depends on the host's
# instruction selection, and CPython's adaptive specialisation changes it
# between the first executions of a code object and the later ones.  The
# model does not canonicalise NaNs, so ``nan1 + nan2`` may legitimately
# differ in sign and payload between two loops.  Results of two- and
# three-operand arithmetic therefore stay in the *numeric* registers,
# which are compared with all NaNs treated alike and can only reach
# integer state through instructions blind to a NaN's bits (compares,
# conversions, fclass).  The *exact* registers are only written by
# instructions that are functions of one FP value's bits (loads, moves,
# conversions, sign injection among themselves); they are compared bit
# for bit and are the only ones stored or moved to integer registers.
_FNUM = ("ft0", "ft1", "ft2")
_FEXACT = ("fa0", "fa1", "fa2")
_FP_LOADS = {"flw": 4, "fld": 8}
_FP_STORES = {"fsw": 4, "fsd": 8}
_FP_ARITH = ("fadd", "fsub", "fmul", "fdiv", "fmin", "fmax")
_FP_SGNJ = ("fsgnj", "fsgnjn", "fsgnjx")
_FP_FMA = ("fmadd", "fmsub", "fnmadd", "fnmsub")
_FP_CMP = ("feq", "flt", "fle")
_FP_INT = ("w", "wu", "l", "lu")

_SHARED_BYTES = 256      # four 64-byte lines every hart reads and writes
_PRIVATE_BYTES = 256     # per hart
_MAX_CORES = 8
# The read-only region: the first 256 bytes of a page of its own, so the
# page is wholly read-only (what the machine's page set requires).
_READONLY_BYTES = 256
_READONLY = DataBlock(
    "rodata", bytes((index * 37 + 11) & 0xFF for index in range(4096)),
    align=4096, readonly=True)

_reg = st.sampled_from(_WORK)
_src = st.sampled_from(_WORK + ("a0",))
_fnum = st.sampled_from(_FNUM)
_fexact = st.sampled_from(_FEXACT)
_fany = st.sampled_from(_FNUM + _FEXACT)
_fmt = st.sampled_from(("d", "s"))


def _offset(size):
    return st.integers(0, _PRIVATE_BYTES // size - 1).map(
        lambda slot: slot * size)


_KINDS = ("rr", "imm", "shift", "load", "store", "fp", "fp-memory")
# Scalar loads and compute only: a counted loop of these is a block that
# iterates in place, its loads guarded in a micro-block.
_READING = ("rr", "imm", "shift", "load", "fp", "fp-load")


@st.composite
def _simple_op(draw, vtype=None, kinds=_KINDS):
    """One straight-line instruction (no control flow) of one of
    ``kinds``; under a static ``vtype = (sew, lmul)`` also vector
    instructions, which may come with set-up lines of their own."""
    kind = draw(st.sampled_from(
        kinds + (("vector", "vector", "vector") if vtype else ())))
    if kind == "vector":
        return "\n    ".join(draw(_vector_op(*vtype)))
    if kind == "fp":
        return draw(_fp_op())
    if kind in ("fp-memory", "fp-load"):
        if kind == "fp-load" or draw(st.booleans()):
            mnemonic, register = draw(st.sampled_from(sorted(_FP_LOADS))), \
                draw(_fany)
            bases = _LOAD_BASES
        else:
            mnemonic, register = draw(st.sampled_from(sorted(_FP_STORES))), \
                draw(_fexact)
            bases = _BASES
        size = (_FP_LOADS | _FP_STORES)[mnemonic]
        return (f"{mnemonic} {register}, {draw(_offset(size))}"
                f"({draw(st.sampled_from(bases))})")
    if kind == "rr":
        return (f"{draw(st.sampled_from(_ALU_RR))} "
                f"{draw(_reg)}, {draw(_src)}, {draw(_src)}")
    if kind == "imm":
        return (f"{draw(st.sampled_from(_ALU_IMM))} {draw(_reg)}, "
                f"{draw(_reg)}, {draw(st.integers(-2048, 2047))}")
    if kind == "shift":
        return (f"{draw(st.sampled_from(_SHIFT_IMM))} {draw(_reg)}, "
                f"{draw(_reg)}, {draw(st.integers(0, 63))}")
    if kind == "load":
        mnemonic = draw(st.sampled_from(sorted(_LOADS)))
        return (f"{mnemonic} {draw(_reg)}, "
                f"{draw(_offset(_LOADS[mnemonic]))}"
                f"({draw(st.sampled_from(_LOAD_BASES))})")
    mnemonic = draw(st.sampled_from(sorted(_STORES)))
    return (f"{mnemonic} {draw(_reg)}, "
            f"{draw(_offset(_STORES[mnemonic]))}"
            f"({draw(st.sampled_from(_BASES))})")


@st.composite
def _fp_op(draw):
    """One register-to-register scalar FP instruction (domains above)."""
    shape = draw(st.sampled_from(("arith", "fma", "to-int", "from-int",
                                  "one-source", "sgnj", "move")))
    fmt = draw(_fmt)
    if shape == "arith":
        return (f"{draw(st.sampled_from(_FP_ARITH))}.{fmt} {draw(_fnum)}, "
                f"{draw(_fany)}, {draw(_fany)}")
    if shape == "fma":
        return (f"{draw(st.sampled_from(_FP_FMA))}.{fmt} {draw(_fnum)}, "
                f"{draw(_fany)}, {draw(_fany)}, {draw(_fany)}")
    if shape == "to-int":
        mnemonic = draw(st.sampled_from(
            _FP_CMP + tuple(f"fcvt.{kind}" for kind in _FP_INT)
            + ("fclass",)))
        second = f", {draw(_fany)}" if mnemonic in _FP_CMP else ""
        return f"{mnemonic}.{fmt} {draw(_reg)}, {draw(_fany)}{second}"
    if shape == "from-int":
        return (f"fcvt.{fmt}.{draw(st.sampled_from(_FP_INT))} "
                f"{draw(_fany)}, {draw(_src)}")
    # Functions of their sources' bits: exact from exact sources,
    # numeric otherwise.
    dest, source = draw(st.sampled_from(((_fexact, _fexact),
                                         (_fnum, _fany))))
    if shape == "one-source":
        mnemonic = draw(st.sampled_from(
            (f"fsqrt.{fmt}", "fcvt.s.d", "fcvt.d.s")))
        return f"{mnemonic} {draw(dest)}, {draw(source)}"
    if shape == "sgnj":
        return (f"{draw(st.sampled_from(_FP_SGNJ))}.{fmt} {draw(dest)}, "
                f"{draw(source)}, {draw(source)}")
    size = "d" if fmt == "d" else "w"
    if draw(st.booleans()):
        return f"fmv.x.{size} {draw(_reg)}, {draw(_fexact)}"
    return f"fmv.{size}.x {draw(_fany)}, {draw(_src)}"


# ---------------------------------------------------------------------------
# RVV
# ---------------------------------------------------------------------------
# The generator knows SEW and LMUL at every instruction: ``vsetvli`` /
# ``vsetivli`` are only drawn between segments, never inside a loop or
# branch body, so ``vtype`` is a static property of the program text
# (``vl`` is not: AVLs come from work registers too).  Vector registers
# follow the scalar FP discipline.  The *numeric* groups only receive FP
# arithmetic (element-wise, multiply-accumulate, reductions), are read
# only by FP arithmetic and by instructions blind to a NaN's bits (FP
# compares into a mask, ``vfmv.f.s`` into a numeric scalar), and are
# zeroed whenever ``vtype`` changes — so every lane holds zero or an FP
# result at the final SEW, and they are compared lane by lane with all
# NaNs alike.  Everything else (v0, v1 and the *exact* groups: loads,
# integer work, moves, merges, slides, gathers, masks) is compared byte
# for byte and is what stores and integer instructions read.  Group
# bases are even, so an m2 group never reaches into a neighbour.
_VLEN_BITS = 512         # SimulationConfig's default
_VEXACT = ("v2", "v4", "v6")
_VNUM = ("v8", "v10", "v12")
_NUMERIC_REGISTERS = range(8, 14)
_VMASKS = ("v0", "v1")

_V_INT = ("vadd", "vsub", "vrsub", "vand", "vor", "vxor", "vsll", "vsrl",
          "vsra", "vmin", "vminu", "vmax", "vmaxu", "vmul", "vmulh",
          "vmulhu", "vmulhsu", "vdiv", "vdivu", "vrem", "vremu")
_V_MACC = ("vmacc", "vnmsac", "vmadd", "vnmsub")
_V_COMPARE = ("vmseq", "vmsne", "vmsltu", "vmslt", "vmsleu", "vmsle",
              "vmsgtu", "vmsgt")
_V_REDUCE = ("vredsum", "vredand", "vredor", "vredxor", "vredminu",
             "vredmin", "vredmaxu", "vredmax")
_V_UNSIGNED_IMM = ("vsll", "vsrl", "vsra", "vslideup", "vslidedown",
                   "vrgather")
_VF_ARITH = ("vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax",
             "vfsgnj", "vfsgnjn", "vfsgnjx")
_VF_MACC = ("vfmacc", "vfnmacc", "vfmsac", "vfnmsac", "vfmadd", "vfnmadd",
            "vfmsub", "vfnmsub")
_VF_COMPARE = ("vmfeq", "vmfne", "vmflt", "vmfle")
_VF_REDUCE = ("vfredosum", "vfredusum", "vfredmin", "vfredmax")
_ASSEMBLES = supported_mnemonics()

_vexact = st.sampled_from(_VEXACT)
_vnum = st.sampled_from(_VNUM)
_vany = st.sampled_from(_VEXACT + _VNUM)
_vmask = st.sampled_from(("", "", ", v0.t"))


@st.composite
def _vset(draw):
    """Zero the numeric groups at full length, then a new ``vtype`` and
    ``vl``; returns the lines and the ``(sew, lmul)`` now in force."""
    sew = draw(st.sampled_from((8, 16, 32, 64)))
    lmul = draw(st.sampled_from((1, 2)))
    vlmax = _VLEN_BITS // sew * lmul
    vtype = (f"e{sew}, m{lmul}, {draw(st.sampled_from(('ta', 'tu')))}, "
             f"{draw(st.sampled_from(('ma', 'mu')))}")
    lines = ["vsetvli t5, zero, e8, m2, ta, ma"] \
        + [f"vmv.v.i {group}, 0" for group in _VNUM]
    form = draw(st.sampled_from(("avl", "avl", "register", "vlmax", "keep",
                                 "immediate")))
    if form == "avl":
        avl = draw(st.sampled_from((0, 1, 2, 3, vlmax - 1, vlmax,
                                    vlmax + 1, 2 * vlmax, 1000)))
        lines += [f"li t5, {avl}", f"vsetvli {draw(_reg)}, t5, {vtype}"]
    elif form == "register":
        lines += [f"vsetvli {draw(_reg)}, {draw(_src)}, {vtype}"]
    elif form == "vlmax":
        lines += [f"vsetvli {draw(_reg)}, zero, {vtype}"]
    elif form == "keep":    # vl carried over, clipped to the new VLMAX
        lines += [f"vsetvli zero, zero, {vtype}"]
    else:
        lines += [f"vsetivli {draw(_reg)}, {draw(st.integers(0, 31))}, "
                  f"{vtype}"]
    return lines, (sew, lmul)


def _shapes(base, shapes):
    return [shape for shape in shapes if f"{base}.{shape}" in _ASSEMBLES]


@st.composite
def _second_operand(draw, base, shape, vector=_vexact):
    if shape == "vv":
        return draw(vector)
    if shape == "vx":
        return draw(_src)
    if shape == "vf":
        return draw(_fany)
    low, high = (0, 31) if base in _V_UNSIGNED_IMM else (-16, 15)
    return str(draw(st.integers(low, high)))


@st.composite
def _vector_memory(draw, sew, lmul):
    """A unit-stride, strided or indexed load or store of the current
    SEW whose VLMAX footprint stays inside one 256-byte region; any byte
    offset, so accesses straddle lines."""
    size = sew // 8
    vlmax = _VLEN_BITS // sew * lmul
    store = draw(st.booleans())
    base = draw(st.sampled_from(_BASES if store else _LOAD_BASES))
    data = draw(_vexact)
    mask = draw(_vmask)
    mode = draw(st.sampled_from(("unit", "strided", "indexed")))
    if mode == "unit":
        offset = draw(st.integers(0, _PRIVATE_BYTES - vlmax * size))
        return [f"addi t5, {base}, {offset}",
                f"v{'s' if store else 'l'}e{sew}.v {data}, (t5){mask}"]
    if mode == "strided":
        stride = draw(st.sampled_from(
            [candidate for candidate in (0, size, 2 * size, -size,
                                         size + 1, 3)
             if (vlmax - 1) * abs(candidate) + size <= _PRIVATE_BYTES]))
        span = (vlmax - 1) * abs(stride) + size
        offset = draw(st.integers(0, _PRIVATE_BYTES - span))
        if stride < 0:
            offset += span - size
        return [f"addi t5, {base}, {offset}", f"li t4, {stride}",
                f"v{'s' if store else 'l'}se{sew}.v {data}, (t5), t4{mask}"]
    # Indexed: byte offsets (i & 15) * size, optionally reversed.
    index = draw(_vexact.filter(lambda register: register != data))
    lines = [f"vid.v {index}", f"vand.vi {index}, {index}, 15"]
    if draw(st.booleans()):
        lines.append(f"vrsub.vi {index}, {index}, 15")
    lines += [f"vsll.vi {index}, {index}, {size.bit_length() - 1}",
              f"addi t5, {base}, "
              f"{draw(st.integers(0, _PRIVATE_BYTES - 16 * size))}",
              f"v{'s' if store else 'l'}{draw(st.sampled_from('uo'))}xei"
              f"{sew}.v {data}, (t5), {index}{mask}"]
    return lines


@st.composite
def _vector_fp(draw, mask):
    """FP vector work (SEW 32 and 64 only): arithmetic lands in a numeric
    group; NaN-blind reads and bit-exact moves may leave it."""
    kind = draw(st.sampled_from(("arith", "macc", "compare", "reduce",
                                 "move")))
    if kind == "arith":
        base = draw(st.sampled_from(_VF_ARITH))
        shape = draw(st.sampled_from(("vv", "vf")))
        return (f"{base}.{shape} {draw(_vnum)}, {draw(_vany)}, "
                f"{draw(_second_operand(base, shape, _vany))}{mask}")
    if kind == "macc":
        base = draw(st.sampled_from(_VF_MACC))
        shape = draw(st.sampled_from(("vv", "vf")))
        return (f"{base}.{shape} {draw(_vnum)}, "
                f"{draw(_second_operand(base, shape, _vany))}, "
                f"{draw(_vany)}{mask}")
    if kind == "compare":
        base = draw(st.sampled_from(_VF_COMPARE))
        shape = draw(st.sampled_from(("vv", "vf")))
        return (f"{base}.{shape} {draw(st.sampled_from(_VMASKS))}, "
                f"{draw(_vany)}, "
                f"{draw(_second_operand(base, shape, _vany))}{mask}")
    if kind == "reduce":
        return (f"{draw(st.sampled_from(_VF_REDUCE))}.vs {draw(_vnum)}, "
                f"{draw(_vany)}, {draw(_vany)}{mask}")
    return draw(st.sampled_from((
        f"vfmv.f.s {draw(_fnum)}, {draw(_vany)}",
        f"vfmv.s.f {draw(_vexact)}, {draw(_fexact)}",
        f"vfmv.v.f {draw(_vexact)}, {draw(_fexact)}",
        f"vfmerge.vfm {draw(_vexact)}, {draw(_vexact)}, {draw(_fexact)}, "
        "v0")))


@st.composite
def _vector_op(draw, sew, lmul):
    """One vector instruction (with its address or index set-up, where
    it needs one) under the given static ``vtype``; a list of lines."""
    kinds = ["int", "macc", "compare", "reduce", "move", "permute",
             "memory", "memory"] + (["fp", "fp"] if sew >= 32 else [])
    kind = draw(st.sampled_from(kinds))
    mask = draw(_vmask)
    if kind == "memory":
        return draw(_vector_memory(sew, lmul))
    if kind == "fp":
        return [draw(_vector_fp(mask))]
    if kind == "int":
        base = draw(st.sampled_from(_V_INT))
        shape = draw(st.sampled_from(_shapes(base, ("vv", "vx", "vi"))))
        return [f"{base}.{shape} {draw(_vexact)}, {draw(_vexact)}, "
                f"{draw(_second_operand(base, shape))}{mask}"]
    if kind == "macc":
        base = draw(st.sampled_from(_V_MACC))
        shape = draw(st.sampled_from(("vv", "vx")))
        return [f"{base}.{shape} {draw(_vexact)}, "
                f"{draw(_second_operand(base, shape))}, "
                f"{draw(_vexact)}{mask}"]
    if kind == "compare":
        base = draw(st.sampled_from(_V_COMPARE))
        shape = draw(st.sampled_from(_shapes(base, ("vv", "vx", "vi"))))
        return [f"{base}.{shape} {draw(st.sampled_from(_VMASKS))}, "
                f"{draw(_vexact)}, "
                f"{draw(_second_operand(base, shape))}{mask}"]
    if kind == "reduce":
        return [f"{draw(st.sampled_from(_V_REDUCE))}.vs {draw(_vexact)}, "
                f"{draw(_vexact)}, {draw(_vexact)}{mask}"]
    if kind == "permute":
        base = draw(st.sampled_from(("vslideup", "vslidedown", "vrgather")))
        shape = draw(st.sampled_from(_shapes(base, ("vv", "vx", "vi"))
                                     if base == "vrgather"
                                     else ("vx", "vi")))
        if shape == "vx" and draw(st.booleans()):
            # Mostly in-range offsets; a raw work register is nearly
            # always beyond VLMAX.
            scalar = [f"andi t4, {draw(_src)}, 7"]
            operand = "t4"
        else:
            scalar = []
            operand = draw(_second_operand(base, shape))
        return scalar + [f"{base}.{shape} {draw(_vexact)}, "
                         f"{draw(_vexact)}, {operand}{mask}"]
    return [draw(st.sampled_from((
        f"vmv.v.v {draw(_vexact)}, {draw(_vexact)}",
        f"vmv.v.x {draw(_vexact)}, {draw(_src)}",
        f"vmv.v.i {draw(_vexact)}, {draw(st.integers(-16, 15))}",
        f"vmv.s.x {draw(_vexact)}, {draw(_src)}",
        f"vmv.x.s {draw(_reg)}, {draw(_vexact)}",
        f"vid.v {draw(_vexact)}{mask}",
        f"viota.m {draw(_vexact)}, {draw(st.sampled_from(_VMASKS))}{mask}",
        f"vmerge.vvm {draw(_vexact)}, {draw(_vexact)}, {draw(_vexact)}, v0",
        f"vmerge.vxm {draw(_vexact)}, {draw(_vexact)}, {draw(_src)}, v0",
        f"vmerge.vim {draw(_vexact)}, {draw(_vexact)}, "
        f"{draw(st.integers(-16, 15))}, v0")))]


_straight = st.lists(_simple_op(), min_size=1, max_size=6)


@st.composite
def _segment(draw, index, vtype=None):
    """A straight run, a counted loop (of anything, or of loads and
    compute only) or a forward branch over a run."""
    kind = draw(st.sampled_from(("straight", "loop", "read-loop", "branch")))
    if kind == "read-loop":
        body = draw(st.lists(_simple_op(kinds=_READING), min_size=1,
                             max_size=6))
    else:
        body = draw(st.lists(_simple_op(vtype), min_size=1, max_size=6)
                    if vtype else _straight)
    if kind == "straight":
        return body
    if kind in ("loop", "read-loop"):
        # Trip count 1..4 plus hart-id bits, so the harts drift apart.
        return ([f"andi s2, a0, {draw(st.sampled_from((0, 1, 3, 7)))}",
                 f"addi s2, s2, {draw(st.integers(1, 4))}",
                 f"loop_{index}:"]
                + body
                + ["addi s2, s2, -1", f"bnez s2, loop_{index}"])
    return ([f"{draw(st.sampled_from(_BRANCHES))} {draw(_src)}, "
             f"{draw(_src)}, skip_{index}"]
            + body + [f"skip_{index}:"])


@st.composite
def _readonly_store(draw):
    """A store into the read-only region (with its address set-up):
    integer, FP or atomic, at any offset its size allows."""
    mnemonic = draw(st.sampled_from(
        sorted(_STORES) + sorted(_FP_STORES) + ["amoadd.w", "amoswap.d"]))
    if mnemonic.startswith("amo"):
        size = 4 if mnemonic.endswith(".w") else 8
        offset = draw(st.integers(0, _READONLY_BYTES // size - 1)) * size
        return [f"addi t5, s10, {offset}",
                f"{mnemonic} {draw(_reg)}, {draw(_src)}, (t5)"]
    size = (_STORES | _FP_STORES)[mnemonic]
    source = draw(_fexact) if mnemonic in _FP_STORES else draw(_src)
    offset = draw(st.integers(0, _READONLY_BYTES - size))
    return [f"{mnemonic} {source}, {offset}(s10)"]


@st.composite
def programs(draw, readonly_store=False):
    """Assembly source of one generated multi-hart program; with
    ``readonly_store``, one that stores into the read-only region
    between two of its segments (so every hart reaches the store)."""
    count = draw(st.integers(2, 8))
    # ``vtype`` is legal from the first instruction on and changes only
    # between segments (the RVV section above says why).
    prologue, vtype = draw(_vset())
    segments = []
    for index in range(count):
        if draw(st.integers(0, 3)) == 0:
            lines, vtype = draw(_vset())
            segments.append(lines)
        segments.append(draw(_segment(index, vtype)))
    count = len(segments)
    # Exactly one timing-dependent read: any cycle or retire-count skew
    # between the loops lands in an architectural register.
    counter = draw(st.sampled_from(("rdcycle", "rdinstret")))
    segments.insert(draw(st.integers(0, count)),
                    [f"{counter} {draw(_reg)}"])
    if readonly_store:
        segments.insert(draw(st.integers(0, len(segments))),
                        draw(_readonly_store()))
    if draw(st.booleans()):
        # Self-modifying variant: overwrite the upcoming ``addi`` with
        # ``addi a1, a1, 7`` and make it visible with ``fence.i``.
        segments.insert(draw(st.integers(0, len(segments))), [
            "la t3, patch_site",
            "li t4, 0x00758593",
            "sw t4, 0(t3)",
            "fence.i",
            "patch_site:",
            "addi a1, a1, 1",
        ])
    segments.insert(0, [
        f"li {reg}, {draw(st.integers(-(1 << 31), (1 << 31) - 1))}"
        for reg in _WORK[:4]] + prologue)
    return _scaffold([line for segment in segments for line in segment])


def _scaffold(lines):
    """The body between the prologue (shared/private bases) and the
    ``tohost`` exit, over the data every hart reads and writes."""
    body = "\n".join(line if line.endswith(":") else f"    {line}"
                     for line in lines)
    return f""".text
_start:
    la   s8, shared
    la   s9, private
    la   s10, rodata
    slli t0, a0, 8
    add  s9, s9, t0
{body}
    li   a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
.align 6
shared:
    .dword 0x0123456789abcdef, -1, 0x8000000000000000, 7
    .zero {_SHARED_BYTES - 32}
private:
    .zero {_PRIVATE_BYTES * _MAX_CORES}
"""


def _assemble(source):
    return assemble(source, data=[_READONLY])


def _observe(simulation, results, program):
    """Everything a loop may not change: statistics, architectural
    registers, and the bytes the program can have written."""
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    memory = simulation.memory
    symbols = program.symbols
    touched = memory.load_bytes(
        symbols["shared"],
        _SHARED_BYTES + _PRIVATE_BYTES * _MAX_CORES)
    if "patch_site" in symbols:
        touched += memory.load_bytes(symbols["patch_site"], 4)
    harts = simulation.orchestrator.machine.harts
    registers = [list(hart.regs) for hart in harts]
    # Packed, so the sign of zero counts and NaNs compare at all; any
    # NaN stands for every NaN (see the register domains above).
    fp_registers = [
        struct.pack("<32d", *(math.nan if value != value else value
                              for value in hart.fregs))
        for hart in harts]
    return (data, registers, fp_registers, touched,
            [_vector_state(hart) for hart in harts])


def _vector_state(hart):
    """``vl``, ``vtype`` and the 32 vector registers: bytes, except the
    numeric groups, which are lanes of the final SEW with any NaN
    standing for every NaN (RVV section above).  Below SEW 32 no FP
    instruction ran since they were zeroed."""
    sew = hart.vtype.sew
    state = [hart.vl, hart.vtype.encode()]
    for number, register in enumerate(hart.vregs):
        raw = bytes(register)
        if number in _NUMERIC_REGISTERS and sew >= 32:
            lanes = struct.Struct(
                f"<{len(raw) * 8 // sew}{'d' if sew == 64 else 'f'}")
            raw = lanes.pack(*(math.nan if value != value else value
                               for value in lanes.unpack(raw)))
        state.append(raw)
    return state


def _run(program, cores, reference, translate, sample_interval=0,
         pause_at=None, invariant_interval=0):
    telemetry = TelemetryConfig(sample_interval=sample_interval)
    resilience = ResilienceConfig(invariant_interval=invariant_interval)
    config = SimulationConfig.for_cores(cores, translate=translate,
                                        telemetry=telemetry,
                                        resilience=resilience)
    simulation = Simulation(config, program)
    simulation.orchestrator.use_reference_loop = reference
    if pause_at is not None:
        simulation.run(pause_at=pause_at)
    results = simulation.run()
    assert results.exit_codes == {core: 0 for core in range(cores)}
    return _observe(simulation, results, program)


_LOOPS = (("reference", True, False),
          ("fast-interpreter", False, False),
          ("fast-translated", False, True))

# 40 examples keep tier-1 under 15 s; ``--hypothesis-profile=ci`` runs
# the profile's 500.
_CI = settings.get_profile("ci")
_EXAMPLES = _CI.max_examples if settings.default is _CI else 40
_TRAP_EXAMPLES = _CI.max_examples if settings.default is _CI else 20


@settings(max_examples=_EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=programs(), sample_interval=st.integers(1, 40),
       pause_fraction=st.floats(0.0, 1.2),
       invariant_interval=st.integers(1, 40))
def test_generated_programs_identical_across_loops(
        source, sample_interval, pause_fraction, invariant_interval):
    program = _assemble(source)
    for cores in (1, 2, 8):
        plain = {}
        for name, reference, translate in _LOOPS:
            plain[name] = _run(program, cores, reference, translate)
        oracle = plain["reference"]
        for name, observed in plain.items():
            assert observed == oracle, f"{name} @ {cores} cores"

        sampled = [_run(program, cores, reference, translate,
                        sample_interval=sample_interval)
                   for _name, reference, translate in _LOOPS]
        for (name, *_), observed in zip(_LOOPS, sampled):
            assert observed == sampled[0], \
                f"{name} @ {cores} cores, sampler every {sample_interval}"
        # Sampling observes without steering.
        assert sampled[0][0].pop("timeseries") is not None
        assert sampled[0] == oracle

        # Paused anywhere — before the first cycle, mid-block, inside an
        # all-stalled gap, past the end — and resumed: same run.
        pause_at = int(oracle[0]["cycles"] * pause_fraction)
        for name, reference, translate in _LOOPS:
            resumed = _run(program, cores, reference, translate,
                           pause_at=pause_at)
            assert resumed == oracle, \
                f"{name} @ {cores} cores, paused at {pause_at}"

        # Invariant checker live: every cycle ends in lockstep through
        # the tail hooks, and no check may fire on any loop.
        for name, reference, translate in _LOOPS:
            checked = _run(program, cores, reference, translate,
                           invariant_interval=invariant_interval)
            assert checked == oracle, \
                f"{name} @ {cores} cores, invariants every " \
                f"{invariant_interval}"


def _trap(program, cores, reference, translate):
    """Run ``program`` into its store access fault; the message (core,
    address, pc) and the cycle, with the read-only page unwritten."""
    config = SimulationConfig.for_cores(cores, translate=translate)
    simulation = Simulation(config, program)
    simulation.orchestrator.use_reference_loop = reference
    with pytest.raises(SimulationError, match="store access fault") \
            as caught:
        simulation.run()
    assert simulation.memory.load_bytes(
        program.symbols["rodata"], len(_READONLY.payload)) \
        == _READONLY.payload
    return str(caught.value), caught.value.current_cycle


@settings(max_examples=_TRAP_EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=programs(readonly_store=True))
def test_generated_stores_into_the_readonly_page_trap_alike(source):
    program = _assemble(source)
    for cores in (1, 2, 8):
        faults = [_trap(program, cores, reference, translate)
                  for _name, reference, translate in _LOOPS]
        assert faults == [faults[0]] * len(_LOOPS), f"@ {cores} cores"


def _lone_loop(iterations, body_length):
    """A counted loop whose body is one ``body_length``-instruction
    block with no memory access."""
    return _scaffold(
        [f"li t0, {iterations}", "lone_loop:"]
        + ["addi t1, t1, 1"] * (body_length - 2)
        + ["addi t0, t0, -1", "bnez t0, lone_loop"])


@pytest.mark.parametrize("iterations, body_length", [(80, 4), (6, 64)])
def test_lone_core_paused_at_every_cycle(iterations, body_length):
    """A lone core with nothing in flight runs block after block inside
    one visit; every pause point bounds that run at a different distance,
    including the multiples of the ring size, and full-length blocks
    stretch it to the furthest slot it may land in."""
    program = _assemble(_lone_loop(iterations, body_length))
    oracle = _run(program, 1, True, False)
    for pause_at in range(oracle[0]["cycles"] + 2):
        assert _run(program, 1, False, True, pause_at=pause_at) == oracle, \
            f"paused at {pause_at}"
