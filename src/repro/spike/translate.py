"""Trace-compiled fast path for the Spike-side ISS.

The per-instruction interpreter (``CoreModel.step`` -> ``Hart.step`` ->
executor dispatch) costs ~10 Python calls per retired instruction, which
BENCH_hotloop.json shows dominating every run.  Following the
binary-translation approach of Guo & Mullins (PAPERS.md), this module
caches *basic blocks* — straight-line decode runs ending at a branch,
jump, or any instruction the interpreter must handle — and specialises
each block into one generated-and-``compile()``d Python function with
register file accesses, L1 lookups, and sparse-memory accesses inlined.

Fidelity contract (bit-identical to the interpreter, proven by
``tests/coyote/test_translate.py`` and the differential suite):

* **Cycle exactness.**  A block function takes a ``limit`` (cycles it may
  consume) and never executes more than ``limit`` instructions.  The
  orchestrator's cycle loop dispatches a whole bounded block only when
  one core is live and no event is scheduled inside the bound; otherwise
  it dispatches *micro-blocks* (``translate_uop``: at most one memory
  access, which must be instruction 0) so every cross-core-visible
  access stays on its exact lockstep cycle while the register-private
  tail runs ahead, the core not coming due again until the tail's last
  logical cycle has passed.
* **L1 exactness.**  Data-side lookups replicate ``L1Cache.access_fast``
  (stats, true-LRU touch, allocate-on-miss, dirty-victim writeback)
  inline, with the access counters constant-folded into each exit.
  Instruction-side fetches are proven resident with a fused
  probe-and-LRU-touch per 64-byte segment as execution first reaches
  it, which leaves identical final cache state.  The pure counters —
  ``instret``, ``core.instructions``, L1I ``stats.reads`` — are *not*
  updated by block code: the dispatch loop accrues the returned
  instruction counts per core and flushes them before anything can
  observe the difference (interpreter steps, telemetry samples, loop
  exits), trading three read-modify-writes per dispatch for one per
  flush.
* **Fallback edges.**  The block exits back to the interpreter loop at
  L1 misses, HTIF halts, line-crossing accesses, stores into decoded
  code pages, and every untranslatable instruction (vector, AMO, CSR,
  system).  A zero-progress exit tells the caller to take one
  interpreter step instead.
* **Invalidation.**  Every translated instruction was decoded through
  ``Hart.decode_at``, which registers its page(s) in the shared
  :class:`~repro.spike.hart.CodeCacheRegistry`; stores into those pages
  invalidate overlapping translated blocks (and the translating store's
  own block stops right after the store).  ``fence.i`` and checkpoint
  serialisation drop everything via ``Hart.drop_code_caches``.

The protocol of a generated ``run(limit)`` function:

* ``None`` — executed exactly ``limit`` instructions cleanly.
* ``int n`` (0 < n < limit) — executed ``n`` instructions cleanly and
  stopped (block boundary / resident-probe failure); ``hart.pc`` is set.
* :class:`BlockExit` with ``executed > 0`` — the last instruction
  missed in the L1D (``misses``) and/or halted the hart (``halted``).
* :class:`BlockExit` with ``executed == 0`` — no progress; the caller
  must fall back to one interpreter ``CoreModel.step``.

In every case the caller owes the executed count to ``hart.instret``,
``core.instructions`` and the L1I ``stats.reads`` counter (batched
crediting, above); the block itself has already committed everything
else.
"""

from __future__ import annotations

import math
import struct

from repro.soc.memory import PAGE_SIZE
from repro.spike.hart import (
    _FCVT_FROM_INT,
    _FCVT_TO_INT,
    _FP_BIN_D,
    _FP_BIN_S,
    _OP32_FUNCS,
    _OP_FUNCS,
    Trap,
    _fcvt_to_int,
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
    round_f32,
)
from repro.spike.simulator import AccessKind, MissRequest
from repro.utils.bitops import MASK32, MASK64, sign_extend

MAX_BLOCK = 64

_M64 = "0xFFFFFFFFFFFFFFFF"


class BlockExit:
    """Mutable exit record reused by one core's block dispatches."""

    __slots__ = ("executed", "misses", "halted")

    def __init__(self):
        self.executed = 0
        self.misses = None
        self.halted = False

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<BlockExit executed={self.executed} "
                f"misses={self.misses} halted={self.halted}>")


def _data_miss(l1, tag, is_write, core_id, registers, pc):
    """Replicate ``L1Cache.access_fast``'s miss half; returns requests.

    The call site has already bumped ``stats.reads``/``writes`` and
    established ``tag not in ways``; this records the miss, evicts the
    LRU victim (emitting a WRITEBACK request when dirty) and installs
    the new line, exactly as the interpreter path does.
    """
    stats = l1.stats
    if is_write:
        stats.write_misses += 1
        kind = AccessKind.STORE
    else:
        stats.read_misses += 1
        kind = AccessKind.LOAD
    offset_bits = l1._offset_bits
    index = tag & l1._index_mask
    ways = l1._sets[index]
    misses = [MissRequest(core_id, tag << offset_bits, kind, registers,
                          pc=pc)]
    if len(ways) >= l1.associativity:
        victim_tag, victim_dirty = next(iter(ways.items()))
        del ways[victim_tag]
        if victim_dirty:
            stats.writebacks += 1
            misses.append(MissRequest(core_id, victim_tag << offset_bits,
                                      AccessKind.WRITEBACK, pc=pc))
    ways[tag] = is_write
    l1._mru[index] = tag
    return misses


def _fclass_value(value):
    if math.isnan(value):
        return 1 << 9
    if value == math.inf:
        return 1 << 7
    if value == -math.inf:
        return 1 << 0
    if value == 0.0:
        return 1 << 4 if math.copysign(1.0, value) > 0 else 1 << 3
    if value > 0:
        return 1 << 6
    return 1 << 1


# -- helper-op dictionaries (rare operations stay as one call) --------------

def _masked(fn):
    return lambda a, b: fn(a, b) & MASK64


def _masked_w(fn):
    return lambda a, b: sign_extend(fn(a, b), 32) & MASK64


def _rounded(fn):
    return lambda a, b: round_f32(fn(a, b))


OPS: dict = {}
for _name in ("mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"):
    OPS[_name] = _masked(_OP_FUNCS[_name])
for _name in ("divw", "divuw", "remw", "remuw"):
    OPS[_name] = _masked_w(_OP32_FUNCS[_name])
for _name in ("fdiv.d", "fmin.d", "fmax.d",
              "fsgnj.d", "fsgnjn.d", "fsgnjx.d"):
    OPS[_name] = _FP_BIN_D[_name]
for _name in ("fdiv.s", "fmin.s", "fmax.s",
              "fsgnj.s", "fsgnjn.s", "fsgnjx.s"):
    OPS[_name] = _rounded(_FP_BIN_S[_name])


def _fcvt_int_op(width, signed):
    if width == 32:
        return lambda v: sign_extend(_fcvt_to_int(v, 32, signed) & MASK32,
                                     32) & MASK64
    return lambda v: _fcvt_to_int(v, 64, signed) & MASK64


def _fcvt_float_op(width, signed, single):
    mask = (1 << width) - 1

    def convert(raw):
        raw &= mask
        value = float(sign_extend(raw, width) if signed else raw)
        return round_f32(value) if single else value
    return convert


UN: dict = {
    "fsqrt.d": lambda v: math.sqrt(v) if v >= 0 else math.nan,
    "fsqrt.s": lambda v: round_f32(math.sqrt(v) if v >= 0 else math.nan),
    "fcvt.s.d": round_f32,
    "fcvt.d.s": lambda v: v,
    "fmv.x.d": f64_to_bits,
    "fmv.d.x": bits_to_f64,
    "fmv.x.w": lambda v: sign_extend(f32_to_bits(v), 32) & MASK64,
    "fmv.w.x": bits_to_f32,
    "fclass.d": _fclass_value,
    "fclass.s": _fclass_value,
}
for _name, (_width, _signed) in _FCVT_TO_INT.items():
    UN[_name] = _fcvt_int_op(_width, _signed)
for _name, (_width, _signed, _single) in _FCVT_FROM_INT.items():
    UN[_name] = _fcvt_float_op(_width, _signed, _single)

# Unary-op register routing: f->f, f->x, x->f.
_UN_FF = frozenset({"fsqrt.d", "fsqrt.s", "fcvt.s.d", "fcvt.d.s"})
_UN_FX = frozenset({"fmv.x.d", "fmv.x.w", "fclass.d", "fclass.s"}
                   | set(_FCVT_TO_INT))
_UN_XF = frozenset({"fmv.d.x", "fmv.w.x"} | set(_FCVT_FROM_INT))

# -- mnemonic categories ----------------------------------------------------

_I_OPS = frozenset({"addi", "slti", "sltiu", "xori", "ori", "andi", "slli",
                    "srli", "srai", "addiw", "slliw", "srliw", "sraiw",
                    "lui", "auipc"})
_R_SIMPLE = frozenset({"add", "sub", "sll", "slt", "sltu", "xor", "srl",
                       "sra", "or", "and", "mul"})
_R_HELPER = frozenset({"mulh", "mulhsu", "mulhu", "div", "divu", "rem",
                       "remu", "divw", "divuw", "remw", "remuw"})
_W_SIMPLE = frozenset({"addw", "subw", "sllw", "srlw", "sraw", "mulw"})
_BRANCH_OPS = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">=",
               "blt": "<", "bge": ">="}
_SIGNED_BRANCHES = frozenset({"blt", "bge"})
_LOAD_OPS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
                       "flw", "fld"})
_LOAD_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4,
              "ld": 8, "flw": 4, "fld": 8}
_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4, "sd": 8, "fsw": 4, "fsd": 8}
_FP_ARITH = {"fadd": "+", "fsub": "-", "fmul": "*"}
_FMA_EXPR = {"fmadd": "f[{a}] * f[{b}] + f[{c}]",
             "fmsub": "f[{a}] * f[{b}] - f[{c}]",
             "fnmadd": "-(f[{a}] * f[{b}]) - f[{c}]",
             "fnmsub": "-(f[{a}] * f[{b}]) + f[{c}]"}
_FCMP = {"feq": "==", "flt": "<", "fle": "<="}

_CONTROL_OK = frozenset(_BRANCH_OPS) | {"jal", "jalr"}

_TRANSLATABLE = frozenset(
    set(_I_OPS) | _R_SIMPLE | _R_HELPER | _W_SIMPLE | set(_BRANCH_OPS)
    | {"jal", "jalr"} | _LOAD_OPS | set(_STORE_SIZE)
    | {f"{base}.{sz}" for base in _FP_ARITH for sz in ("s", "d")}
    | set(OPS) - set(_OP_FUNCS) - set(_OP32_FUNCS)
    | {f"{base}.{sz}" for base in _FMA_EXPR for sz in ("s", "d")}
    | {f"{base}.{sz}" for base in _FCMP for sz in ("s", "d")}
    | _UN_FF | _UN_FX | _UN_XF)

# Globals shared by every compiled factory (the generated code's module
# namespace).  Struct methods are pre-bound so a load is one call.
_G = {
    # Generated code runs with empty builtins by design; the one
    # exception class the fused cache probes catch is passed in.
    "__builtins__": {},
    "KeyError": KeyError,
    "OPS": OPS,
    "UN": UN,
    "DMISS": _data_miss,
    "R": round_f32,
    "U2": struct.Struct("<H").unpack_from,
    "U4": struct.Struct("<I").unpack_from,
    "U8": struct.Struct("<Q").unpack_from,
    "UD": struct.Struct("<d").unpack_from,
    "UF": struct.Struct("<f").unpack_from,
    "P2": struct.Struct("<H").pack_into,
    "P4": struct.Struct("<I").pack_into,
    "P8": struct.Struct("<Q").pack_into,
    "PD": struct.Struct("<d").pack_into,
    "PF": struct.Struct("<f").pack_into,
}


def _x(reg: int) -> str:
    return "0" if reg == 0 else f"x[{reg}]"


def _sx64(setup: list, reg: int, tmp: str) -> str:
    """Signed view of integer register ``reg`` (64-bit)."""
    if reg == 0:
        return "0"
    setup.append(f"{tmp} = x[{reg}]")
    return f"({tmp} - (({tmp} >> 63) << 64))"


_SIGN_OR = {1: ("0x80", "0xFFFFFFFFFFFFFF00"),
            2: ("0x8000", "0xFFFFFFFFFFFF0000"),
            4: ("0x80000000", "0xFFFFFFFF00000000")}


def _discover(hart, pc: int, uop: bool = False) -> list:
    """Collect the translatable straight-line run starting at ``pc``.

    Branches and jumps are included as block enders; anything the
    interpreter must execute (vector, AMO, CSR, system, unknown) stops
    the block *before* itself.  Decoding goes through ``decode_at`` so
    every instruction's page is registered for store invalidation.

    With ``uop=True`` the run additionally stops *before* any memory
    instruction past position 0: the resulting micro-block performs its
    one (optional) memory access on the cycle it is dispatched and the
    rest of the block touches only this core's registers.  The multicore
    lockstep loop exploits that shape to dispatch whole micro-blocks
    while keeping every cross-core-visible access on its exact cycle
    (docs/INTERNALS.md, "Translated fast path").
    """
    instrs = []
    cursor = pc
    while len(instrs) < MAX_BLOCK:
        try:
            instr = hart.decode_at(cursor)
        except Trap:
            break
        mnemonic = instr.mnemonic
        if mnemonic in _CONTROL_OK:
            instrs.append(instr)
            break
        if instr.is_control or mnemonic not in _TRANSLATABLE:
            break
        if uop and instrs and (mnemonic in _LOAD_OPS
                               or mnemonic in _STORE_SIZE):
            break
        instrs.append(instr)
        cursor += 4
    return instrs


def _build_source(pc0: int, instrs: list, profiled: bool, tohost: int,
                  i_off: int, i_mask: int, d_off: int, d_mask: int,
                  checked: bool = True) -> str:
    """Generate the factory source for one basic block.

    Every exit point inlines its own constant-folded commit (L1D access
    counters for the accesses actually made, the next pc) followed by a
    direct ``return`` — straight-line code with no shared epilogue or
    state variables, because at micro-block sizes the scaffolding would
    otherwise rival the body.

    ``checked=False`` drops the per-instruction cycle-budget guards and
    the ``None``-for-exactly-``limit`` return convention: the variant is
    only ever dispatched with ``limit`` at least the block length, so a
    clean exit after ``n`` instructions is a plain ``return n`` (which
    may equal ``limit``; dispatchers treat any int uniformly).

    Two commitments are deliberately NOT made by the generated code:

    * ``hart.instret`` / ``core.instructions`` / L1I ``stats.reads``
      are pure order-insensitive sums, so the dispatch loop credits
      them in batch from the returned instruction count (see the
      orchestrator's credit/flush bookkeeping).  One flush per stretch
      replaces three attribute read-modify-writes per dispatch.
    * The I-line LRU touch happens at the residency *probe* (a fused
      ``pop``/reinsert), not at exit.  Equivalent ordering: within one
      call nothing else touches that L1I set, and on the zero-progress
      paths the interpreter's own fetch of the same pc performs the
      identical touch.
    """
    count = len(instrs)
    line_bytes = 1 << d_off
    line_mask = line_bytes - 1

    # I-cache segments: consecutive pcs sharing one I-line.
    seg_tags: list[int] = []
    seg_first: list[int] = []
    for k in range(count):
        tag = (pc0 + 4 * k) >> i_off
        if not seg_tags or tag != seg_tags[-1]:
            seg_tags.append(tag)
            seg_first.append(k)

    # Prefix counts of data accesses: an exit retiring n instructions
    # has made exactly loads_before[n] reads and stores_before[n]
    # writes, so the L1D access counters are committed as constants.
    loads_before = [0] * (count + 1)
    stores_before = [0] * (count + 1)
    for k, ins in enumerate(instrs):
        loads_before[k + 1] = loads_before[k] + \
            (1 if ins.mnemonic in _LOAD_OPS else 0)
        stores_before[k + 1] = stores_before[k] + \
            (1 if ins.mnemonic in _STORE_SIZE else 0)

    pre: list[str] = []
    body: list[str] = []

    def emit(indent: int, text: str) -> None:
        body.append("    " * indent + text)

    def commit(indent: int, n: int) -> None:
        """Commit the L1D access counters for n retired instructions
        (instret/instructions/L1I reads are credited by the caller)."""
        if loads_before[n]:
            emit(indent, f"dst.reads += {loads_before[n]}")
        if stores_before[n]:
            emit(indent, f"dst.writes += {stores_before[n]}")

    def emit_clean(indent: int, n: int, npc) -> None:
        """Clean stop after instruction n-1; ``npc`` is an int or an
        expression string already holding the next pc."""
        commit(indent, n)
        emit(indent, f"hart.pc = {npc}")
        if checked:
            emit(indent, f"return None if limit == {n} else {n}")
        else:
            emit(indent, f"return {n}")

    def emit_zero(indent: int) -> None:
        # No progress: hart.pc still equals the dispatch pc, and E is
        # reused across dispatches, so clear its stale fields.
        emit(indent, "E.executed = 0")
        emit(indent, "E.misses = None")
        emit(indent, "E.halted = False")
        emit(indent, "return E")

    def emit_stall(indent: int, k: int, pc: int) -> None:
        """Clean stop *before* instruction k (probe failure or a
        line-crossing access); the budget guard for k already passed,
        so ``limit > k`` and the int return is unambiguous."""
        if k == 0:
            emit_zero(indent)
        else:
            commit(indent, k)
            emit(indent, f"hart.pc = {pc}")
            emit(indent, f"return {k}")

    def emit_event(indent: int, n: int, npc: int) -> None:
        """Miss and/or halt exit: E.misses/E.halted are already set."""
        commit(indent, n)
        emit(indent, f"hart.pc = {npc}")
        emit(indent, f"E.executed = {n}")
        emit(indent, "return E")

    seg_index = 0
    for k, ins in enumerate(instrs):
        pc = pc0 + 4 * k
        npc = pc + 4
        m = ins.mnemonic
        rd, rs1, rs2, rs3 = ins.rd, ins.rs1, ins.rs2, ins.rs3
        imm, sh = ins.imm, ins.shamt

        # Cycle-budget boundary: stop cleanly *before* instruction k.
        if checked and k:
            emit(2, f"if limit == {k}:")
            commit(3, k)
            emit(3, f"hart.pc = {pc}")
            emit(3, "return None")
        # New I-line: prove residency with a fused probe-and-LRU-touch
        # (``pop`` raises on a cold line).  Touching here rather than
        # at exit is order-equivalent — see the function docstring.
        # The MRU shadow short-circuits the overwhelmingly common case
        # of re-entering the same line (a loop body): when the tag is
        # already the set's newest key, the re-insert would not change
        # LRU order, so residency is proven by one list compare.
        if seg_index < len(seg_tags) and seg_first[seg_index] == k:
            tag = seg_tags[seg_index]
            si = tag & i_mask
            emit(2, f"if IM[{si}] != {tag}:")
            emit(3, "try:")
            emit(4, f"iw{seg_index}[{tag}] = iw{seg_index}.pop({tag})")
            emit(3, "except KeyError:")
            emit_stall(4, k, pc)
            emit(3, f"IM[{si}] = {tag}")
            seg_index += 1

        is_mem = m in _LOAD_OPS or m in _STORE_SIZE
        if is_mem:
            size = _LOAD_SIZE.get(m) or _STORE_SIZE[m]
            if rs1 == 0:
                emit(2, f"a = {imm & MASK64}")
            elif imm == 0:
                emit(2, f"a = x[{rs1}]")
            else:
                emit(2, f"a = (x[{rs1}] + {imm}) & {_M64}")
            if size > 1:
                # Line-crossing access: bail to the interpreter, which
                # classifies it per line.  Within-line implies
                # within-page (line <= page), so the fast path below
                # may index one backing page directly.
                emit(2, f"if (a & {line_mask}) > {line_bytes - size}:")
                emit_stall(3, k, pc)
        if profiled:
            emit(2, f"prof.retire({pc}, i{k})")
            pre.append(f"i{k} = instrs[{k}]")

        if m in _LOAD_OPS:
            # Loads read the backing page inside try/except: the page
            # is present for every address a program has ever written,
            # so the KeyError arm (read of untouched memory -> zero)
            # costs nothing on the path that matters.
            def emit_value(base: int) -> None:
                if m == "fld":
                    emit(base, "try:")
                    emit(base + 1,
                         f"f[{rd}] = UD(pages[a >> 12], a & 4095)[0]")
                    emit(base, "except KeyError:")
                    emit(base + 1, f"f[{rd}] = 0.0")
                elif m == "flw":
                    emit(base, "try:")
                    emit(base + 1,
                         f"f[{rd}] = UF(pages[a >> 12], a & 4095)[0]")
                    emit(base, "except KeyError:")
                    emit(base + 1, f"f[{rd}] = 0.0")
                elif rd:
                    if size == 1:
                        raw = "pages[a >> 12][a & 4095]"
                    else:
                        unpack = {2: "U2", 4: "U4", 8: "U8"}[size]
                        raw = f"{unpack}(pages[a >> 12], a & 4095)[0]"
                    if m in ("lb", "lh", "lw"):
                        threshold, high = _SIGN_OR[size]
                        emit(base, "try:")
                        emit(base + 1, f"v = {raw}")
                        emit(base, "except KeyError:")
                        emit(base + 1, "v = 0")
                        emit(base, f"x[{rd}] = v if v < {threshold} "
                             f"else v | {high}")
                    else:
                        emit(base, "try:")
                        emit(base + 1, f"x[{rd}] = {raw}")
                        emit(base, "except KeyError:")
                        emit(base + 1, f"x[{rd}] = 0")
            emit(2, f"t = a >> {d_off}")
            emit(2, f"dw = dsets[t & {d_mask}]")
            emit(2, "try:")
            emit(3, "dw[t] = dw.pop(t)")
            emit(2, "except KeyError:")
            emit(3, f"E.misses = DMISS(l1d, t, False, cid, r{k}, {pc})")
            emit(3, "E.halted = False")
            emit_value(3)
            emit_event(3, k + 1, npc)
            emit_value(2)
            pre.append(f"r{k} = instrs[{k}].dests")

        elif m in _STORE_SIZE:
            emit(2, f"t = a >> {d_off}")
            emit(2, f"dw = dsets[t & {d_mask}]")
            emit(2, "try:")
            emit(3, "dw.pop(t)")
            emit(3, "dw[t] = True")
            emit(3, "ms = None")
            emit(2, "except KeyError:")
            emit(3, f"ms = DMISS(l1d, t, True, cid, (), {pc})")
            emit(2, "g = a >> 12")
            emit(2, "try:")
            emit(3, "p = pages[g]")
            emit(2, "except KeyError:")
            emit(3, "p = alloc(g)")
            if m == "fsd":
                emit(2, f"PD(p, a & 4095, f[{rs2}])")
            elif m == "fsw":
                emit(2, f"PF(p, a & 4095, f[{rs2}])")
            elif m == "sb":
                emit(2, f"p[a & 4095] = {_x(rs2)} & 0xFF"
                     if rs2 else "p[a & 4095] = 0")
            else:
                pack = {2: "P2", 4: "P4", 8: "P8"}[size]
                val = _x(rs2)
                if size < 8 and rs2:
                    val = f"{val} & {(1 << (8 * size)) - 1:#x}"
                emit(2, f"{pack}(p, a & 4095, {val})")
            # Rare tail: self-modifying store, HTIF, or L1D miss.  The
            # common store falls through with a single compound test.
            emit(2, f"if ms is not None or g in CP or a == {tohost}:")
            emit(3, "if g in CP:")
            emit(4, f"inv(a, {size})")
            emit(3, f"if a == {tohost} and htif(hart):")
            emit(4, "core.halted = True")
            emit(4, "E.misses = ms")
            emit(4, "E.halted = True")
            emit_event(4, k + 1, npc)
            emit(3, "if ms is not None:")
            emit(4, "E.misses = ms")
            emit(4, "E.halted = False")
            emit_event(4, k + 1, npc)
            # A store into decoded code may have invalidated this very
            # block: stop cleanly and let the caller re-dispatch.
            emit_clean(3, k + 1, npc)

        elif m in _BRANCH_OPS:
            if m in _SIGNED_BRANCHES:
                setup: list[str] = []
                left = _sx64(setup, rs1, "w1")
                right = _sx64(setup, rs2, "w2")
                for text in setup:
                    emit(2, text)
                cond = f"{left} {_BRANCH_OPS[m]} {right}"
            else:
                cond = f"{_x(rs1)} {_BRANCH_OPS[m]} {_x(rs2)}"
            emit(2, f"if {cond}:")
            emit_clean(3, k + 1, (pc + imm) & MASK64)
            emit_clean(2, k + 1, npc)

        elif m == "jal":
            if rd:
                emit(2, f"x[{rd}] = {npc & MASK64}")
            emit_clean(2, k + 1, (pc + imm) & MASK64)

        elif m == "jalr":
            # Target reads rs1 *before* the link write (rd may == rs1).
            if imm:
                emit(2, f"npc = ({_x(rs1)} + {imm}) & 0xFFFFFFFFFFFFFFFE")
            else:
                emit(2, f"npc = {_x(rs1)} & 0xFFFFFFFFFFFFFFFE")
            if rd:
                emit(2, f"x[{rd}] = {npc & MASK64}")
            emit_clean(2, k + 1, "npc")

        elif m in _I_OPS:
            if rd:
                _emit_alu_imm(emit, m, rd, rs1, imm, sh, pc)
        elif m in _R_SIMPLE or m in _W_SIMPLE:
            if rd:
                _emit_alu_reg(emit, m, rd, rs1, rs2)
        elif m in _R_HELPER:
            if rd:
                pre.append(f"O{k} = OPS[{m!r}]")
                emit(2, f"x[{rd}] = O{k}({_x(rs1)}, {_x(rs2)})")
        elif m[:4] in _FP_ARITH and m[4:] in (".s", ".d"):
            expr = f"f[{rs1}] {_FP_ARITH[m[:4]]} f[{rs2}]"
            if m.endswith(".s"):
                expr = f"R({expr})"
            emit(2, f"f[{rd}] = {expr}")
        elif m in OPS and m[0] == "f":
            pre.append(f"O{k} = OPS[{m!r}]")
            emit(2, f"f[{rd}] = O{k}(f[{rs1}], f[{rs2}])")
        elif m[:-2] in _FMA_EXPR and m[-2:] in (".s", ".d"):
            expr = _FMA_EXPR[m[:-2]].format(a=rs1, b=rs2, c=rs3)
            if m.endswith(".s"):
                expr = f"R({expr})"
            emit(2, f"f[{rd}] = {expr}")
        elif m[:3] in _FCMP and m[3:] in (".s", ".d"):
            # Python comparisons on NaN are all False, matching the
            # executor's explicit isnan -> 0 handling.
            if rd:
                emit(2, f"x[{rd}] = 1 if f[{rs1}] {_FCMP[m[:3]]} "
                     f"f[{rs2}] else 0")
        elif m in _UN_FF:
            pre.append(f"U{k} = UN[{m!r}]")
            emit(2, f"f[{rd}] = U{k}(f[{rs1}])")
        elif m in _UN_FX:
            if rd:
                pre.append(f"U{k} = UN[{m!r}]")
                emit(2, f"x[{rd}] = U{k}(f[{rs1}])")
        elif m in _UN_XF:
            pre.append(f"U{k} = UN[{m!r}]")
            emit(2, f"f[{rd}] = U{k}({_x(rs1)})")
        else:  # pragma: no cover - _discover only admits known mnemonics
            raise AssertionError(f"untranslatable mnemonic {m}")

    last = instrs[-1]
    if last.mnemonic not in _CONTROL_OK:
        emit_clean(2, count, pc0 + 4 * count)

    for s in range(len(seg_tags)):
        pre.append(f"iw{s} = isets[{seg_tags[s] & i_mask}]")

    lines = [
        "def _factory(C):",
        "    (hart, x, f, core, E, prof, instrs, l1i, l1d, pages, alloc,",
        "     CP, inv, htif, cid) = C",
        "    isets = l1i._sets",
        "    IM = l1i._mru",
        "    dsets = l1d._sets",
        "    dst = l1d.stats",
    ]
    lines += ["    " + text for text in pre]
    # The unchecked twin never reads its budget; dropping the parameter
    # shaves the argument pass off every dispatch.
    lines.append("    def run(limit):" if checked else "    def run():")
    lines += body
    lines.append("    return run")
    return "\n".join(lines) + "\n"


def _emit_w_result(emit, rd: int, expr32: str) -> None:
    """Write the 32-bit value ``expr32`` sign-extended into x[rd]."""
    emit(2, f"w1 = {expr32}")
    emit(2, f"x[{rd}] = (w1 - ((w1 >> 31) << 32)) & {_M64}")


def _emit_alu_imm(emit, m, rd, rs1, imm, sh, pc) -> None:
    a = _x(rs1)
    if m == "lui":
        emit(2, f"x[{rd}] = {imm & MASK64}")
    elif m == "auipc":
        emit(2, f"x[{rd}] = {(pc + imm) & MASK64}")
    elif m == "addi":
        if rs1 == 0:
            emit(2, f"x[{rd}] = {imm & MASK64}")
        elif imm == 0:
            emit(2, f"x[{rd}] = x[{rs1}]")
        else:
            emit(2, f"x[{rd}] = (x[{rs1}] + {imm}) & {_M64}")
    elif m == "slti":
        setup: list[str] = []
        left = _sx64(setup, rs1, "w1")
        for text in setup:
            emit(2, text)
        emit(2, f"x[{rd}] = 1 if {left} < {imm} else 0")
    elif m == "sltiu":
        emit(2, f"x[{rd}] = 1 if {a} < {imm & MASK64} else 0")
    elif m == "xori":
        emit(2, f"x[{rd}] = {a} ^ {imm & MASK64}")
    elif m == "ori":
        emit(2, f"x[{rd}] = {a} | {imm & MASK64}")
    elif m == "andi":
        emit(2, f"x[{rd}] = {a} & {imm & MASK64}")
    elif m == "slli":
        emit(2, f"x[{rd}] = ({a} << {sh}) & {_M64}")
    elif m == "srli":
        emit(2, f"x[{rd}] = {a} >> {sh}")
    elif m == "srai":
        setup = []
        left = _sx64(setup, rs1, "w1")
        for text in setup:
            emit(2, text)
        emit(2, f"x[{rd}] = ({left} >> {sh}) & {_M64}")
    elif m == "addiw":
        _emit_w_result(emit, rd, f"({a} + {imm}) & 0xFFFFFFFF")
    elif m == "slliw":
        _emit_w_result(emit, rd, f"({a} << {sh}) & 0xFFFFFFFF")
    elif m == "srliw":
        _emit_w_result(emit, rd, f"({a} & 0xFFFFFFFF) >> {sh}")
    elif m == "sraiw":
        emit(2, f"w1 = {a} & 0xFFFFFFFF")
        emit(2, f"x[{rd}] = ((w1 - ((w1 >> 31) << 32)) >> {sh}) & {_M64}")
    else:  # pragma: no cover
        raise AssertionError(m)


def _emit_alu_reg(emit, m, rd, rs1, rs2) -> None:
    a, b = _x(rs1), _x(rs2)
    if m == "add":
        emit(2, f"x[{rd}] = ({a} + {b}) & {_M64}")
    elif m == "sub":
        emit(2, f"x[{rd}] = ({a} - {b}) & {_M64}")
    elif m == "mul":
        emit(2, f"x[{rd}] = ({a} * {b}) & {_M64}")
    elif m == "xor":
        emit(2, f"x[{rd}] = {a} ^ {b}")
    elif m == "or":
        emit(2, f"x[{rd}] = {a} | {b}")
    elif m == "and":
        emit(2, f"x[{rd}] = {a} & {b}")
    elif m == "sll":
        emit(2, f"x[{rd}] = ({a} << ({b} & 63)) & {_M64}")
    elif m == "srl":
        emit(2, f"x[{rd}] = {a} >> ({b} & 63)")
    elif m == "sra":
        setup: list[str] = []
        left = _sx64(setup, rs1, "w1")
        for text in setup:
            emit(2, text)
        emit(2, f"x[{rd}] = ({left} >> ({b} & 63)) & {_M64}")
    elif m == "sltu":
        emit(2, f"x[{rd}] = 1 if {a} < {b} else 0")
    elif m == "slt":
        setup = []
        left = _sx64(setup, rs1, "w1")
        right = _sx64(setup, rs2, "w2")
        for text in setup:
            emit(2, text)
        emit(2, f"x[{rd}] = 1 if {left} < {right} else 0")
    elif m == "addw":
        _emit_w_result(emit, rd, f"({a} + {b}) & 0xFFFFFFFF")
    elif m == "subw":
        _emit_w_result(emit, rd, f"({a} - {b}) & 0xFFFFFFFF")
    elif m == "mulw":
        _emit_w_result(emit, rd, f"({a} * {b}) & 0xFFFFFFFF")
    elif m == "sllw":
        _emit_w_result(emit, rd, f"({a} << ({b} & 31)) & 0xFFFFFFFF")
    elif m == "srlw":
        _emit_w_result(emit, rd, f"({a} & 0xFFFFFFFF) >> ({b} & 31)")
    elif m == "sraw":
        emit(2, f"w1 = {a} & 0xFFFFFFFF")
        emit(2, f"x[{rd}] = ((w1 - ((w1 >> 31) << 32)) >> "
             f"({b} & 31)) & {_M64}")
    else:  # pragma: no cover
        raise AssertionError(m)


# Compiled factories are pure functions of (code words, geometry,
# profiled, tohost), so they are shared machine-wide: eight cores
# translating the same loop compile it once, and repeated benchmark
# reps in one process pay zero recompilation.
_FACTORY_CACHE: dict = {}
_FACTORY_CACHE_MAX = 4096


def _zero_progress_stub(exit_obj):
    """A run-fn for untranslatable pcs: reports zero progress so the
    dispatcher falls through to its interpreter path."""
    def run():
        exit_obj.executed = 0
        exit_obj.misses = None
        exit_obj.halted = False
        return exit_obj
    return run


def _factory_for(pc0, instrs, profiled, tohost, i_off, i_mask,
                 d_off, d_mask, checked=True):
    key = (pc0, tuple(ins.word for ins in instrs), profiled, tohost,
           i_off, i_mask, d_off, d_mask, checked)
    factory = _FACTORY_CACHE.get(key)
    if factory is None:
        source = _build_source(pc0, instrs, profiled, tohost,
                               i_off, i_mask, d_off, d_mask, checked)
        code = compile(source, f"<block@{pc0:#x}>", "exec")
        namespace: dict = {}
        exec(code, _G, namespace)
        factory = namespace["_factory"]
        if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FACTORY_CACHE.clear()
        _FACTORY_CACHE[key] = factory
    return factory


class BlockTranslator:
    """Per-core translated-block cache with store invalidation.

    ``cache`` maps a block-start pc to its compiled ``run(limit)``
    closure, or ``False`` for pcs proven untranslatable (the dispatch
    loops hoist this dict and only call :meth:`translate` on a true
    miss).  ``ucache`` holds the memory-leading micro-block variants
    (:meth:`translate_uop`) the cycle loop dispatches whenever another
    core or an event could interleave; ``ufast`` holds the unchecked
    twins of the same micro-blocks — no budget guards, valid only for
    full-budget (``limit >= block length``) dispatches.  All dict
    objects are mutated in place, never replaced, so hoisted references
    stay valid across invalidations.
    """

    def __init__(self, core, machine):
        self.core = core
        self.machine = machine
        self.cache: dict = {}
        self.ucache: dict = {}
        self.ufast: dict = {}
        self._bounds: dict = {}
        self._ubounds: dict = {}
        self._exit = BlockExit()
        hart = core.hart
        hart._code_caches.append(self)
        hart.code_registry.register_cache(self)
        # Within-line implies within-page is load/store codegen's one
        # geometric assumption; refuse to translate if it cannot hold.
        self._enabled = core.l1d.line_bytes <= PAGE_SIZE

    def translate(self, pc: int):
        """Translate the block at ``pc``; returns a run-fn or ``False``."""
        instrs = _discover(self.core.hart, pc) if self._enabled else []
        return self._install(pc, instrs, self.cache, self._bounds)

    def translate_uop(self, pc: int):
        """Translate the micro-block at ``pc`` (memory access only at
        position 0); installs the checked variant in ``ucache`` and its
        unchecked twin in ``ufast`` (sharing ``_ubounds``), returning
        the checked run-fn or ``False``."""
        instrs = _discover(self.core.hart, pc, uop=True) \
            if self._enabled else []
        fn = self._install(pc, instrs, self.ucache, self._ubounds)
        if fn is False:
            # Untranslatable pcs get a zero-progress stub instead of a
            # ``False`` sentinel: the dispatch loop then needs no
            # translatability test at all — the stub routes it to the
            # interpreter through the ordinary zero-progress exit.
            self.ufast[pc] = _zero_progress_stub(self._exit)
        else:
            self._install(pc, instrs, self.ufast, self._ubounds,
                          checked=False)
        return fn

    def _install(self, pc: int, instrs: list, cache: dict, bounds: dict,
                 checked: bool = True):
        if not instrs:
            cache[pc] = False
            bounds[pc] = pc + 3
            return False
        core = self.core
        hart = core.hart
        l1i, l1d = core.l1i, core.l1d
        machine = self.machine
        tohost = machine.tohost_address
        if tohost is None:
            tohost = -1
        profiled = core.profile is not None
        factory = _factory_for(pc, instrs, profiled, tohost,
                               l1i._offset_bits, l1i._index_mask,
                               l1d._offset_bits, l1d._index_mask,
                               checked)
        memory = machine.memory
        context = (hart, hart.regs, hart.fregs, core, self._exit,
                   core.profile, instrs, l1i, l1d, memory._pages,
                   memory._page, hart._code_pages,
                   hart.code_registry.note_store, machine.htif_store,
                   core.core_id)
        fn = factory(context)
        cache[pc] = fn
        bounds[pc] = pc + 4 * len(instrs) - 1
        return fn

    # -- invalidation (CodeCacheRegistry protocol) --------------------------

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every cached block overlapping byte range [lo, hi]."""
        ufast = self.ufast
        for cache, bounds in ((self.cache, self._bounds),
                              (self.ucache, self._ubounds)):
            if not bounds:
                continue
            dead = [pc for pc, end in bounds.items()
                    if pc <= hi and end >= lo]
            for pc in dead:
                del bounds[pc]
                cache.pop(pc, None)
                if cache is not self.cache:
                    ufast.pop(pc, None)

    def drop_all(self) -> None:
        self.cache.clear()
        self.ucache.clear()
        self.ufast.clear()
        self._bounds.clear()
        self._ubounds.clear()

    # -- pickling: compiled closures must never leak into checkpoints -------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["cache"] = {}
        state["ucache"] = {}
        state["ufast"] = {}
        state["_bounds"] = {}
        state["_ubounds"] = {}
        return state
