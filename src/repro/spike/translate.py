"""Trace-compiled fast path for the Spike-side ISS.

The per-instruction interpreter (``CoreModel.step`` -> ``Hart.step`` ->
executor dispatch) costs ~10 Python calls per retired instruction, which
dominated every run before this module existed.  Following the
binary-translation approach of Guo & Mullins (PAPERS.md), this module
caches *basic blocks* — straight-line decode runs ending at a branch,
jump, or any instruction the interpreter must handle — and specialises
each block into one generated-and-``compile()``d Python function with
register file accesses, L1 lookups, and sparse-memory accesses inlined.
What an instruction *computes* is not spelled here: the emitted
expressions, access sizes and branch conditions are the rows of
:mod:`repro.spike.semantics`, the table the interpreter's executors are
derived from too; this module adds the timing model around them.

Fidelity contract (bit-identical to the interpreter, proven by
``tests/coyote/test_translate.py`` and the differential suite):

* **Cycle exactness.**  A block function takes no argument and runs to
  its end, one instruction a cycle; the dispatcher picks a block no
  longer than the window it has (:data:`SHAPES`).  The orchestrator's
  cycle loop dispatches a *whole* block only when one core is live and
  no event is scheduled within ``MAX_BLOCK`` cycles; otherwise it
  dispatches *micro-blocks*, whose one visible memory access is
  instruction 0, so every cross-core-visible access stays on its exact
  lockstep cycle while the tail runs ahead, the core not coming due
  again until the tail's last logical cycle has passed; a core that may
  retire only one instruction this cycle gets the *single*-instruction
  block.  A micro-block's tail may load, *guarded*: only an L1D hit on
  a read-only page (the machine's ``readonly_pages``) runs ahead of its
  cycle, else the block stops before the load.  A block branching back
  to its first pc runs further trips in place (:func:`_trips`).
* **L1 exactness.**  Data-side lookups inline the hit half of
  ``L1Cache.access_fast`` (true-LRU touch, dirty bit; the access
  counters constant-folded into each exit) and fall into the cache's
  own ``miss`` (miss statistics, victim, install), whose result
  ``simulator.miss_requests`` turns into the requests to submit.
  Instruction-side fetches are proven resident with a fused
  probe-and-LRU-touch per 64-byte segment as execution first reaches
  it, which leaves identical final cache state.  Every exit commits what
  the block retired — ``hart.instret``, the L1I ``stats.reads`` of its
  fetches and the L1D access counters — so after a dispatch returns,
  nothing is owed.
* **Fallback edges.**  The block exits back to the interpreter loop at
  L1 misses, HTIF halts, line-crossing scalar accesses, stores into
  decoded code pages, guarded loads that may not run ahead, stores into
  read-only pages (the interpreter raises the store access fault), and
  every untranslatable instruction (AMO, CSR, system, ``vsetvl``,
  ``viota.m``, masked or scattering vector memory instructions).  A
  zero-progress exit tells the caller to take one interpreter step
  instead.
* **Vector instructions.**  A row-backed vector instruction is the
  statements :func:`repro.spike.vector.row_source` makes of its row —
  the same ones its interpreter executor is compiled from — with the
  instruction's fields as literals.  They work through the hart's
  ``GroupPlan``, fetched once per block (again after a ``vsetvli``
  inside it), so blocks are not keyed by ``vtype``.  A vector memory
  instruction counts as a visible access for the micro-block rule;
  it probes the L1D once per distinct line in first-touch order (what
  ``CoreModel.step`` makes of the per-element access records: for a
  unit-stride access the lines of its byte range, ascending, probed
  inline; :func:`_probe_lines` for a strided or indexed load), reports
  every miss through ``E.misses``, and stalls to the interpreter under
  ``vill``, when a unit-stride group crosses a page, and when a store
  range touches a decoded code page, a read-only page or ``tohost``.
* **Invalidation.**  Every translated instruction was decoded through
  ``Hart.decode_at``, which registers its page(s) in the shared
  :class:`~repro.spike.hart.CodeCacheRegistry`; stores into those pages
  drop the overlapping decoded words and block plans of the machine and
  the overlapping translated blocks of every core (and the translating
  store's own block stops right after the store).  ``fence.i`` and
  checkpoint serialisation drop everything via ``Hart.drop_code_caches``.

A block is planned once a machine (``CodeCacheRegistry.plans``).
Compiled factories are cached per process and shared by every core and
run in it; :func:`export_factories` / :func:`import_factories` carry
them between processes as marshalled code, which is how a campaign's
forked point workers feed the process that forks the next one.  An
observed run (guest profiling on) compiles nothing of its own: it wraps
each function it installs (``BlockTranslator._observed``).

A generated ``run()`` function has two outcomes:

* ``int n`` (n > 0) — executed ``n`` instructions cleanly and stopped
  (block end, or a stall before instruction ``n``); ``hart.pc`` is set.
* :class:`BlockExit` — the last of its ``executed`` instructions missed
  in the L1D (``misses``) and/or halted the hart (``halted``); with
  ``executed == 0`` there was no progress and the caller must fall back
  to one interpreter ``CoreModel.step``.

In both cases the block has already committed everything its executed
instructions did, their retire count included.
"""

from __future__ import annotations

import marshal
import struct
import time
import types
from dataclasses import dataclass, field
from itertools import accumulate, product

from repro.soc.memory import PAGE_SIZE
from repro.spike.hart import Trap
from repro.spike.semantics import (
    BRANCHES,
    COMPUTE,
    FN,
    HELPERS,
    LOADS,
    NAME,
    STORES,
    VECTOR,
    VLOADS,
    VSTORES,
    X_XX,
)
from repro.spike.simulator import AccessKind, miss_requests
from repro.spike.vector import (
    decode_vtype,
    element_addresses,
    group_plan,
    read_group,
    row_source,
    transfer,
    write_group,
)
from repro.utils.bitops import MASK64

MAX_BLOCK = 64

# The three shapes of a block: the same compiled form, told apart only
# by how discovery is bounded — (length cap, micro-block rule).
SHAPES = {"whole": (MAX_BLOCK, False), "micro": (MAX_BLOCK, True),
          "single": (1, False)}


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


def _probe_lines(l1, addresses, size, is_write, core_id, registers, pc):
    """The L1D lookups of one vector memory instruction: every line its
    accesses touch, once, in first-touch order — what ``CoreModel.step``
    makes of the per-element access records, hits probed inline as a
    block probes them.  Returns the miss and writeback requests, or
    ``None``."""
    offset_bits = l1._offset_bits
    sets, index_mask = l1._sets, l1._index_mask
    kind = AccessKind.STORE if is_write else AccessKind.LOAD
    tags = dict.fromkeys([tag for address in addresses for tag in range(
        address >> offset_bits, ((address + size - 1) >> offset_bits) + 1)])
    misses = None
    for tag in tags:
        ways = sets[tag & index_mask]
        if tag in ways:
            ways[tag] = ways.pop(tag) or is_write
            continue
        requests = miss_requests(core_id, kind, l1.miss(tag, is_write),
                                 registers, pc)
        misses = requests if misses is None else misses + requests
    if is_write:
        l1.stats.writes += len(tags)
    else:
        l1.stats.reads += len(tags)
    return misses


# What a block may contain: every row of the semantics table, plus the
# jumps and the two vtype-immediate configuration instructions this
# module emits by hand.  Of the vector stores only the unit-stride ones:
# a scatter would need the code-page and ``tohost`` checks per element,
# and no kernel scatters.
_LOAD_OPS = frozenset(LOADS)
_CONTROL_OK = frozenset(BRANCHES) | {"jal", "jalr"}
_CONFIG_OK = frozenset({"vsetvli", "vsetivli"})
_VECTOR_MEMORY = frozenset(VLOADS) | frozenset(
    mnemonic for mnemonic, (_eew, kind) in VSTORES.items() if kind == "unit")
_TRANSLATABLE = frozenset(COMPUTE) | _LOAD_OPS | frozenset(STORES) \
    | _CONTROL_OK | frozenset(VECTOR) | _VECTOR_MEMORY | _CONFIG_OK

# Globals shared by every compiled factory (the generated code's module
# namespace).  Struct methods are pre-bound so a load is one call.
_G = {
    # Everything a row expression may call.
    **HELPERS,
    # Generated code runs with empty builtins by design; the exception
    # classes its fused probes and packs catch are passed in.
    "__builtins__": {},
    "KeyError": KeyError,
    "OverflowError": OverflowError,
    "zip": zip,
    "range": range,
    "bytes": bytes,
    # An L1D miss: ``MISS(cid, LOAD, dmiss(t, False), regs, pc)``.
    "MISS": miss_requests,
    "LOAD": AccessKind.LOAD,
    "STORE": AccessKind.STORE,
    # Vector: the plan fetch, group bytes, element-wise loads, probes.
    "PLAN": group_plan,
    "VTYPE": decode_vtype,
    "RG": read_group,
    "WG": write_group,
    "VADDR": element_addresses,
    "VMOVE": transfer,
    "VLINES": _probe_lines,
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


def _substitute(emit, expr: str, operands: tuple, ins, pc: int):
    """Paste a semantics-table expression into block source.

    Each operand name becomes the register read it stands for
    (``x[n]``/``f[n]``) or, for immediates, the pc and reads of ``x0``,
    a literal.  A register the expression names more than once is read
    once, into a temp.  Returns the text, and the operand values when
    every one of them was a translate-time constant (else ``None``).
    """
    names = NAME.findall(expr)
    text = {}
    constants = []
    for index, (name, file, field) in enumerate(operands, 1):
        value = pc if field == "pc" else getattr(ins, field)
        if file is None or (file == "x" and value == 0):
            text[name] = str(value)
            constants.append(value)
        elif names.count(name) > 1:
            emit(2, f"w{index} = {file}[{value}]")
            text[name] = f"w{index}"
        else:
            text[name] = f"{file}[{value}]"
    source = NAME.sub(lambda match: text.get(match[0], match[0]), expr)
    return source, constants if len(constants) == len(operands) else None


def _discover(hart, pc: int, cap: int = MAX_BLOCK,
              uop: bool = False) -> tuple[list, tuple | None]:
    """Collect the translatable straight-line run starting at ``pc``.

    Branches and jumps are included as block enders; anything the
    interpreter must execute (AMO, CSR, system, ``vsetvl``, a masked
    vector memory access, unknown) stops the block *before* itself.
    Decoding goes through ``decode_at`` so every instruction's page is
    registered for store invalidation.  Returns the run and its ender:
    ``(pc, mnemonic)`` of the instruction that ended it, or ``None``
    when that was only the length cap ``cap`` or the micro-block rule.

    With ``uop=True`` the run additionally stops *before* any store or
    vector memory instruction past position 0: the resulting
    micro-block performs its one visible memory instruction on the
    cycle it is dispatched, and the rest of the block touches only this
    core's registers (and, through guarded loads, nothing another core
    can change or see).  The multicore lockstep loop exploits that
    shape to dispatch whole micro-blocks while keeping every
    cross-core-visible access on its exact cycle (docs/INTERNALS.md,
    "Translated fast path").
    """
    instrs = []
    cursor = pc
    ender = None
    while len(instrs) < cap:
        try:
            instr = hart.decode_at(cursor)
        except Trap:
            ender = "<illegal>"
            break
        ender = mnemonic = instr.mnemonic
        if mnemonic in _CONTROL_OK:
            instrs.append(instr)
            break
        if instr.is_control or mnemonic not in _TRANSLATABLE \
                or (instr.is_vector_mem and not instr.vm):
            break
        ender = None
        if uop and instrs and (mnemonic in STORES or instr.is_vector_mem):
            break
        instrs.append(instr)
        cursor += 4
    return instrs, (None if ender is None else (cursor, ender))


def _trips(pc0: int, instrs: list) -> int:
    """How many trips through ``instrs`` one call may run: as many as fit
    in ``MAX_BLOCK`` for scalar loads and compute ending in a conditional
    branch back to ``pc0``, else one."""
    count = len(instrs)
    last = instrs[-1]
    if count > 1 and last.mnemonic in BRANCHES \
            and last.imm == -4 * (count - 1) \
            and all(ins.mnemonic in _LOAD_OPS or ins.mnemonic in COMPUTE
                    for ins in instrs[:-1]):
        return MAX_BLOCK // count
    return 1


def _build_source(pc0: int, instrs: list, tohost: int,
                  i_off: int, i_mask: int, d_off: int, d_mask: int,
                  guard: bool = False) -> str:
    """Generate the factory source for one basic block.

    Every exit point inlines its own constant-folded commit (``instret``
    and the L1I reads for the instructions retired, the L1D access
    counters for the accesses actually made, the next pc) followed by a
    direct ``return`` — straight-line code with no shared epilogue or
    state variables, because at micro-block sizes the scaffolding would
    otherwise rival the body.

    The function takes no cycle budget and has no guard between
    instructions: fitting the block into the window is the dispatcher's
    business, settled by the shape it asks for.  ``guard`` makes a
    scalar load past the dispatch cycle run only as an L1D hit on a
    read-only page (``RO``), else the block stops before it.

    The I-line LRU touch happens at the residency *probe* (a fused
    ``pop``/reinsert), not at exit.  Equivalent ordering: within one
    call nothing else touches that L1I set, and on the zero-progress
    paths the interpreter's own fetch of the same pc performs the
    identical touch.
    """
    count = len(instrs)
    trips = _trips(pc0, instrs)
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
            (1 if ins.mnemonic in STORES else 0)
    trip_loads = loads_before[count]

    pre: dict[str, None] = {}   # factory-time lines, in order, once each
    body: list[str] = []

    def emit(indent: int, text: str) -> None:
        body.append("    " * (indent + looping) + text)

    def retired(n: int) -> str:
        return f"it + {n}" if looping else str(n)

    def commit(indent: int, n: int) -> None:
        """Commit n retired instructions: instret, the L1I reads of
        their fetches and the L1D access counters."""
        emit(indent, f"hart.instret += {retired(n)}")
        emit(indent, f"ist.reads += {retired(n)}")
        reads = f"lt + {loads_before[n]}" if looping else loads_before[n]
        if reads:
            emit(indent, f"dst.reads += {reads}")
        if stores_before[n]:
            emit(indent, f"dst.writes += {stores_before[n]}")

    def emit_clean(indent: int, n: int, npc) -> None:
        """Clean stop after instruction n-1; ``npc`` is an int or an
        expression string already holding the next pc."""
        commit(indent, n)
        emit(indent, f"hart.pc = {npc}")
        emit(indent, f"return {retired(n)}")

    def emit_zero(indent: int) -> None:
        # No progress: hart.pc still equals the dispatch pc, and E is
        # reused across dispatches, so clear its stale fields.
        emit(indent, "E.executed = 0")
        emit(indent, "E.misses = None")
        emit(indent, "E.halted = False")
        emit(indent, "return E")

    def emit_stall(indent: int, k: int, pc: int) -> None:
        """Clean stop *before* instruction k (probe failure, a
        line-crossing access, a guarded load that may not run ahead)."""
        if k == 0 and not looping:
            emit_zero(indent)
        else:
            emit_clean(indent, k, pc)

    def emit_event(indent: int, n: int, npc: int) -> None:
        """Miss and/or halt exit: E.misses/E.halted are already set."""
        commit(indent, n)
        emit(indent, f"hart.pc = {npc}")
        emit(indent, f"E.executed = {retired(n)}")
        emit(indent, "return E")

    # The first trip, then (``looping``) a looping block's later ones as
    # the body of a for over ``it``/``lt``, the instructions and loads
    # of the trips before; no I-line probe there: the first trip's stay
    # resident, as only this core fetches into its L1I.
    seg_index = 0
    have_plan = fp_checked = False
    passes = (False, True) if trips > 1 else (False,)
    for looping, (k, ins) in product(passes, enumerate(instrs)):
        if looping and not k:
            pairs = tuple((n * count, n * trip_loads)
                          for n in range(1, trips))
            emit(1, f"for it, lt in {pairs}:")
        pc = pc0 + 4 * k
        npc = pc + 4
        m = ins.mnemonic
        rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm

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

        access = LOADS.get(m) or STORES.get(m)
        if access:
            size = access[0]
            if rs1 == 0:
                emit(2, f"a = {imm & MASK64}")
            elif imm == 0:
                emit(2, f"a = x[{rs1}]")
            else:
                emit(2, f"a = (x[{rs1}] + {imm}) & 0xFFFFFFFFFFFFFFFF")
            if size > 1:
                # Line-crossing access: bail to the interpreter, which
                # classifies it per line.  Within-line implies
                # within-page (line <= page), so the fast path below
                # may index one backing page directly.
                emit(2, f"if (a & {line_mask}) > {line_bytes - size}:")
                emit_stall(3, k, pc)
        vaccess = VLOADS.get(m) or VSTORES.get(m)
        if m in VECTOR or vaccess:
            # Everything vector goes through the hart's group plan,
            # fetched once per block and again after a vsetvli in it;
            # none under vill: the interpreter raises the trap.
            if not have_plan:
                emit(2, "P = hart._vplan or PLAN(hart)")
                emit(2, "if P is None:")
                emit_stall(3, k, pc)
                have_plan, fp_checked = True, False
            if m in VECTOR and VECTOR[m].view == "f" and not fp_checked:
                emit(2, "if P.sew < 32:")
                emit_stall(3, k, pc)
                fp_checked = True
        if vaccess:
            eew, addressing = vaccess
            if addressing == "unit":
                # One byte range [a, a + n) inside one backing page;
                # the interpreter takes the group that crosses a page,
                # and the store that reaches decoded code, RO or tohost.
                emit(2, f"a = {_x(rs1)}")
                emit(2, f"n = P.vl * {eew // 8}")
                emit(2, "o = a & 4095")
                stall = "o + n > 4096"
                if m in VSTORES:
                    stall += (f" or a >> 12 in CP or a >> 12 in RO"
                              f" or a <= {tohost} < a + n")
                emit(2, f"if {stall}:")
                emit_stall(3, k, pc)
            else:
                # Element addresses and the element size.
                emit(2, f"A, z = VADDR(hart, i{k}, P, {eew}, "
                        f"{addressing!r})")
        if (vaccess and vaccess[1] != "unit") or m in _CONFIG_OK:
            pre[f"i{k} = instrs[{k}]"] = None

        if m in _LOAD_OPS:
            # Loads read the backing page inside try/except: the page
            # is present for every address a program has ever written,
            # so the KeyError arm (read of untouched memory -> zero)
            # costs nothing on the path that matters.
            guarded = guard and (k or looping)
            page = "pages[g]" if guarded else "pages[a >> 12]"
            _size, signed, file = access
            if file == "f":
                target, missing = f"f[{rd}]", "0.0"
                raw = f"U{'D' if size == 8 else 'F'}" \
                    f"({page}, a & 4095)[0]"
            else:
                # A sign-extending load goes through ``v``.
                target, missing = ("v" if signed else f"x[{rd}]"), "0"
                raw = f"{page}[a & 4095]" if size == 1 \
                    else f"U{size}({page}, a & 4095)[0]"

            def emit_value(base: int) -> None:
                if file == "x" and not rd:
                    return
                emit(base, "try:")
                emit(base + 1, f"{target} = {raw}")
                emit(base, "except KeyError:")
                emit(base + 1, f"{target} = {missing}")
                if file == "x" and signed:
                    sign = 1 << (8 * size - 1)
                    emit(base, f"x[{rd}] = v if v < 0x{sign:X} "
                         f"else v | 0x{MASK64 ^ (2 * sign - 1):X}")
            if guarded:
                # Ahead of its cycle: only what no other core can
                # change or see, else it runs at instruction 0 next.
                emit(2, "g = a >> 12")
                emit(2, "if g not in RO:")
                emit_stall(3, k, pc)
            emit(2, f"t = a >> {d_off}")
            emit(2, f"dw = dsets[t & {d_mask}]")
            emit(2, "try:")
            emit(3, "dw[t] = dw.pop(t)")
            emit(2, "except KeyError:")
            if guarded:
                emit_stall(3, k, pc)
            else:
                emit(3, f"E.misses = MISS(cid, LOAD, dmiss(t, False), "
                        f"r{k}, {pc})")
                emit(3, "E.halted = False")
                emit_value(3)
                emit_event(3, k + 1, npc)
                pre[f"r{k} = instrs[{k}].dests"] = None
            emit_value(2)

        elif m in STORES:
            file = access[1]
            # A store into a read-only page faults in the interpreter.
            emit(2, "g = a >> 12")
            emit(2, "if g in RO:")
            emit_stall(3, k, pc)
            emit(2, f"t = a >> {d_off}")
            emit(2, f"dw = dsets[t & {d_mask}]")
            emit(2, "try:")
            emit(3, "dw.pop(t)")
            emit(3, "dw[t] = True")
            emit(3, "ms = None")
            emit(2, "except KeyError:")
            emit(3, f"ms = MISS(cid, STORE, dmiss(t, True), (), {pc})")
            emit(2, "try:")
            emit(3, "p = pages[g]")
            emit(2, "except KeyError:")
            emit(3, "p = alloc(g)")
            if file == "f" and size == 8:
                emit(2, f"PD(p, a & 4095, f[{rs2}])")
            elif file == "f":
                # Beyond the binary32 range the pack raises; the bit
                # cast rounds to the infinity IEEE 754 asks for.
                emit(2, "try:")
                emit(3, f"PF(p, a & 4095, f[{rs2}])")
                emit(2, "except OverflowError:")
                emit(3, f"P4(p, a & 4095, f32_to_bits(f[{rs2}]))")
            elif size == 1:
                emit(2, f"p[a & 4095] = {_x(rs2)} & 0xFF"
                     if rs2 else "p[a & 4095] = 0")
            else:
                val = _x(rs2)
                if size < 8 and rs2:
                    val = f"{val} & {(1 << (8 * size)) - 1:#x}"
                emit(2, f"P{size}(p, a & 4095, {val})")
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

        elif m in BRANCHES:
            cond, _constants = _substitute(emit, BRANCHES[m], X_XX.operands,
                                           ins, pc)
            if trips > 1:
                # Taken is the next trip, which the for runs.
                emit(2, f"if not ({cond}):")
                emit_clean(3, k + 1, npc)
            else:
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

        elif vaccess:
            is_store = m in VSTORES
            registers = "()" if is_store else f"r{k}"
            if not is_store:
                pre[f"r{k} = instrs[{k}].dests"] = None
            if addressing != "unit":
                emit(2, f"VMOVE(hart, i{k}, A, z, True)")
                emit(2, f"ms = VLINES(l1d, A, z, False, cid, r{k}, {pc})")
            else:
                if is_store:
                    emit(2, "if n:")
                    emit(3, "g = a >> 12")
                    emit(3, "try:")
                    emit(4, "p = pages[g]")
                    emit(3, "except KeyError:")
                    emit(4, "p = alloc(g)")
                    emit(3, f"p[o:o + n] = RG(V, {rd}, n, hart.vlenb)")
                else:
                    emit(2, "try:")
                    emit(3, f"WG(V, {rd}, pages[a >> 12][o:o + n], "
                            "hart.vlenb)")
                    emit(2, "except KeyError:")
                    emit(3, f"WG(V, {rd}, bytes(n), hart.vlenb)")
                # The scalar probe once per line of [a, a + n),
                # ascending: the order a unit-stride access first
                # touches them in (no line when vl is 0).
                emit(2, "ms = None")
                emit(2, f"for t in range(a >> {d_off}, "
                        f"(a + n - 1 >> {d_off}) + 1) if n else ():")
                emit(3, f"dst.{'writes' if is_store else 'reads'} += 1")
                emit(3, f"dw = dsets[t & {d_mask}]")
                emit(3, "try:")
                if is_store:
                    emit(4, "dw.pop(t)")
                    emit(4, "dw[t] = True")
                else:
                    emit(4, "dw[t] = dw.pop(t)")
                emit(3, "except KeyError:")
                emit(4, f"q = MISS(cid, {'STORE' if is_store else 'LOAD'}, "
                        f"dmiss(t, {is_store}), {registers}, {pc})")
                emit(4, "ms = q if ms is None else ms + q")
            emit(2, "if ms is not None:")
            emit(3, "E.misses = ms")
            emit(3, "E.halted = False")
            emit_event(3, k + 1, npc)

        elif m in VECTOR:
            # The row's statements, the ones its interpreter executor
            # is made of, over this instruction's fields.
            for line in row_source(m, rd, rs1, rs2, imm, ins.vm):
                emit(2, line)

        elif m in _CONFIG_OK:
            if m == "vsetivli":
                avl = ins.shamt
            elif rs1:
                avl = f"x[{rs1}]"
            else:
                # rs1 = x0: VLMAX when rd is named, else keep vl.
                avl = 1 << 62 if rd else "hart.vl"
            emit(2, f"n = hart.set_vl({avl}, vt{k})")
            if rd:
                emit(2, f"x[{rd}] = n")
            pre[f"vt{k} = VTYPE(i{k}.imm)"] = None
            have_plan = False

        elif m in COMPUTE:
            # The row's own expression with this instruction's operands
            # pasted in; all-constant integer rows are evaluated now.
            row = COMPUTE[m]
            dest = row.form.dest
            if rd or dest == "f":
                expr = row.imm0 if row.imm0 and imm == 0 else row.expr
                value, constants = _substitute(emit, expr, row.form.operands,
                                               ins, pc)
                if constants is not None and dest == "x":
                    value = FN[m](*constants)
                emit(2, f"{dest}[{rd}] = {value}")
        else:  # pragma: no cover - _discover only admits known mnemonics
            raise AssertionError(f"untranslatable mnemonic {m}")

    looping = False
    if trips > 1:
        # Every trip took the branch back: still looping, at pc0.
        emit(2, f"hart.instret += {trips * count}")
        emit(2, f"ist.reads += {trips * count}")
        if trip_loads:
            emit(2, f"dst.reads += {trips * trip_loads}")
        emit(2, f"hart.pc = {pc0}")
        emit(2, f"return {trips * count}")
    elif instrs[-1].mnemonic not in _CONTROL_OK:
        emit_clean(2, count, pc0 + 4 * count)

    for s in range(len(seg_tags)):
        pre[f"iw{s} = isets[{seg_tags[s] & i_mask}]"] = None
    if any(ins.is_vector for ins in instrs):
        pre["V = hart.vregs"] = None

    lines = [
        "def _factory(C):",
        "    (hart, x, f, core, E, instrs, l1i, l1d, pages, alloc,",
        "     CP, RO, inv, htif, cid) = C",
        "    isets = l1i._sets",
        "    IM = l1i._mru",
        "    ist = l1i.stats",
        "    dsets = l1d._sets",
        "    dst = l1d.stats",
        "    dmiss = l1d.miss",
    ]
    lines += ["    " + text for text in pre]
    lines.append("    def run():")
    lines += body
    lines.append("    return run")
    return "\n".join(lines) + "\n"


# Compiled factories are pure functions of their key (code words,
# geometry, tohost, guard), so they are shared machine-wide: eight
# cores running one loop compile it once, repeated benchmark reps in
# one process, observed or plain, pay zero recompilation, and a
# campaign's point workers hand theirs back to the forking process.
_FACTORY_CACHE: dict = {}
_FACTORY_CACHE_MAX = 4096
# Keys compiled here since the last export, oldest first: what the
# next export sends, so it costs the new blocks, not the cache.
_COMPILED: list = []


def _cache_factory(key, factory) -> None:
    if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
        _FACTORY_CACHE.clear()
        _COMPILED.clear()
    _FACTORY_CACHE[key] = factory


def export_factories(known=()) -> bytes | None:
    """The factories compiled since the last export that the cache
    still holds, under keys not in ``known``, as ``marshal`` of
    ``{key: code}``, or ``None``.  A factory is a closure-free,
    default-free function over ``_G``, so its code object is all of it;
    a key is ints and a tuple of ints."""
    new = {key: _FACTORY_CACHE[key].__code__ for key in _COMPILED
           if key in _FACTORY_CACHE and key not in known}
    _COMPILED.clear()
    return marshal.dumps(new) if new else None


def import_factories(payload: bytes) -> int:
    """Install what :func:`export_factories` marshalled, except under
    keys already held; returns how many factories the payload carried.
    ``marshal`` data is code: feed this only what a process forked from
    this one sent back over its own pipe (``PointPool.poll``)."""
    blocks = marshal.loads(payload)
    for key, code in blocks.items():
        if key not in _FACTORY_CACHE:
            _cache_factory(key, types.FunctionType(code, _G))
    return len(blocks)


def _zero_progress_stub(exit_obj):
    """A run-fn for untranslatable pcs: reports zero progress so the
    dispatcher falls through to its interpreter path."""
    def run():
        exit_obj.executed = 0
        exit_obj.misses = None
        exit_obj.halted = False
        return exit_obj
    return run


@dataclass
class TranslatorStats:
    """What one core's translator did, counted where it translates —
    never by a running block, so the counters cost a run nothing."""

    blocks_compiled: int = 0   # block sources generated and compile()d
    factory_hits: int = 0      # blocks served by an already compiled one
    compile_seconds: float = 0.0   # wall time generating + compiling them
    invalidations: int = 0     # store sweeps of this core's tables
    blocks_invalidated: int = 0    # blocks they dropped
    # shape -> blocks installed (compiled or served by the cache)
    by_shape: dict = field(default_factory=lambda: dict.fromkeys(SHAPES, 0))
    # pc -> mnemonic of the instruction there that ended a block or made
    # the pc untranslatable ("<illegal>": an undecodable word).
    enders: dict = field(default_factory=dict)
    # shape -> [dispatches that retired something, instructions they
    # retired]; counted by ``BlockTranslator._observed`` only.
    dispatch: dict = field(
        default_factory=lambda: {shape: [0, 0] for shape in SHAPES})


def translator_totals(translators) -> dict | None:
    """One run's translator counters summed over its cores, JSON-ready
    (``None`` when the run did not translate); enders by mnemonic, most
    frequent first."""
    if translators is None:
        return None
    stats = [translator.stats for translator in translators]
    enders: dict = {}
    for each in stats:
        for mnemonic in each.enders.values():
            enders[mnemonic] = enders.get(mnemonic, 0) + 1
    totals = {
        "blocks_compiled": sum(each.blocks_compiled for each in stats),
        "factory_hits": sum(each.factory_hits for each in stats),
        "compile_seconds": sum(each.compile_seconds for each in stats),
        "invalidations": sum(each.invalidations for each in stats),
        "blocks_invalidated": sum(each.blocks_invalidated
                                  for each in stats),
        "by_shape": {shape: sum(each.by_shape[shape] for each in stats)
                     for shape in SHAPES},
        "enders": dict(sorted(enders.items(),
                              key=lambda item: (-item[1], item[0]))),
    }
    dispatch = {shape: {
        "dispatches": sum(each.dispatch[shape][0] for each in stats),
        "instructions": sum(each.dispatch[shape][1] for each in stats)}
        for shape in SHAPES}
    if any(tally["dispatches"] for tally in dispatch.values()):
        totals["dispatch"] = dispatch   # absent, not zero, when unobserved
    return totals


def _factory_for(pc0, instrs, tohost, i_off, i_mask, d_off, d_mask, guard,
                 stats):
    key = (pc0, tuple(ins.word for ins in instrs), tohost,
           i_off, i_mask, d_off, d_mask, int(guard))
    factory = _FACTORY_CACHE.get(key)
    if factory is not None:
        stats.factory_hits += 1
    else:
        stats.blocks_compiled += 1
        started = time.perf_counter()
        source = _build_source(pc0, instrs, tohost,
                               i_off, i_mask, d_off, d_mask, guard)
        code = compile(source, f"<block@{pc0:#x}>", "exec")
        namespace: dict = {}
        exec(code, _G, namespace)
        factory = namespace["_factory"]
        _cache_factory(key, factory)
        _COMPILED.append(key)
        stats.compile_seconds += time.perf_counter() - started
    return factory


class BlockTranslator:
    """Per-core translated-block tables with store invalidation.

    ``blocks[shape]`` maps a block-start pc to its ``run()`` closure
    bound to this core — the zero-progress stub for a pc proven
    untranslatable, so a dispatcher needs no translatability test — and
    ``_bounds[shape]`` maps it to the block's last byte.  A table fills
    lazily: the dispatch loops hoist its ``get`` and call
    :meth:`translate` only on a true miss, for the shape
    (:data:`SHAPES`) they were about to dispatch.  The tables are
    mutated in place, never replaced, so hoisted references stay valid
    across invalidations.
    """

    _PICKLED = ("core", "machine", "_exit", "_enabled")

    def __init__(self, core, machine):
        self.core = core
        self.machine = machine
        self._exit = BlockExit()
        self._fresh()
        hart = core.hart
        hart._code_caches.append(self)
        hart.code_registry.register_cache(self)
        # Within-line implies within-page is load/store codegen's one
        # geometric assumption; refuse to translate if it cannot hold.
        self._enabled = core.l1d.line_bytes <= PAGE_SIZE

    def _fresh(self) -> None:
        self.blocks = {shape: {} for shape in SHAPES}
        self._bounds = {shape: {} for shape in SHAPES}
        self.stats = TranslatorStats()

    def translate(self, pc: int, shape: str = "whole"):
        """Install the ``shape`` block at ``pc``; returns its run-fn.
        The block's plan — ``(instrs, factory or None, ender, last byte
        discovery read)`` — is the machine's, made by the first core to
        need it: every core shares the one geometry and ``tohost``."""
        core = self.core
        hart = core.hart
        machine = self.machine
        stats = self.stats
        plans = hart.code_registry.plans
        plan = plans.get((pc, shape))
        if plan is None:
            cap, uop = SHAPES[shape]
            instrs, ender = (_discover(hart, pc, cap, uop) if self._enabled
                             else ([], None))
            factory = None
            if instrs:
                l1i, l1d = core.l1i, core.l1d
                tohost = machine.tohost_address
                # Guarding changes the code only of a micro-block with a
                # load past its dispatch cycle; every other shares the key.
                ahead = instrs if _trips(pc, instrs) > 1 else instrs[1:]
                guard = uop and any(ins.mnemonic in _LOAD_OPS
                                    for ins in ahead)
                factory = _factory_for(pc, instrs,
                                       -1 if tohost is None else tohost,
                                       l1i._offset_bits, l1i._index_mask,
                                       l1d._offset_bits, l1d._index_mask,
                                       guard, stats)
            # A store into the word after the block, which discovery
            # may have read, drops the plan too.  A run ended by an
            # illegal word is not kept: that word's page may hold no
            # decoded code for a store to hit.
            plan = instrs, factory, ender, pc + 4 * len(instrs) + 3
            if ender is None or ender[1] != "<illegal>":
                plans[(pc, shape)] = plan
        elif plan[1] is not None:
            stats.factory_hits += 1
        instrs, factory, ender, _end = plan
        if ender is not None:
            stats.enders[ender[0]] = ender[1]
        if factory is not None:
            stats.by_shape[shape] += 1
            memory = machine.memory
            fn = factory((hart, hart.regs, hart.fregs, core, self._exit,
                          instrs, core.l1i, core.l1d, memory._pages,
                          memory._page, hart._code_pages,
                          machine.readonly_pages,
                          hart.code_registry.note_store,
                          machine.htif_store, core.core_id))
            if core.profile is not None:
                fn = self._observed(fn, pc, instrs, shape)
        else:
            fn = _zero_progress_stub(self._exit)
        self.blocks[shape][pc] = fn
        # A stub covers the one word that made its pc untranslatable.
        self._bounds[shape][pc] = pc + 4 * max(len(instrs), 1) - 1
        return fn

    def _observed(self, run, pc0: int, instrs: list, shape: str):
        """``run`` wrapped for an observed run: what the block retired
        goes to the core's profile, one accrual a trip, and to its
        shape's dispatch tally, after it returns.  Blocks carry no
        profiling code, so a plain run gets the bare function and pays
        nothing."""
        count = len(instrs)
        # Vector instructions among the first n; only a block's last
        # instruction can be control flow.
        vectors = list(accumulate((ins.is_vector for ins in instrs),
                                  initial=0))
        ends_control = instrs[-1].is_branch or instrs[-1].is_jump
        retire_run = self.core.profile.retire_run
        tally = self.stats.dispatch[shape]

        def observed():
            result = run()
            n = result if result.__class__ is int else result.executed
            if n:
                tally[0] += 1
                tally[1] += n
                # Whole trips (more than one only from a looping block),
                # then the part of one an exit stopped in.
                trips, rest = divmod(n, count)
                for _ in range(trips):
                    retire_run(pc0, count, vectors[count], ends_control)
                if rest:
                    retire_run(pc0, rest, vectors[rest], False)
            return result
        return observed

    # -- invalidation (CodeCacheRegistry protocol) --------------------------

    def invalidate_range(self, lo: int, hi: int) -> None:
        """Drop every cached block overlapping byte range [lo, hi]."""
        self.stats.invalidations += 1
        for shape, bounds in self._bounds.items():
            blocks = self.blocks[shape]
            for pc in [pc for pc, end in bounds.items()
                       if pc <= hi and end >= lo]:
                del bounds[pc], blocks[pc]
                self.stats.blocks_invalidated += 1

    def drop_all(self) -> None:
        for tables in (self.blocks, self._bounds):
            for table in tables.values():
                table.clear()

    # -- pickling: compiled closures must never leak into checkpoints -------

    def __getstate__(self):
        # No table and no counter of what was translated goes along.
        return {name: self.__dict__[name] for name in self._PICKLED}

    def __setstate__(self, state):
        # Only the fields above are read, so a checkpoint of this
        # CHECKPOINT_FORMAT written when the tables had other names (or
        # before the counters existed) still resumes.
        for name in self._PICKLED:
            setattr(self, name, state[name])
        self._fresh()
