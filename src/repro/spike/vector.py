"""The RVV subset: whole-group execution of the vector semantics rows.

What a vector instruction *computes* is a row of
:mod:`repro.spike.semantics` (``VECTOR``, ``VLOADS``, ``VSTORES``).  This
module turns a row into statements (:func:`row_source`) that work on a
whole register group at once — one ``struct`` unpack per source group,
one list comprehension applying the row's expression, one pack that
leaves the tail bytes alone — and compiles an interpreter executor
from them when a hart first decodes the mnemonic;
:mod:`repro.spike.translate` pastes the same statements, with the
instruction's fields as literals, into block source.  The
memory instructions, ``vset{i}vl{i}`` and ``viota.m`` are written out
here; the translator reuses their pieces (:func:`element_addresses`,
:func:`transfer`, :func:`read_group`, :func:`write_group`).

Elements are stored little-endian inside each vector register's backing
``bytearray``; LMUL > 1 treats consecutive registers as one group.
Masked-off elements (``vm = 0`` and mask bit clear) and the tail are
left undisturbed, which is a legal implementation of both policies.
"""

from __future__ import annotations

import functools
import struct

from repro.isa.decoder import Instruction
from repro.isa.vtype import VType
from repro.spike.hart import Hart, MemAccess, Trap, executor
from repro.spike.semantics import (
    HELPERS,
    NAME,
    VECTOR,
    VLOADS,
    VSTORES,
    round_f32,
)
from repro.utils.bitops import MASK64, sign_extend


class VectorConfigError(Trap):
    """Raised when a vector instruction runs under an unusable vtype."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"vector configuration error: {reason}", pc)


# ---------------------------------------------------------------------------
# Register groups as bytes and as elements
# ---------------------------------------------------------------------------

def read_group(vregs: list, reg: int, nbytes: int, vlenb: int):
    """The first ``nbytes`` of the register group starting at ``reg``."""
    if nbytes <= vlenb:
        return vregs[reg][:nbytes]
    return b"".join(vregs[reg:reg - (-nbytes // vlenb)])[:nbytes]


def write_group(vregs: list, reg: int, data, vlenb: int) -> None:
    """Overwrite the start of the group at ``reg``; the tail stays."""
    if len(data) <= vlenb:
        vregs[reg][:len(data)] = data
        return
    for start in range(0, len(data), vlenb):
        chunk = data[start:start + vlenb]
        vregs[reg][:len(chunk)] = chunk
        reg += 1


_CODES = {("u", 8): "B", ("u", 16): "H", ("u", 32): "I", ("u", 64): "Q",
          ("s", 8): "b", ("s", 16): "h", ("s", 32): "i", ("s", 64): "q",
          ("f", 32): "f", ("f", 64): "d"}


@functools.lru_cache(maxsize=None)
def lanes(view: str, width: int, count: int) -> struct.Struct:
    """``count`` little-endian elements of ``width`` bits, unsigned,
    signed or float.  Built on first use: a run meets a handful of
    (view, SEW, vl) combinations out of the few thousand there are."""
    return struct.Struct(f"<{count}{_CODES[view, width]}")


class GroupPlan:
    """Element access for one (SEW, vl, VLMAX) configuration of a hart.

    ``ru``/``rs``/``rf`` read the ``vl`` elements of a register group as
    unsigned, signed or float values, ``rall`` all VLMAX of them;
    ``wu``/``wf`` pack ``vl`` values back and ``wm`` does so under v0,
    all leaving the bytes beyond them alone.  Plans are immutable and
    shared by every hart in the same configuration.
    """

    __slots__ = ("vl", "sew", "m", "h", "vlmax", "vlenb", "nbytes", "whole",
                 "u", "s", "f", "all")

    def __init__(self, sew: int, vl: int, vlmax: int, vlenb: int):
        self.vl, self.sew, self.vlmax, self.vlenb = vl, sew, vlmax, vlenb
        self.m = (1 << sew) - 1
        self.h = 1 << (sew - 1)
        self.nbytes = vl * sew // 8
        # The common case: the vl elements sit in the group's first
        # register, so a struct can work on its bytearray directly.
        self.whole = self.nbytes <= vlenb
        self.u = lanes("u", sew, vl)
        self.s = lanes("s", sew, vl)
        self.f = lanes("f", sew, vl) if sew >= 32 else None
        self.all = lanes("u", sew, vlmax)

    # -- reads ----------------------------------------------------------------

    def _bytes(self, v, reg):
        return read_group(v, reg, self.nbytes, self.vlenb)

    def ru(self, v, reg):
        return self.u.unpack_from(
            v[reg] if self.whole else self._bytes(v, reg))

    def rs(self, v, reg):
        return self.s.unpack_from(
            v[reg] if self.whole else self._bytes(v, reg))

    def rf(self, v, reg):
        return self.f.unpack_from(
            v[reg] if self.whole else self._bytes(v, reg))

    def rall(self, v, reg):
        return self.all.unpack(read_group(v, reg, self.all.size, self.vlenb))

    def r0(self, v, reg, view):
        return lanes(view, self.sew, 1).unpack_from(v[reg])[0]

    def active(self, elements, v):
        """The elements whose bit in v0 is set."""
        mask = int.from_bytes(v[0], "little")
        return [element for index, element in enumerate(elements)
                if mask >> index & 1]

    # -- writes ---------------------------------------------------------------

    def _pack(self, view, values) -> bytes:
        lanes_ = getattr(self, view)
        try:
            return lanes_.pack(*values)
        except OverflowError:
            # binary32 only: beyond its range rounds to the infinity of
            # that sign, which ``struct`` refuses and round_f32 does.
            return lanes_.pack(*map(round_f32, values))

    def wu(self, v, reg, values):
        if self.whole:
            self.u.pack_into(v[reg], 0, *values)
        else:
            write_group(v, reg, self.u.pack(*values), self.vlenb)

    def wf(self, v, reg, values):
        if self.whole:
            try:
                self.f.pack_into(v[reg], 0, *values)
                return
            except OverflowError:
                pass
        write_group(v, reg, self._pack("f", values), self.vlenb)

    def wm(self, v, reg, view, values, old):
        """Write ``values`` where v0's bit is set and the bytes of the
        group ``old`` elsewhere (``old`` is ``reg`` itself for a masked
        operation, vs2 for a merge).  Bytes, not values: an inactive
        binary32 element must not pass through a float."""
        new = self._pack(view, values)
        kept = self._bytes(v, old)
        mask = int.from_bytes(v[0], "little")
        size = self.sew // 8
        write_group(v, reg, b"".join(
            (new if mask >> index & 1 else kept)[start:start + size]
            for index, start in enumerate(range(0, self.nbytes, size))),
            self.vlenb)

    def w0(self, v, reg, view, value):
        if view == "f" and self.sew == 32:
            value = round_f32(value)
        lanes(view, self.sew, 1).pack_into(v[reg], 0, value)

    def wbits(self, v, reg, bits, vm):
        """Mask-register bits 0..vl-1 from ``bits`` (under v0 when
        ``vm`` is 0); every other bit of the register stays."""
        written = (1 << self.vl) - 1
        if not vm:
            written &= int.from_bytes(v[0], "little")
        value = sum(1 << index for index, bit in enumerate(bits) if bit)
        register = v[reg]
        old = int.from_bytes(register, "little")
        register[:] = ((old & ~written) | (value & written)).to_bytes(
            len(register), "little")


_shared_plan = functools.lru_cache(maxsize=None)(GroupPlan)


def group_plan(hart: Hart) -> GroupPlan | None:
    """The plan for ``hart``'s current vtype and vl; ``None`` under
    ``vill``.  Kept on the hart until the next ``set_vl``."""
    vtype = hart.vtype
    if vtype.vill:
        return None
    plan = hart._vplan = _shared_plan(
        vtype.sew, hart.vl, hart.vlmax(), hart.vlenb)
    return plan


def _require_plan(hart: Hart) -> GroupPlan:
    plan = hart._vplan or group_plan(hart)
    if plan is None:
        raise VectorConfigError(hart.pc, "vtype is vill")
    return plan


# ---------------------------------------------------------------------------
# Rows into statements
# ---------------------------------------------------------------------------

def _comprehension(expr: str, loops: list) -> str:
    if not loops:
        return f"[{expr}] * P.vl"
    names = ", ".join(name for name, _group in loops)
    groups = ", ".join(group for _name, group in loops)
    if len(loops) > 1:
        groups = f"zip({groups})"
    return f"[{expr} for {names} in {groups}]"


def _either(vm, unmasked: str | None, masked: str) -> list[str]:
    """One statement or the other; ``vm`` is 1, 0, or the text of a
    run-time test."""
    if vm == 1:
        return [unmasked] if unmasked else []
    if vm == 0:
        return [masked]
    if unmasked is None:
        return [f"if not {vm}:", f"    {masked}"]
    return [f"if {vm}:", f"    {unmasked}", "else:", f"    {masked}"]


def row_source(mnemonic: str, rd, rs1, rs2, imm, vm) -> list[str]:
    """The statements that execute one row-backed vector instruction.

    They run over ``P`` (the hart's :class:`GroupPlan`), ``V``, ``x``
    and ``f`` (the three register files) and the names of
    ``semantics.HELPERS``.  The instruction's fields arrive as text —
    ``"instr.rd"`` for an executor that serves every encoding, ``"7"``
    inside a translated block — and ``vm`` as 1, 0 or such a text.  The
    caller has established that ``P`` exists (not ``vill``) and, for a
    row whose view is ``"f"``, that SEW is 32 or 64.
    """
    row = VECTOR[mnemonic]
    kind, view, expr = row.kind, row.view, row.expr
    used = set(NAME.findall(expr))
    out = "f" if view == "f" else "u"
    lines = [f"{name} = P.{name}" for name in ("m", "sew", "vlmax")
             if name in used]

    if row.b == "x" and kind != "pick":
        scalar = f"x[{rs1}] & P.m" if view == "u" \
            else f"((x[{rs1}] & P.m) ^ P.h) - P.h"
    elif row.b == "i" and kind != "pick" and view == "u":
        scalar = f"{imm} & P.m"
    else:
        # A slide amount or gather index is used as it stands, and a
        # 5-bit immediate is its own signed SEW-bit value.
        scalar = {"x": f"x[{rs1}]", "i": f"{imm}", "f": f"f[{rs1}]"} \
            .get(row.b)

    if kind == "to_x":
        return lines + [f"a = P.r0(V, {rs2}, {view!r})",
                        f"if {rd}:", f"    x[{rd}] = {expr}"]
    if kind == "to_f":
        return lines + [f"a = P.r0(V, {rs2}, {view!r})",
                        f"f[{rd}] = {expr}"]
    if kind == "first":
        return lines + ["if P.vl:",
                        f"    P.w0(V, {rd}, {out!r}, {scalar})"]
    if kind == "fold":
        lines.append(f"A = P.r{view}(V, {rs2})")
        lines += _either(vm, None, "A = P.active(A, V)")
        stored = "b" if view == "f" else "b & P.m"
        return lines + ["if P.vl:",
                        f"    b = P.r0(V, {rs1}, {view!r})",
                        "    for a in A:",
                        f"        b = {expr}",
                        f"    P.w0(V, {rd}, {out!r}, {stored})"]

    loops = []
    if kind == "pick":
        lines.append(f"A = P.rall(V, {rs2})")
    elif "a" in used:
        lines.append(f"A = P.r{view}(V, {rs2})")
        loops.append(("a", "A"))
    if row.b == "v":
        lines.append(f"B = P.r{view}(V, {rs1})")
        loops.append(("b", "B"))
    elif row.b:
        lines.append(f"b = {scalar}")
    if "d" in used:
        lines.append(f"D = P.r{view}(V, {rd})")
        loops.append(("d", "D"))
    if "i" in used:
        loops.append(("i", "range(P.vl)"))
    values = _comprehension(expr, loops)
    if kind == "mask":
        return lines + [f"P.wbits(V, {rd}, {values}, {vm})"]
    lines.append(f"values = {values}")
    return lines + _either(
        vm, f"P.w{out}(V, {rd}, values)",
        f"P.wm(V, {rd}, {out!r}, values, {rs2 if row.merge else rd})")


_EXECUTOR_GLOBALS = {**HELPERS, "plan": _require_plan,
                     "VectorConfigError": VectorConfigError}


def derive_executor(mnemonic: str):
    """Compile and register ``EXEC[mnemonic]`` for a vector row — its
    statements over the decoded instruction's fields — and return it.

    Called by the hart the first time it decodes the mnemonic rather
    than for every row at import: compiling all of them costs ~17 ms a
    process, and a run that translates executes a handful at most.
    """
    row = VECTOR[mnemonic]
    source = ["def handler(hart, instr):",
              "    P = hart._vplan or plan(hart)",
              "    V, x, f = hart.vregs, hart.regs, hart.fregs"]
    if row.view == "f":
        source += ["    if P.sew < 32:",
                   "        raise VectorConfigError(hart.pc, "
                   "f'FP vector op at SEW={P.sew}')"]
    source += ["    " + line for line in row_source(
        mnemonic, "instr.rd", "instr.rs1", "instr.rs2", "instr.imm",
        "instr.vm")]
    exec(compile("\n".join(source), f"<{mnemonic}>", "exec"),
         _EXECUTOR_GLOBALS)
    return executor(mnemonic)(_EXECUTOR_GLOBALS.pop("handler"))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# A kernel executes a handful of distinct vtype immediates, millions of
# times; decoding builds a frozen dataclass around a Fraction.
decode_vtype = functools.lru_cache(maxsize=256)(VType.decode)


@executor("vsetvli", "vsetvl")
def _vsetvl(hart: Hart, instr: Instruction) -> None:
    vtype = decode_vtype(instr.imm if instr.mnemonic == "vsetvli"
                         else hart.regs[instr.rs2])
    if instr.rs1:
        avl = hart.regs[instr.rs1]
    elif instr.rd:
        avl = 1 << 62   # AVL = ~0: request VLMAX
    else:
        avl = hart.vl   # keep vl, change vtype only
    hart.write_reg(instr.rd, hart.set_vl(avl, vtype))


@executor("vsetivli")
def _vsetivli(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd,
                   hart.set_vl(instr.shamt, decode_vtype(instr.imm)))


@executor("viota.m")
def _viota(hart: Hart, instr: Instruction) -> None:
    """vd[i] = how many active elements below i have their vs2 bit set:
    a running count, not a function of one element, hence not a row."""
    plan = _require_plan(hart)
    vregs = hart.vregs
    source = int.from_bytes(vregs[instr.rs2], "little")
    active = -1 if instr.vm else int.from_bytes(vregs[0], "little")
    values, count = [], 0
    for index in range(plan.vl):
        values.append(count & plan.m)
        count += source >> index & active >> index & 1
    if instr.vm:
        plan.wu(vregs, instr.rd, values)
    else:
        plan.wm(vregs, instr.rd, "u", values, instr.rd)


# ---------------------------------------------------------------------------
# Loads and stores
# ---------------------------------------------------------------------------

def element_addresses(hart: Hart, instr: Instruction, plan: GroupPlan,
                      eew: int, kind: str) -> tuple:
    """``(addresses of elements 0..vl-1, element bytes)`` of a vector
    memory instruction; indexed forms move SEW-wide data."""
    base = hart.regs[instr.rs1]
    count = plan.vl
    if kind == "indexed":
        offsets = lanes("u", eew, count).unpack(read_group(
            hart.vregs, instr.rs2, count * eew // 8, hart.vlenb))
        return [(base + offset) & MASK64 for offset in offsets], \
            plan.sew // 8
    stride = eew // 8 if kind == "unit" \
        else sign_extend(hart.regs[instr.rs2], 64)
    return [(base + index * stride) & MASK64 for index in range(count)], \
        eew // 8


def transfer(hart: Hart, instr: Instruction, addresses: list, size: int,
             is_load: bool) -> list:
    """Move the active elements between memory and the data group, in
    element order; returns their addresses."""
    vregs, memory, vlenb = hart.vregs, hart.memory, hart.vlenb
    data = lanes("u", 8 * size, len(addresses))
    if not instr.vm:
        mask = int.from_bytes(vregs[0], "little")
        active = [bool(mask >> index & 1) for index in range(len(addresses))]
    if is_load:
        load = memory.load_int
        if instr.vm:
            values = [load(address, size) for address in addresses]
        else:
            old = data.unpack(read_group(vregs, instr.rd, data.size, vlenb))
            values = [load(address, size) if on else kept
                      for address, on, kept in zip(addresses, active, old)]
        write_group(vregs, instr.rd, data.pack(*values), vlenb)
    else:
        values = data.unpack(read_group(vregs, instr.rd, data.size, vlenb))
        if hart._readonly_pages:
            # Precise: a fault leaves every element unwritten.
            for index, address in enumerate(addresses):
                if instr.vm or active[index]:
                    hart.check_store(address, size)
        pages = hart._code_pages
        for index, (address, value) in enumerate(zip(addresses, values)):
            if instr.vm or active[index]:
                memory.store_int(address, value, size)
                if (address >> 12) in pages \
                        or ((address + size - 1) >> 12) in pages:
                    hart.code_registry.note_store(address, size)
    if instr.vm:
        return addresses
    return [address for address, on in zip(addresses, active) if on]


def transfer_unit(hart: Hart, reg: int, base: int, nbytes: int,
                  is_load: bool) -> None:
    """An unmasked unit-stride access as one byte range: one slice per
    backing page instead of one access per element."""
    if is_load:
        write_group(hart.vregs, reg, hart.memory.load_bytes(base, nbytes),
                    hart.vlenb)
        return
    hart.check_store(base, nbytes)
    hart.memory.store_bytes(base, read_group(hart.vregs, reg, nbytes,
                                             hart.vlenb))
    pages = hart._code_pages
    if any(page in pages
           for page in range(base >> 12, ((base + nbytes - 1) >> 12) + 1)):
        hart.code_registry.note_store(base, nbytes)


def _memory_executor(eew: int, kind: str, is_load: bool):
    def handler(hart: Hart, instr: Instruction) -> None:
        plan = _require_plan(hart)
        base = hart.regs[instr.rs1]
        nbytes = plan.vl * eew // 8
        if kind == "unit" and instr.vm and nbytes \
                and base + nbytes <= MASK64:
            size = eew // 8
            touched = range(base, base + nbytes, size)
            transfer_unit(hart, instr.rd, base, nbytes, is_load)
        else:
            addresses, size = element_addresses(hart, instr, plan, eew, kind)
            touched = transfer(hart, instr, addresses, size, is_load)
        # The caching layer's contract: one record per active element,
        # in element order.
        write = not is_load
        hart.accesses += [MemAccess(address, size, write)
                          for address in touched]
    return handler


for _table, _is_load in ((VLOADS, True), (VSTORES, False)):
    for _mnemonic, (_eew, _kind) in _table.items():
        executor(_mnemonic)(_memory_executor(_eew, _kind, _is_load))
