"""The functional RISC-V hart (core) model.

A :class:`Hart` executes RV64IMAFD + RVV-subset instructions against a
shared :class:`~repro.soc.memory.SparseMemory`.  Execution is purely
functional; every data memory access performed by a step is recorded in
``hart.accesses`` so the caching/timing layers above can classify it.

Executors live in the module-level ``EXEC`` dispatch table.  Those of
the scalar compute, load/store and branch instructions are derived from
the rows of :mod:`repro.spike.semantics` (the translator derives its
emitted source from the same rows); the effectful rest — jumps, system,
CSR, atomics — are registered here via the :func:`executor` decorator,
and :mod:`repro.spike.vector` adds the vector ISA's: the memory and
configuration instructions on import, a vector row's when one is first
decoded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import csr as csrdef
from repro.isa.decoder import IllegalInstruction, Instruction, decode
from repro.isa.vtype import VType
from repro.soc.memory import SparseMemory
from repro.spike.semantics import (
    BRANCHES,
    COMPUTE,
    FN,
    LOADS,
    STORES,
    bits_to_f32,
    bits_to_f64,
    f32_to_bits,
    f64_to_bits,
)
from repro.utils.bitops import MASK64, sign_extend

DEFAULT_VLEN_BITS = 512


class Trap(Exception):
    """Base class for architectural traps."""

    def __init__(self, cause: str, pc: int):
        self.cause = cause
        self.pc = pc
        super().__init__(f"{cause} at pc={pc:#x}")


class EnvironmentCall(Trap):
    """Raised by ``ecall`` (bare-metal mode has no syscall handler)."""

    def __init__(self, pc: int):
        super().__init__("environment call", pc)


class Breakpoint(Trap):
    """Raised by ``ebreak``."""

    def __init__(self, pc: int):
        super().__init__("breakpoint", pc)


class IllegalInstructionTrap(Trap):
    """Raised when execution reaches an undecodable or unsupported word."""

    def __init__(self, pc: int, word: int):
        self.word = word
        super().__init__(f"illegal instruction {word:#010x}", pc)


class StoreAccessFault(Trap):
    """Raised by a store into a read-only page, before it writes a byte
    (RISC-V store/AMO access fault, ``mcause`` 7)."""

    mcause = 7

    def __init__(self, pc: int, address: int):
        self.address = address
        super().__init__(f"store access fault at {address:#x}", pc)


@dataclass(frozen=True)
class MemAccess:
    """One data memory access performed by an instruction."""

    address: int
    size: int
    is_write: bool


class CodeCacheRegistry:
    """What one machine derives from its code bytes, and its invalidation.

    ``decoded`` (pc -> ``(Instruction, executor)``) and ``plans``
    (``(pc, shape)`` -> a translated block's plan) are read by every
    hart and translator of the machine, and never pickled; a translator
    keeps only the closures bound to its core, and registers in
    ``caches``.  A store into a page *any* hart decoded from must drop
    the derived state everywhere — not only on ``fence.i``.  ``pages``
    holds every page number known to contain decoded code; the hart
    store helpers consult it with a single set membership test, so
    programs that never write near their code pay one ``in`` check per
    store and nothing else.
    """

    def __init__(self):
        self.pages: set[int] = set()
        # Translation caches; each exposes invalidate_range()/drop_all().
        self.caches: list = []
        self.drop()

    def register_cache(self, cache) -> None:
        self.caches.append(cache)

    def drop(self) -> None:
        """Forget every decoded instruction and block plan."""
        self.decoded: dict[int, tuple[Instruction, object]] = {}
        # (pc, shape) -> (instrs, factory, ender, last byte read)
        self.plans: dict[tuple, tuple] = {}

    def note_store(self, address: int, size: int) -> None:
        """A store touched a known code page: drop overlapping entries.

        Any 4-byte instruction slot overlapping ``[address, address +
        size)`` starts at a pc in ``[address - 3, address + size - 1]``,
        so that range bounds the decode-cache sweep and the plan and
        translated-block overlap tests.
        """
        lo = address - 3
        hi = address + size - 1
        decoded = self.decoded
        for pc in range(lo, hi + 1):
            decoded.pop(pc, None)
        plans = self.plans
        for key in [key for key, plan in plans.items()
                    if key[0] <= hi and plan[3] >= lo]:
            del plans[key]
        for cache in self.caches:
            cache.invalidate_range(lo, hi)

    def __getstate__(self):
        return {"pages": self.pages, "caches": self.caches}

    def __setstate__(self, state):
        self.pages, self.caches = state["pages"], state["caches"]
        self.drop()


# The executor dispatch table: mnemonic -> callable(hart, instr).
EXEC: dict = {}

# Instruction word -> (Instruction, executor), shared by every hart and
# machine of the process: decoding is pure, so a word is decoded once,
# and nothing writes to an Instruction after ``decode``.  Full means
# start over; an illegal word is never held.
_DECODED: dict[int, tuple[Instruction, object]] = {}
_DECODED_MAX = 4096


def executor(*mnemonics: str):
    """Register a function as the executor for ``mnemonics``."""
    def register(fn):
        for mnemonic in mnemonics:
            if mnemonic in EXEC:
                raise RuntimeError(f"duplicate executor for {mnemonic}")
            EXEC[mnemonic] = fn
        return fn
    return register


class Hart:
    """Architectural state and functional execution for one core."""

    # The vector unit's element-access plan for the current vtype and
    # vl (repro.spike.vector.group_plan): derived state, dropped by
    # set_vl and never pickled.
    _vplan = None
    # The machine's read-only page set (``BareMetalMachine``), aliased
    # like ``_code_pages``; a hart built outside a machine has none.
    _readonly_pages: set[int] | frozenset = frozenset()

    def __init__(self, hart_id: int, memory: SparseMemory,
                 vlen_bits: int = DEFAULT_VLEN_BITS, reset_pc: int = 0,
                 code_registry: CodeCacheRegistry | None = None):
        if vlen_bits % 64 or vlen_bits < 64:
            raise ValueError(f"VLEN must be a multiple of 64: {vlen_bits}")
        self.hart_id = hart_id
        self.memory = memory
        self.vlen_bits = vlen_bits
        self.vlenb = vlen_bits // 8

        self.pc = reset_pc
        self.regs = [0] * 32
        self.fregs = [0.0] * 32
        self.vregs = [bytearray(self.vlenb) for _ in range(32)]
        self.vl = 0
        self.vtype = VType(vill=True)
        self.csrs: dict[int, int] = {}
        self.instret = 0
        self.reservation: int | None = None
        self.frm = 0

        # Populated by step(); consumed by the caching layer.
        self.accesses: list[MemAccess] = []
        # Cycle source injected by the orchestrator so rdcycle works;
        # None falls back to the retired-instruction count.  Kept a
        # plain (picklable) attribute so a whole hart can be
        # checkpointed with the rest of the simulation.
        self.cycle_source = None

        self._pc_next = 0
        # Code-derived state: the registry (decode cache included) is
        # shared by every hart of one machine; ``_code_pages`` aliases
        # its page set for the one-test store guard, and
        # ``_code_caches`` lists this hart's translation caches for
        # drop_code_caches().
        self.code_registry = (code_registry if code_registry is not None
                              else CodeCacheRegistry())
        self._code_pages = self.code_registry.pages
        self._code_caches: list = []

    # -- register helpers ---------------------------------------------------

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & MASK64

    # -- memory helpers (record every data access) --------------------------

    def load_int(self, address: int, size: int, signed: bool = False) -> int:
        self.accesses.append(MemAccess(address, size, False))
        value = self.memory.load_int(address, size)
        if signed:
            return sign_extend(value, 8 * size) & MASK64
        return value

    def check_store(self, address: int, size: int) -> None:
        """Raise :class:`StoreAccessFault` when ``[address, address +
        size)`` touches a read-only page."""
        pages = self._readonly_pages
        if pages and not pages.isdisjoint(
                range(address >> 12, ((address + size - 1) >> 12) + 1)):
            raise StoreAccessFault(self.pc, address)

    def store_int(self, address: int, value: int, size: int) -> None:
        self.check_store(address, size)
        self.accesses.append(MemAccess(address, size, True))
        self.memory.store_int(address, value, size)
        if (address >> 12) in self._code_pages \
                or ((address + size - 1) >> 12) in self._code_pages:
            self.code_registry.note_store(address, size)

    # -- CSR access ---------------------------------------------------------

    def read_csr(self, address: int) -> int:
        if address == csrdef.MHARTID:
            return self.hart_id
        if address in (csrdef.CYCLE, csrdef.MCYCLE, csrdef.TIME):
            source = self.cycle_source
            return (source() if source is not None else self.instret) \
                & MASK64
        if address in (csrdef.INSTRET, csrdef.MINSTRET):
            return self.instret & MASK64
        if address == csrdef.VL:
            return self.vl
        if address == csrdef.VTYPE:
            return self.vtype.encode()
        if address == csrdef.VLENB:
            return self.vlenb
        if address == csrdef.FRM:
            return self.frm
        return self.csrs.get(address, 0)

    def write_csr(self, address: int, value: int) -> None:
        if address in csrdef.READ_ONLY_CSRS:
            raise IllegalInstructionTrap(self.pc, 0)
        if address == csrdef.FRM:
            self.frm = value & 0b111
            return
        self.csrs[address] = value & MASK64

    # -- vector state -------------------------------------------------------

    def vlmax(self) -> int:
        return self.vtype.vlmax(self.vlen_bits)

    def set_vl(self, avl: int, vtype: VType) -> int:
        """Apply a vset{i}vl{i}; returns the new vl."""
        self.vtype = vtype
        self._vplan = None
        if vtype.vill:
            self.vl = 0
            return 0
        self.vl = min(avl, vtype.vlmax(self.vlen_bits))
        return self.vl

    # -- execution ----------------------------------------------------------

    def decode_at(self, pc: int) -> Instruction:
        """Decode (and cache) the instruction at ``pc`` without executing."""
        return self._decode_entry(pc)[0]

    def _decode_entry(self, pc: int) -> tuple[Instruction, object]:
        decoded = self.code_registry.decoded
        entry = decoded.get(pc)
        if entry is None:
            word = self.memory.load_int(pc, 4)
            entry = _DECODED.get(word)
            if entry is None:
                try:
                    instr = decode(word)
                except IllegalInstruction as exc:
                    raise IllegalInstructionTrap(pc, word) from exc
                # Everything decodable is executable: an executor
                # registered on import, or a vector row's, compiled on
                # first decode.
                entry = (instr, EXEC.get(instr.mnemonic)
                         or _vector.derive_executor(instr.mnemonic))
                if len(_DECODED) >= _DECODED_MAX:
                    _DECODED.clear()
                _DECODED[word] = entry
            decoded[pc] = entry
            pages = self._code_pages
            pages.add(pc >> 12)
            if (pc + 3) >> 12 != pc >> 12:
                pages.add((pc + 3) >> 12)
        return entry

    def drop_code_caches(self) -> None:
        """Drop every cache derived from code bytes for this hart.

        The single invalidation entry point: ``fence.i`` and checkpoint
        serialisation both route through here, clearing the machine's
        decode cache and block plans and this hart's translation caches
        so no stale executor — and no unpicklable compiled closure —
        can survive.
        """
        self.code_registry.drop()
        for cache in self._code_caches:
            cache.drop_all()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_vplan", None)
        return state

    def step(self) -> Instruction:
        """Execute one instruction; returns the decoded instruction.

        ``hart.accesses`` afterwards holds the data accesses performed.
        Raises a :class:`Trap` subclass for ecall/ebreak/illegal.
        """
        pc = self.pc
        instr, fn = self._decode_entry(pc)
        self.accesses.clear()
        self._pc_next = pc + 4
        fn(self, instr)
        self.pc = self._pc_next
        self.instret += 1
        return instr


# ---------------------------------------------------------------------------
# Executors derived from the semantics table
# ---------------------------------------------------------------------------

_READ = {"x": "hart.regs[instr.%s]", "f": "hart.fregs[instr.%s]",
         None: "instr.%s"}


def _derive_compute_executors() -> None:
    """One generic handler per operand form, bound to each row's function.

    A handler only routes operands: it reads what the form names, applies
    the row's function and stores the value, which the row already
    yields as stored.  The handler factories are compiled together, once.
    """
    binders: dict = {}  # form -> name of its handler factory
    lines = []
    for form in (row.form for row in COMPUTE.values()):
        if form in binders:
            continue
        binders[form] = f"bind{len(binders)}"
        args = ", ".join(
            "hart.pc" if field == "pc" else _READ[file] % field
            for _name, file, field in form.operands)
        lines += [f"def {binders[form]}(fn):",
                  "    def handler(hart, instr):"]
        if form.dest == "x":
            lines += ["        if instr.rd:",
                      f"            hart.regs[instr.rd] = fn({args})"]
        else:
            lines += [f"        hart.fregs[instr.rd] = fn({args})"]
        lines += ["    return handler"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<scalar executors>", "exec"), namespace)
    for mnemonic, row in COMPUTE.items():
        executor(mnemonic)(namespace[binders[row.form]](FN[mnemonic]))


_derive_compute_executors()


@executor(*BRANCHES)
def _branch(hart: Hart, instr: Instruction) -> None:
    if FN[instr.mnemonic](hart.regs[instr.rs1], hart.regs[instr.rs2]):
        hart._pc_next = (hart.pc + instr.imm) & MASK64


_FROM_BITS = {4: bits_to_f32, 8: bits_to_f64}
_TO_BITS = {4: f32_to_bits, 8: f64_to_bits}


@executor(*LOADS)
def _load(hart: Hart, instr: Instruction) -> None:
    size, signed, file = LOADS[instr.mnemonic]
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    value = hart.load_int(address, size, signed)
    if file == "x":
        hart.write_reg(instr.rd, value)
    else:
        hart.fregs[instr.rd] = _FROM_BITS[size](value)


@executor(*STORES)
def _store(hart: Hart, instr: Instruction) -> None:
    size, file = STORES[instr.mnemonic]
    address = (hart.regs[instr.rs1] + instr.imm) & MASK64
    value = hart.regs[instr.rs2] if file == "x" \
        else _TO_BITS[size](hart.fregs[instr.rs2])
    hart.store_int(address, value, size)


# ---------------------------------------------------------------------------
# Jumps
# ---------------------------------------------------------------------------

@executor("jal")
def _jal(hart: Hart, instr: Instruction) -> None:
    hart.write_reg(instr.rd, hart.pc + 4)
    hart._pc_next = (hart.pc + instr.imm) & MASK64


@executor("jalr")
def _jalr(hart: Hart, instr: Instruction) -> None:
    target = (hart.regs[instr.rs1] + instr.imm) & ~1 & MASK64
    hart.write_reg(instr.rd, hart.pc + 4)
    hart._pc_next = target


# ---------------------------------------------------------------------------
# System executors
# ---------------------------------------------------------------------------

@executor("ecall")
def _ecall(hart: Hart, instr: Instruction) -> None:
    raise EnvironmentCall(hart.pc)


@executor("ebreak")
def _ebreak(hart: Hart, instr: Instruction) -> None:
    raise Breakpoint(hart.pc)


@executor("fence")
def _fence(hart: Hart, instr: Instruction) -> None:
    return None


@executor("fence.i")
def _fence_i(hart: Hart, instr: Instruction) -> None:
    hart.drop_code_caches()


@executor("wfi")
def _wfi(hart: Hart, instr: Instruction) -> None:
    return None


@executor("mret")
def _mret(hart: Hart, instr: Instruction) -> None:
    hart._pc_next = hart.read_csr(csrdef.MEPC)


@executor("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci")
def _csr(hart: Hart, instr: Instruction) -> None:
    mnemonic = instr.mnemonic
    old = hart.read_csr(instr.csr)
    operand = instr.imm if mnemonic.endswith("i") else hart.regs[instr.rs1]
    if mnemonic.startswith("csrrw"):
        hart.write_csr(instr.csr, operand)
    elif mnemonic.startswith("csrrs"):
        if operand:
            hart.write_csr(instr.csr, old | operand)
    else:  # csrrc
        if operand:
            hart.write_csr(instr.csr, old & ~operand)
    hart.write_reg(instr.rd, old)


# ---------------------------------------------------------------------------
# Atomics
# ---------------------------------------------------------------------------

def _amo_size(mnemonic: str) -> int:
    return 4 if mnemonic.endswith(".w") else 8


@executor("lr.w", "lr.d")
def _lr(hart: Hart, instr: Instruction) -> None:
    size = _amo_size(instr.mnemonic)
    address = hart.regs[instr.rs1]
    hart.reservation = address
    hart.write_reg(instr.rd, hart.load_int(address, size, signed=True))


@executor("sc.w", "sc.d")
def _sc(hart: Hart, instr: Instruction) -> None:
    size = _amo_size(instr.mnemonic)
    address = hart.regs[instr.rs1]
    if hart.reservation == address:
        hart.store_int(address, hart.regs[instr.rs2], size)
        hart.write_reg(instr.rd, 0)
    else:
        hart.write_reg(instr.rd, 1)
    hart.reservation = None


# base -> (new memory value from (old, operand), compare them as signed)
_AMO = {
    "amoswap": (lambda old, val: val, False),
    "amoadd": (lambda old, val: old + val, False),
    "amoxor": (lambda old, val: old ^ val, False),
    "amoand": (lambda old, val: old & val, False),
    "amoor": (lambda old, val: old | val, False),
    "amomin": (min, True),
    "amomax": (max, True),
    "amominu": (min, False),
    "amomaxu": (max, False),
}


@executor(*[f"{base}.{sz}" for base in _AMO for sz in ("w", "d")])
def _amo(hart: Hart, instr: Instruction) -> None:
    combine, signed = _AMO[instr.mnemonic.rpartition(".")[0]]
    size = _amo_size(instr.mnemonic)
    width = 8 * size
    address = hart.regs[instr.rs1]
    old = hart.load_int(address, size)
    value = hart.regs[instr.rs2] & ((1 << width) - 1)
    if signed:
        result = combine(sign_extend(old, width), sign_extend(value, width))
    else:
        result = combine(old, value)
    hart.store_int(address, result, size)
    hart.write_reg(instr.rd, sign_extend(old, width))


# The vector executors register into EXEC, some on import, the rows'
# on first decode (vector.derive_executor).
from repro.spike import vector as _vector  # noqa: E402,F401
