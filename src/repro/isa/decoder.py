"""RV64IMAFD + RVV-subset instruction decoder.

``decode(word)`` turns a 32-bit instruction word into an :class:`Instruction`
carrying the mnemonic, operand fields, and the source/destination register
sets the simulator's RAW-dependency scoreboard needs.  Decoding is pure and
deterministic, so callers (the ISS) memoise decoded words per address.

Nothing here knows an encoding: the word is looked up among the rows of
:mod:`repro.isa.encoding` and the instruction is filled from the row —
each operand kind reads its field into its slot and, when it names a
register, lists it as read or written; the row's class sets the ``is_*``
flags.  A word no row matches is an :class:`IllegalInstruction`.

Register operands in ``srcs``/``dests`` are ``(regclass, index)`` pairs with
regclass one of ``"x"`` (integer), ``"f"`` (FP), ``"v"`` (vector).
"""

from __future__ import annotations

from repro.isa.encoding import ENCODINGS
from repro.isa.fields import VMEM_WIDTH_TO_EEW, vmem_mop, vmem_width


class IllegalInstruction(Exception):
    """Raised when a word does not decode to a supported instruction."""

    def __init__(self, word: int, reason: str = "unsupported encoding"):
        self.word = word
        super().__init__(f"illegal instruction {word:#010x}: {reason}")


class Instruction:
    """A decoded instruction.

    Operand fields not used by a given mnemonic are left at their default.
    ``srcs`` and ``dests`` list architectural registers read/written, used by
    the RAW scoreboard; ``x0`` is never listed (reads of it cannot stall and
    writes to it are discarded).
    """

    __slots__ = (
        "word", "mnemonic", "rd", "rs1", "rs2", "rs3", "imm", "csr",
        "shamt", "vm", "eew", "mop", "nf", "srcs", "dests", "all_regs",
        "is_load", "is_store", "is_branch", "is_jump", "is_amo",
        "is_vector", "is_vector_mem", "is_fp", "is_system",
        "is_control",
    )

    def __init__(self, word: int, mnemonic: str):
        self.word = word
        self.mnemonic = mnemonic
        self.rd = self.rs1 = self.rs2 = self.rs3 = 0
        self.imm = self.csr = self.shamt = 0
        self.vm = 1
        self.eew = self.mop = self.nf = 0
        self.srcs = self.dests = self.all_regs = ()
        self.is_load = self.is_store = self.is_branch = self.is_jump = False
        self.is_amo = self.is_vector = self.is_vector_mem = False
        self.is_fp = self.is_system = self.is_control = False

    def __repr__(self) -> str:
        return f"<Instruction {self.mnemonic} word={self.word:#010x}>"


# major opcode -> mask -> masked match -> (mnemonic, row).  An opcode's
# rows use a handful of masks, so a lookup is a few dictionary probes.
_INDEX: dict[int, dict[int, dict[int, tuple]]] = {}
for _mnemonic, _row in ENCODINGS.items():
    _INDEX.setdefault(_row.match & 0x7F, {}).setdefault(_row.mask, {})[
        _row.match & _row.mask] = (_mnemonic, _row)


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word; raises :class:`IllegalInstruction`."""
    word &= 0xFFFF_FFFF
    for mask, rows in _INDEX.get(word & 0x7F, {}).items():
        if word & mask in rows:
            mnemonic, row = rows[word & mask]
            break
    else:
        raise IllegalInstruction(word)
    instr = Instruction(word, mnemonic)
    srcs, dests = [], []
    for kind in row.fields:
        value = kind.get(word)
        setattr(instr, kind.slot, value)
        if kind.access and (value or kind.syntax != "x"):
            if "r" in kind.access:
                srcs.append((kind.syntax, value))
            if "w" in kind.access:
                dests.append((kind.syntax, value))
    if not instr.vm:  # masked, or a merge: v0 is read
        srcs.append(("v", 0))
    instr.srcs, instr.dests = tuple(srcs), tuple(dests)
    # Precomputed union used by the per-cycle RAW/WAW check.
    instr.all_regs = instr.srcs + instr.dests
    for flag in row.flags:
        setattr(instr, flag, True)
    if instr.is_vector_mem:
        instr.eew = VMEM_WIDTH_TO_EEW[vmem_width(word)]
        instr.mop = vmem_mop(word)
    # May this instruction redirect (or fence) control flow?  Basic-block
    # formation in the translated fast path ends a block here; system
    # instructions count because they can trap or change pc (mret) and
    # must run in the interpreter.
    instr.is_control = instr.is_branch or instr.is_jump or instr.is_system
    return instr
