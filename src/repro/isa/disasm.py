"""A compact disassembler for decoded instructions.

``disassemble`` prints the operands of the instruction's row in
:mod:`repro.isa.encoding`, in the row's (assembly) order, each by its
kind.  The text is what the assembler parses: re-encoding it gives back
the canonical word of the instruction, for every instruction.  CSR and
vtype operands are printed symbolically where a spelling exists and as
the number otherwise.  It is used for debugging, trace annotation and the
round-trip tests against the assembler.
"""

from __future__ import annotations

from repro.isa.csr import CSR_BY_NAME, csr_name
from repro.isa.decoder import Instruction, decode
from repro.isa.encoding import ENCODINGS, Mem
from repro.isa.registers import fp_reg_name, int_reg_name, vec_reg_name
from repro.isa.vtype import VType


def _csr(address: int) -> str:
    name = csr_name(address)
    return name if name in CSR_BY_NAME else f"{address:#x}"


def _vtype(zimm: int) -> str:
    vtype = VType.decode(zimm)
    return f"{zimm:#x}" if vtype.vill else vtype.describe()


# Kind.syntax -> text of a slot value ("" for an operand left out).
_SPELL = {
    "x": int_reg_name, "f": fp_reg_name, "v": vec_reg_name,
    "int": str, "target": str,
    "upper": lambda imm: f"{imm >> 12 & 0xFFFFF:#x}",
    "csr": _csr, "vtype": _vtype,
    "v0.t": lambda vm: "" if vm else "v0.t",
    "v0": lambda vm: "v0",
}


def disassemble(instr: Instruction) -> str:
    """Render a decoded instruction as assembly text."""
    parts = []
    for operand in ENCODINGS[instr.mnemonic].operands:
        if isinstance(operand, Mem):
            offset, base = operand
            offset = "" if offset is None else getattr(instr, offset.slot)
            parts.append(
                f"{offset}({int_reg_name(getattr(instr, base.slot))})")
        else:
            parts.append(_SPELL[operand.syntax](getattr(instr, operand.slot)))
    return f"{instr.mnemonic} {', '.join(filter(None, parts))}".rstrip()


def disassemble_word(word: int) -> str:
    """Decode and render a raw instruction word."""
    return disassemble(decode(word))
