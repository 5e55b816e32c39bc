"""Pseudo-instruction expansion.

``expand(mnemonic, operands, resolve_const)`` rewrites one assembler
statement into a list of concrete ``(mnemonic, operands)`` pairs.  The
expansion length must be known in pass 1, so ``li`` evaluates its constant
eagerly via ``resolve_const`` (which only sees ``.equ`` constants, not
labels); address materialisation uses ``la``, whose expansion length is
fixed at two instructions.
"""

from __future__ import annotations

from typing import Callable

from repro.utils.bitops import sign_extend

Expansion = list[tuple[str, list[str]]]


class PseudoError(Exception):
    """Raised when a pseudo-instruction cannot be expanded."""


def li_sequence(rd: str, value: int) -> Expansion:
    """Materialise a 64-bit constant using lui/addiw/slli/addi.

    The returned sequence is minimal for 12-bit and 32-bit constants and at
    most eight instructions for arbitrary 64-bit values.
    """
    value = sign_extend(value & 0xFFFF_FFFF_FFFF_FFFF, 64)
    if -2048 <= value < 2048:
        return [("addi", [rd, "zero", str(value)])]
    if -(1 << 31) <= value < (1 << 31):
        hi = (value + 0x800) >> 12
        lo = value - (hi << 12)
        sequence: Expansion = [("lui", [rd, str(hi & 0xFFFFF)])]
        if lo:
            sequence.append(("addiw", [rd, rd, str(lo)]))
        return sequence
    lo12 = sign_extend(value & 0xFFF, 12)
    rest = (value - lo12) >> 12
    sequence = li_sequence(rd, rest)
    sequence.append(("slli", [rd, rd, "12"]))
    if lo12:
        sequence.append(("addi", [rd, rd, str(lo12)]))
    return sequence


def _one(mnemonic: str, *operands: str) -> Expansion:
    return [(mnemonic, list(operands))]


_BRANCH_ZERO = {
    "beqz": ("beq", False), "bnez": ("bne", False),
    "bgez": ("bge", False), "bltz": ("blt", False),
    "blez": ("bge", True), "bgtz": ("blt", True),
}

_BRANCH_SWAP = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}

_FP_MOVES = {
    "fmv.d": "fsgnj.d", "fabs.d": "fsgnjx.d", "fneg.d": "fsgnjn.d",
    "fmv.s": "fsgnj.s", "fabs.s": "fsgnjx.s", "fneg.s": "fsgnjn.s",
}

PSEUDO_MNEMONICS = frozenset(
    {"nop", "li", "la", "mv", "not", "neg", "negw", "sext.w", "seqz", "snez",
     "sltz", "sgtz", "j", "jr", "ret", "call", "tail", "csrr", "csrw",
     "csrs", "csrc", "csrwi", "csrsi", "csrci", "rdcycle", "rdinstret",
     "rdtime"}
    | set(_BRANCH_ZERO) | set(_BRANCH_SWAP) | set(_FP_MOVES))


def is_pseudo(mnemonic: str) -> bool:
    """True when ``mnemonic`` is expanded rather than directly encoded."""
    return mnemonic in PSEUDO_MNEMONICS


def expand(mnemonic: str, operands: list[str],
           resolve_const: Callable[[str], int]) -> Expansion:
    """Expand one pseudo-instruction; raises :class:`PseudoError`."""

    def need(count: int) -> None:
        if len(operands) != count:
            raise PseudoError(
                f"{mnemonic} expects {count} operands, got {len(operands)}")

    if mnemonic == "nop":
        need(0)
        return _one("addi", "zero", "zero", "0")
    if mnemonic == "li":
        need(2)
        try:
            value = resolve_const(operands[1])
        except Exception as exc:
            raise PseudoError(
                f"li operand must be a constant expression "
                f"(use 'la' for addresses): {exc}") from exc
        return li_sequence(operands[0], value)
    if mnemonic == "la":
        need(2)
        return [("la.hi", [operands[0], operands[1]]),
                ("la.lo", [operands[0], operands[1]])]
    if mnemonic == "mv":
        need(2)
        return _one("addi", operands[0], operands[1], "0")
    if mnemonic == "not":
        need(2)
        return _one("xori", operands[0], operands[1], "-1")
    if mnemonic == "neg":
        need(2)
        return _one("sub", operands[0], "zero", operands[1])
    if mnemonic == "negw":
        need(2)
        return _one("subw", operands[0], "zero", operands[1])
    if mnemonic == "sext.w":
        need(2)
        return _one("addiw", operands[0], operands[1], "0")
    if mnemonic == "seqz":
        need(2)
        return _one("sltiu", operands[0], operands[1], "1")
    if mnemonic == "snez":
        need(2)
        return _one("sltu", operands[0], "zero", operands[1])
    if mnemonic == "sltz":
        need(2)
        return _one("slt", operands[0], operands[1], "zero")
    if mnemonic == "sgtz":
        need(2)
        return _one("slt", operands[0], "zero", operands[1])
    if mnemonic in _BRANCH_ZERO:
        need(2)
        real, swapped = _BRANCH_ZERO[mnemonic]
        if swapped:
            return _one(real, "zero", operands[0], operands[1])
        return _one(real, operands[0], "zero", operands[1])
    if mnemonic in _BRANCH_SWAP:
        need(3)
        return _one(_BRANCH_SWAP[mnemonic], operands[1], operands[0],
                    operands[2])
    if mnemonic == "j":
        need(1)
        return _one("jal", "zero", operands[0])
    if mnemonic == "jr":
        need(1)
        return _one("jalr", "zero", f"0({operands[0]})")
    if mnemonic == "ret":
        need(0)
        return _one("jalr", "zero", "0(ra)")
    if mnemonic == "call":
        need(1)
        return _one("jal", "ra", operands[0])
    if mnemonic == "tail":
        need(1)
        return _one("jal", "zero", operands[0])
    if mnemonic in _FP_MOVES:
        need(2)
        return _one(_FP_MOVES[mnemonic], operands[0], operands[1],
                    operands[1])
    if mnemonic == "csrr":
        need(2)
        return _one("csrrs", operands[0], operands[1], "zero")
    if mnemonic == "csrw":
        need(2)
        return _one("csrrw", "zero", operands[0], operands[1])
    if mnemonic == "csrs":
        need(2)
        return _one("csrrs", "zero", operands[0], operands[1])
    if mnemonic == "csrc":
        need(2)
        return _one("csrrc", "zero", operands[0], operands[1])
    if mnemonic == "csrwi":
        need(2)
        return _one("csrrwi", "zero", operands[0], operands[1])
    if mnemonic == "csrsi":
        need(2)
        return _one("csrrsi", "zero", operands[0], operands[1])
    if mnemonic == "csrci":
        need(2)
        return _one("csrrci", "zero", operands[0], operands[1])
    if mnemonic == "rdcycle":
        need(1)
        return _one("csrrs", operands[0], "cycle", "zero")
    if mnemonic == "rdinstret":
        need(1)
        return _one("csrrs", operands[0], "instret", "zero")
    if mnemonic == "rdtime":
        need(1)
        return _one("csrrs", operands[0], "time", "zero")
    raise PseudoError(f"unknown pseudo-instruction {mnemonic!r}")
