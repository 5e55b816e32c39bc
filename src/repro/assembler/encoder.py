"""Mnemonic-level instruction encoding.

``encode(mnemonic, operands, ctx)`` turns a parsed statement into a 32-bit
word.  The :class:`EncodeContext` supplies the statement's address (for
PC-relative operands) and an expression resolver bound to the symbol table.

Which operands a mnemonic takes and where they go is read off its row in
:mod:`repro.isa.encoding` — the table the decoder and the disassembler are
derived from as well: each operand is parsed by its kind, range-checked
and ORed into the row's ``match``.  Only what is not an ISA encoding lives
here: splitting ``offset(base)``, making a branch target PC-relative, and
the two halves of ``la``, whose operand is a symbol to be split into an
``auipc``/``addi`` pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.isa import opcodes as op
from repro.isa.csr import parse_csr
from repro.isa.encoding import ENCODINGS, Mem, Row
from repro.isa.fields import encode_i, encode_u
from repro.isa.registers import parse_fp_reg, parse_int_reg, parse_vec_reg
from repro.isa.vtype import parse_vtype_tokens


class EncodeError(Exception):
    """Raised when a statement cannot be encoded."""


@dataclass
class EncodeContext:
    """Per-statement encoding context."""

    pc: int
    resolve: Callable[[str], int]


_MEM_OPERAND_RE = re.compile(r"^(?P<offset>.*?)\((?P<base>[^()]+)\)$")


def parse_mem_operand(token: str, ctx: EncodeContext) -> tuple[int, int]:
    """Parse ``offset(base)`` into ``(offset, base_reg)``."""
    match = _MEM_OPERAND_RE.match(token.strip())
    if not match:
        raise EncodeError(f"expected mem operand 'offset(base)', got {token!r}")
    offset_text = match.group("offset").strip()
    offset = ctx.resolve(offset_text) if offset_text else 0
    return offset, parse_int_reg(match.group("base").strip())


def _literal_v0(token: str, ctx: EncodeContext) -> int:
    if token.lower() != "v0":
        raise ValueError(f"mask operand must be v0, got {token!r}")
    return 0


# Kind.syntax -> value of one operand token.
_PARSE = {
    "x": lambda token, ctx: parse_int_reg(token),
    "f": lambda token, ctx: parse_fp_reg(token),
    "v": lambda token, ctx: parse_vec_reg(token),
    "int": lambda token, ctx: ctx.resolve(token),
    "upper": lambda token, ctx: ctx.resolve(token),
    # A branch or jump names its target; the word holds the distance.
    "target": lambda token, ctx: ctx.resolve(token) - ctx.pc,
    "csr": lambda token, ctx: parse_csr(token),
    "v0": _literal_v0,
}


def _vtype(tokens: list[str], ctx: EncodeContext) -> int:
    """``e32, m2, ta, ma`` — or the immediate itself, as one number."""
    if len(tokens) == 1 and tokens[0][:1].isdigit():
        return ctx.resolve(tokens[0])
    return parse_vtype_tokens(tokens).encode()


def _encode_row(mnemonic: str, row: Row, operands: list[str],
                ctx: EncodeContext) -> int:
    tokens = [token.strip() for token in operands]

    def take() -> str:
        if not tokens:
            raise EncodeError(f"{mnemonic} expects {len(row.operands)} "
                              f"operands, got {len(operands)}")
        return tokens.pop(0)

    word = row.match
    for operand in row.operands:
        if isinstance(operand, Mem):
            offset, base = parse_mem_operand(take(), ctx)
            word |= operand.base.put(base)
            if operand.offset is not None:
                word |= operand.offset.put(offset)
            elif offset:
                raise EncodeError(f"{mnemonic}: the address operand takes "
                                  f"no offset (got {offset})")
        elif operand.syntax == "v0.t":  # optional: absent means unmasked
            masked = bool(tokens) and tokens[0].lower() == "v0.t"
            word |= operand.put(0 if masked else 1)
            if masked:
                tokens.pop(0)
        elif operand.syntax == "vtype":  # takes every remaining token
            word |= operand.put(_vtype(tokens, ctx))
            tokens.clear()
        else:
            word |= operand.put(_PARSE[operand.syntax](take(), ctx))
    if tokens:
        raise EncodeError(f"{mnemonic}: unexpected operand {tokens[0]!r}")
    return word


def _la_hi(operands: list[str], ctx: EncodeContext) -> int:
    """The AUIPC half of a ``la`` expansion."""
    reg, symbol = operands
    delta = ctx.resolve(symbol) - ctx.pc
    return encode_u(op.AUIPC, parse_int_reg(reg), (delta + 0x800) >> 12)


def _la_lo(operands: list[str], ctx: EncodeContext) -> int:
    """The ADDI half of a ``la`` expansion (its auipc is at pc - 4)."""
    reg, symbol = operands
    delta = ctx.resolve(symbol) - (ctx.pc - 4)
    lo = delta - ((delta + 0x800) >> 12 << 12)
    return encode_i(op.OP_IMM, parse_int_reg(reg), 0, parse_int_reg(reg), lo)


# Emitted by the ``la`` pseudo-instruction only; relocations, not ISA rows.
_RELOCATIONS = {"la.hi": _la_hi, "la.lo": _la_lo}


def supported_mnemonics() -> frozenset[str]:
    """All directly encodable (non-pseudo) mnemonics."""
    return frozenset(ENCODINGS) | frozenset(_RELOCATIONS)


def encode(mnemonic: str, operands: list[str], ctx: EncodeContext) -> int:
    """Encode one concrete (non-pseudo) instruction to a 32-bit word."""
    try:
        if mnemonic in _RELOCATIONS:
            return _RELOCATIONS[mnemonic](operands, ctx)
        row = ENCODINGS.get(mnemonic)
        if row is None:
            raise EncodeError(f"unknown mnemonic {mnemonic!r}")
        # ``jal label`` and ``jalr rs`` link through ra.
        if mnemonic == "jal" and len(operands) == 1:
            operands = ["ra", *operands]
        elif mnemonic == "jalr" and len(operands) == 1:
            operands = ["ra", f"0({operands[0]})"]
        return _encode_row(mnemonic, row, operands, ctx)
    except ValueError as exc:
        raise EncodeError(f"{mnemonic}: {exc}") from exc
