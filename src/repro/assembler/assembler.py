"""The two-pass assembler driver.

Pass 1 tokenises, expands pseudo-instructions, lays out sections and
collects the symbol table; pass 2 resolves expressions and encodes.  The
result is a :class:`~repro.assembler.program.Program` ready to be loaded
into simulated memory.

Supported directives: ``.text .data .section .globl .global .align
.balign .byte .half .short .word .long .dword .quad .float .double
.zero .space .ascii .asciz .string .equ .set``.

Directives are the input language of hand-written sources.  Generated
data (a kernel's numpy arrays) does not go through text at all: it is
handed over as :class:`DataBlock` bytes and laid out in ``.data`` after
whatever the source put there.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.assembler.encoder import EncodeContext, EncodeError, encode
from repro.assembler.expr import ExprError, evaluate
from repro.assembler.lexer import (
    AsmSyntaxError,
    Statement,
    tokenize,
    unescape_string,
)
from repro.assembler.program import DEFAULT_TEXT_BASE, Program, Segment
from repro.assembler.pseudo import PseudoError, expand, is_pseudo
from repro.utils.bitops import align_up, is_power_of_two

_DATA_SIZES = {
    ".byte": 1, ".half": 2, ".short": 2, ".word": 4, ".long": 4,
    ".dword": 8, ".quad": 8,
}
_FLOAT_SIZES = {".float": 4, ".double": 8}


@dataclass(frozen=True)
class DataBlock:
    """Initialised ``.data`` bytes under a symbol, ``align``-aligned."""

    symbol: str
    payload: bytes
    align: int = 8


@dataclass
class _PendingInstruction:
    offset: int            # section-relative
    mnemonic: str
    operands: list[str]
    statement: Statement


@dataclass
class _PendingData:
    offset: int
    size: int
    expressions: list[str]
    statement: Statement
    kind: str = "int"       # "int", "float", or "bytes"
    raw: bytes = b""


@dataclass
class _Section:
    name: str
    cursor: int = 0
    instructions: list[_PendingInstruction] = field(default_factory=list)
    data_items: list[_PendingData] = field(default_factory=list)
    base: int = 0


class Assembler:
    """Assemble RISC-V source text into a loadable :class:`Program`."""

    def __init__(self, text_base: int = DEFAULT_TEXT_BASE,
                 data_base: int | None = None):
        self._text_base = text_base
        self._data_base = data_base
        self._constants: dict[str, int] = {}
        self._symbols: dict[str, int] = {}
        self._globals: set[str] = set()
        self._section_of: dict[str, str] = {}

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str,
                 data: Sequence[DataBlock] = ()) -> Program:
        """Run both passes over ``source`` and return the program image;
        the ``data`` blocks follow the source's own ``.data`` in order."""
        sections = self._pass_one(tokenize(source))
        data_section = sections[1]
        for block in data:
            where = Statement(0, f"data block {block.symbol!r}")
            self._align(data_section, block.align, where)
            self._define_label(block.symbol, data_section,
                               data_section.cursor, where)
            self._add_bytes(data_section, block.payload, where)
        self._layout(sections)
        return self._pass_two(sections)

    # -- pass 1: layout -----------------------------------------------------

    def _pass_one(self, statements: list[Statement]) -> list[_Section]:
        text = _Section("text")
        data = _Section("data")
        sections = {"text": text, "data": data}
        current = text
        pending_labels: list[tuple[str, _Section, Statement]] = []

        for statement in statements:
            if statement.label is not None:
                pending_labels.append((statement.label, current, statement))
                continue
            mnemonic = statement.mnemonic
            assert mnemonic is not None
            if mnemonic.startswith("."):
                current = self._directive_pass_one(
                    statement, current, sections, pending_labels)
                continue
            self._bind_labels(pending_labels)
            self._add_instruction(statement, current)

        self._bind_labels(pending_labels)   # at end of file: section end
        return [text, data]

    def _bind_labels(self, pending) -> None:
        """Bind labels to the cursor of the section they were written in
        (a section switch binds first, so that is the current one)."""
        for name, section, stmt in pending:
            self._define_label(name, section, section.cursor, stmt)
        pending.clear()

    def _define_label(self, name: str, section: _Section, offset: int,
                      statement: Statement) -> None:
        if name in self._symbols or name in self._constants:
            raise AsmSyntaxError(f"duplicate symbol {name!r}",
                                 statement.line_number, statement.source)
        # Store section-relative for now; fixed up in _layout.
        self._symbols[name] = offset
        self._section_of[name] = section.name

    @staticmethod
    def _add_bytes(section: _Section, raw: bytes,
                   statement: Statement) -> None:
        section.data_items.append(_PendingData(
            section.cursor, len(raw), [], statement, kind="bytes", raw=raw))
        section.cursor += len(raw)

    def _align(self, section: _Section, alignment: int,
               statement: Statement) -> None:
        if not is_power_of_two(alignment):
            raise AsmSyntaxError(f"bad alignment {alignment}",
                                 statement.line_number, statement.source)
        self._add_bytes(section, bytes(-section.cursor % alignment),
                        statement)

    def _add_instruction(self, statement: Statement,
                         section: _Section) -> None:
        if section.name != "text":
            raise AsmSyntaxError("instructions outside .text",
                                 statement.line_number, statement.source)
        mnemonic = statement.mnemonic
        operands = statement.operands
        if is_pseudo(mnemonic):
            try:
                expansion = expand(mnemonic, operands, self._resolve_const)
            except PseudoError as exc:
                raise AsmSyntaxError(str(exc), statement.line_number,
                                     statement.source) from exc
        else:
            expansion = [(mnemonic, operands)]
        for real_mnemonic, real_operands in expansion:
            section.instructions.append(
                _PendingInstruction(section.cursor, real_mnemonic,
                                    list(real_operands), statement))
            section.cursor += 4

    def _directive_pass_one(self, statement: Statement, current: _Section,
                            sections: dict[str, _Section],
                            pending_labels) -> _Section:
        name = statement.mnemonic
        operands = statement.operands

        target = operands[0] if name == ".section" and operands else name
        if (target := target.lstrip(".")) in sections:
            self._bind_labels(pending_labels)
            return sections[target]
        if name in (".globl", ".global"):
            self._globals.update(operands)
            return current
        if name in (".equ", ".set"):
            if len(operands) != 2:
                raise AsmSyntaxError(f"{name} expects name, value",
                                     statement.line_number, statement.source)
            self._constants[operands[0]] = self._resolve_const(operands[1])
            return current

        # Everything below emits bytes: bind labels first.
        self._bind_labels(pending_labels)

        if name in (".align", ".balign", ".p2align"):
            amount = self._count(statement)
            self._align(current, amount if name == ".balign"
                        else (1 << amount), statement)
            return current
        if name in _DATA_SIZES:
            size = _DATA_SIZES[name]
            current.data_items.append(_PendingData(
                current.cursor, size * len(operands), list(operands),
                statement, kind="int"))
            current.cursor += size * len(operands)
            return current
        if name in _FLOAT_SIZES:
            size = _FLOAT_SIZES[name]
            current.data_items.append(_PendingData(
                current.cursor, size * len(operands), list(operands),
                statement, kind="float"))
            current.cursor += size * len(operands)
            return current
        if name in (".zero", ".space"):
            self._add_bytes(current, bytes(self._count(statement)),
                            statement)
            return current
        if name in (".ascii", ".asciz", ".string"):
            blob = b"".join(
                unescape_string(operand, statement.line_number)
                for operand in operands)
            if name in (".asciz", ".string"):
                blob += b"\x00"
            self._add_bytes(current, blob, statement)
            return current
        raise AsmSyntaxError(f"unknown directive {name!r}",
                             statement.line_number, statement.source)

    # -- layout -------------------------------------------------------------

    def _layout(self, sections: list[_Section]) -> None:
        text, data = sections
        text.base = self._text_base
        if self._data_base is not None:
            data.base = self._data_base
        else:
            data.base = align_up(text.base + text.cursor, 0x1000)
        text_end = text.base + text.cursor
        data_end = data.base + data.cursor
        if text.cursor and data.cursor \
                and data.base < text_end and data_end > text.base:
            raise AsmSyntaxError(
                f"data [{data.base:#x}, {data_end:#x}) overlaps text "
                f"[{text.base:#x}, {text_end:#x})")
        bases = {"text": text.base, "data": data.base}
        for name in list(self._symbols):
            section_name = self._section_of.get(name, "text")
            self._symbols[name] += bases[section_name]

    # -- pass 2: encoding ---------------------------------------------------

    def _pass_two(self, sections: list[_Section]) -> Program:
        all_symbols = {**self._constants, **self._symbols}

        def resolve(expression: str) -> int:
            return evaluate(expression, all_symbols)

        segments = []
        for section in sections:
            if section.cursor == 0:
                continue
            blob = bytearray(section.cursor)
            for item in section.data_items:
                self._emit_data(item, blob, resolve)
            for pending in section.instructions:
                ctx = EncodeContext(pc=section.base + pending.offset,
                                    resolve=resolve)
                try:
                    word = encode(pending.mnemonic, pending.operands, ctx)
                except (EncodeError, ExprError) as exc:
                    raise AsmSyntaxError(
                        str(exc), pending.statement.line_number,
                        pending.statement.source) from exc
                blob[pending.offset:pending.offset + 4] = \
                    word.to_bytes(4, "little")
            segments.append(Segment(section.base, blob))

        entry = self._symbols.get("_start", self._text_base)
        return Program(segments=segments, symbols=dict(all_symbols),
                       entry=entry)

    def _emit_data(self, item: _PendingData, blob: bytearray,
                   resolve) -> None:
        if item.kind == "bytes":
            blob[item.offset:item.offset + len(item.raw)] = item.raw
            return
        size = item.size // max(1, len(item.expressions))
        cursor = item.offset
        for expression in item.expressions:
            try:
                if item.kind == "float":
                    packed = struct.pack("<f" if size == 4 else "<d",
                                         float(expression))
                else:       # [-2^(8n-1), 2^8n): signed or unsigned fits
                    value = resolve(expression)
                    packed = value.to_bytes(size, "little",
                                            signed=value < 0)
            except (ExprError, ValueError, OverflowError) as exc:
                raise AsmSyntaxError(
                    f"{expression}: {exc}", item.statement.line_number,
                    item.statement.source) from exc
            blob[cursor:cursor + size] = packed
            cursor += size

    # -- helpers ------------------------------------------------------------

    def _resolve_const(self, expression: str) -> int:
        return evaluate(expression, self._constants)

    def _count(self, statement: Statement) -> int:
        """The constant operand of ``.align``/``.zero``: there, and >= 0."""
        operands = statement.operands
        value = self._resolve_const(operands[0]) if operands else -1
        if value < 0:
            raise AsmSyntaxError(
                f"{statement.mnemonic} expects a non-negative constant",
                statement.line_number, statement.source)
        return value


def assemble(source: str, text_base: int = DEFAULT_TEXT_BASE,
             data_base: int | None = None,
             data: Sequence[DataBlock] = ()) -> Program:
    """Convenience wrapper: assemble ``source`` with default layout."""
    return Assembler(text_base=text_base, data_base=data_base) \
        .assemble(source, data)
