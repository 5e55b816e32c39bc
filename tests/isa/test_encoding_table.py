"""Invariants of ``repro.isa.encoding``, generated from the table itself.

Decoder, encoder and disassembler are all read off ``ENCODINGS``, so what
can still go wrong is the table: two rows claiming one word, an operand
overlapping the bits that identify its row, a kind whose range, packing
and spelling do not agree — and the table against its neighbour,
``repro.spike.semantics``: the registers a row's executor reads and
writes must be the ones the decoder lists for the scoreboard.  Every
check below runs over every row; a new row is covered without an edit.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.assembler.encoder import EncodeContext, EncodeError, encode
from repro.assembler.lexer import split_operands
from repro.isa.csr import CSR_BY_NAME, csr_name
from repro.isa.decoder import IllegalInstruction, decode
from repro.isa.disasm import disassemble
from repro.isa.encoding import ENCODINGS, Kind, Mem
from repro.isa.registers import fp_reg_name, int_reg_name, vec_reg_name
from repro.isa.vtype import VType
from repro.spike.semantics import (
    BRANCHES,
    COMPUTE,
    LOADS,
    STORES,
    VECTOR,
    VLOADS,
    VSTORES,
)

_CTX = EncodeContext(pc=0, resolve=lambda text: int(text, 0))
_REG_NAME = {"x": int_reg_name, "f": fp_reg_name, "v": vec_reg_name}

# 30 examples a signature keep tier-1 quick; ``--hypothesis-profile=ci``
# runs the profile's 500.
_CI = settings.get_profile("ci")
_EXAMPLES = _CI.max_examples if settings.default is _CI else 30


# ---------------------------------------------------------------------------
# Rows against each other and against their own operands
# ---------------------------------------------------------------------------

def test_no_two_rows_match_the_same_word():
    by_opcode: dict = {}
    for mnemonic, row in ENCODINGS.items():
        assert row.mask & 0x7F == 0x7F and row.match & 0b11 == 0b11
        by_opcode.setdefault(row.match & 0x7F, []).append((mnemonic, row))
    for rows in by_opcode.values():
        for (name_a, a), (name_b, b) in itertools.combinations(rows, 2):
            assert (a.match ^ b.match) & a.mask & b.mask, \
                f"{name_a} and {name_b} overlap"


def test_operand_fields_lie_outside_the_mask_and_apart():
    for mnemonic, row in ENCODINGS.items():
        taken = 0
        for kind in row.fields:
            assert not kind.bits & row.mask, mnemonic
            assert not kind.bits & taken, mnemonic
            assert not kind.bits & row.match, mnemonic
            taken |= kind.bits


@given(st.integers(0, (1 << 25) - 1),
       st.one_of(st.integers(0, 127),
                 st.sampled_from(sorted({row.match & 0x7F for row
                                         in ENCODINGS.values()}))))
@settings(max_examples=10 * _EXAMPLES, deadline=None)
def test_a_word_decodes_iff_exactly_one_row_matches(upper, opcode):
    word = upper << 7 | opcode
    matching = [mnemonic for mnemonic, row in ENCODINGS.items()
                if word & row.mask == row.match & row.mask]
    try:
        assert [decode(word).mnemonic] == matching
    except IllegalInstruction:
        assert not matching


# ---------------------------------------------------------------------------
# Round trip: operands drawn by kind -> encode -> decode -> disassemble
# ---------------------------------------------------------------------------

def _spell(kind: Kind, value: int) -> str:
    """``value`` the way the disassembler writes it."""
    if kind.access:  # out of range only to be refused: no such name
        return _REG_NAME[kind.syntax](value) if 0 <= value < 32 \
            else f"{kind.syntax}{value}"
    if kind.syntax == "upper":
        return f"{value:#x}"
    if kind.syntax == "csr":
        return csr_name(value) if value in CSR_BY_NAME.values() \
            else f"{value:#x}"
    if kind.syntax == "vtype":
        vtype = VType.decode(value)
        return f"{value:#x}" if vtype.vill else vtype.describe()
    return {"v0.t": "" if value else "v0.t", "v0": "v0"}.get(
        kind.syntax, str(value))


def _values(kind: Kind):
    low = 0 if kind.syntax == "upper" else kind.low  # written unsigned
    return st.integers(low // kind.step, kind.high // kind.step).map(
        lambda value: value * kind.step)


def _text(operands: tuple, values: dict) -> str:
    """The operand text of a row whose kinds take ``values``."""
    texts = []
    for operand in operands:
        if isinstance(operand, Mem):
            offset = "" if operand.offset is None \
                else _spell(operand.offset, values[operand.offset])
            texts.append(
                f"{offset}({_spell(operand.base, values[operand.base])})")
        else:
            texts.append(_spell(operand, values[operand]))
    return ", ".join(filter(None, texts))


def _encode(mnemonic: str, text: str) -> int:
    return encode(mnemonic, split_operands(text), _CTX)


# Rows with the same operands take the same drawn values: one Hypothesis
# test per operand signature, every row of the signature per example.
_SIGNATURES: dict = {}
for _mnemonic, _row in ENCODINGS.items():
    _SIGNATURES.setdefault(_row.operands, []).append(_mnemonic)


def _signature_id(operands: tuple) -> str:
    return ",".join(
        f"{kind.syntax}:{kind.slot}" if isinstance(kind, Kind)
        else f"({'+'.join(leaf.slot for leaf in kind if leaf)})"
        for kind in operands) or "none"


@pytest.mark.parametrize("operands", _SIGNATURES, ids=_signature_id)
@given(data=st.data())
@settings(max_examples=_EXAMPLES, deadline=None)
def test_round_trip_returns_the_word_and_the_operands(operands, data):
    fields = ENCODINGS[_SIGNATURES[operands][0]].fields
    values = {kind: data.draw(_values(kind)) for kind in fields}
    text = _text(operands, values)
    registers = {access: {
        (kind.syntax, value) for kind, value in values.items()
        if access in kind.access and (kind.syntax, value) != ("x", 0)}
        for access in "rw"}
    if any(kind.slot == "vm" and not value
           for kind, value in values.items()):
        registers["r"].add(("v", 0))
    for mnemonic in _SIGNATURES[operands]:
        word = _encode(mnemonic, text)
        instr = decode(word)
        assert disassemble(instr) == f"{mnemonic} {text}".rstrip()
        assert set(instr.srcs) == registers["r"]
        assert set(instr.dests) == registers["w"]
        assert instr.all_regs == instr.srcs + instr.dests
        # Every bit is the row's or an operand's.
        assert word == ENCODINGS[mnemonic].match | sum(
            kind.put(value) for kind, value in values.items())


def test_out_of_range_operands_are_refused():
    for mnemonic, row in ENCODINGS.items():
        good = {kind: kind.low for kind in row.fields}
        for kind in row.fields:
            if kind.slot == "vm":  # present or absent, nothing to exceed
                continue
            beyond = [kind.low - kind.step, kind.high + kind.step]
            if kind.step == 2:
                beyond.append(kind.low + 1)
            for value in beyond:
                with pytest.raises(EncodeError):
                    _encode(mnemonic,
                            _text(row.operands, {**good, kind: value}))


# ---------------------------------------------------------------------------
# The encoding table against the semantics table
# ---------------------------------------------------------------------------

def _by_slot(mnemonic: str) -> dict:
    """slot -> (register file or None for an immediate, access)."""
    return {kind.slot: (kind.syntax if kind.access else None, kind.access)
            for kind in ENCODINGS[mnemonic].fields}


def test_scalar_forms_agree_with_the_operand_kinds():
    """What a row's executor reads and writes (``semantics.Form``) is
    what the decoder lists in ``srcs``/``dests`` — the scoreboard tracks
    exactly the registers the instruction touches."""
    for mnemonic, row in COMPUTE.items():
        expected = {"rd": (row.form.dest, "w")}
        for _name, file, field in row.form.operands:
            if field != "pc":
                expected[field] = (file, "r" if file else "")
        assert _by_slot(mnemonic) == expected, mnemonic
        assert not ENCODINGS[mnemonic].flags \
            or ENCODINGS[mnemonic].flags == ("is_fp",)
    address = {"rs1": ("x", "r"), "imm": (None, "")}
    for mnemonic, (_size, _signed, file) in LOADS.items():
        assert _by_slot(mnemonic) == {"rd": (file, "w"), **address}
        assert "is_load" in ENCODINGS[mnemonic].flags
    for mnemonic, (_size, file) in STORES.items():
        assert _by_slot(mnemonic) == {"rs2": (file, "r"), **address}
        assert "is_store" in ENCODINGS[mnemonic].flags
    for mnemonic in BRANCHES:
        assert _by_slot(mnemonic) == {"rs1": ("x", "r"), "rs2": ("x", "r"),
                                      "imm": (None, "")}
        assert ENCODINGS[mnemonic].flags == ("is_branch",)


def test_vector_rows_agree_with_the_operand_kinds():
    # VRow.b -> the slot and file its ``b`` operand is decoded into
    b_operand = {"v": {"rs1": ("v", "r")}, "x": {"rs1": ("x", "r")},
                 "f": {"rs1": ("f", "r")}, "i": {"imm": (None, "")},
                 None: {}}
    dest_file = {"to_x": "x", "to_f": "f"}
    for mnemonic, row in VECTOR.items():
        slots = _by_slot(mnemonic)
        file, access = slots.pop("rd")
        assert file == dest_file.get(row.kind, "v") and "w" in access
        slots.pop("vm", None)
        assert slots.pop("rs2", ("v", "r")) == ("v", "r"), mnemonic
        assert slots == b_operand[row.b], mnemonic
        assert "is_vector" in ENCODINGS[mnemonic].flags
        assert ("is_fp" in ENCODINGS[mnemonic].flags) == (row.view == "f")
    third = {"unit": {}, "strided": {"rs2": ("x", "r")},
             "indexed": {"rs2": ("v", "r")}}
    for table, flag, data in ((VLOADS, "is_load", "w"),
                              (VSTORES, "is_store", "r")):
        for mnemonic, (eew, addressing) in table.items():
            assert _by_slot(mnemonic) == {
                "rd": ("v", data), "rs1": ("x", "r"), "vm": (None, ""),
                **third[addressing]}
            assert {flag, "is_vector_mem"} <= set(ENCODINGS[mnemonic].flags)
            row = ENCODINGS[mnemonic]
            word = _encode(mnemonic, _text(
                row.operands, {kind: kind.high for kind in row.fields}))
            assert decode(word).eew == eew
