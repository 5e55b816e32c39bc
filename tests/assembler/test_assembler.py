"""Tests for the two-pass assembler driver."""

import struct

import pytest

from repro.assembler import AsmSyntaxError, assemble
from repro.assembler.program import DEFAULT_TEXT_BASE


def words_of(program, segment_index=0):
    data = program.segments[segment_index].data
    return [int.from_bytes(data[i:i + 4], "little")
            for i in range(0, len(data), 4)]


class TestLayout:
    def test_text_base_default(self):
        program = assemble(".text\nnop\n")
        assert program.segments[0].base == DEFAULT_TEXT_BASE

    def test_custom_text_base(self):
        program = assemble(".text\nnop\n", text_base=0x1000)
        assert program.segments[0].base == 0x1000
        assert program.entry == 0x1000

    def test_data_follows_text_page_aligned(self):
        program = assemble(".text\nnop\n.data\nvalue: .dword 7\n")
        data_segment = program.segments[1]
        assert data_segment.base % 0x1000 == 0
        assert data_segment.base >= program.segments[0].end

    def test_entry_is_start_symbol(self):
        program = assemble(".text\nnop\n_start: nop\n")
        assert program.entry == DEFAULT_TEXT_BASE + 4

    def test_total_bytes(self):
        program = assemble(".text\nnop\nnop\n")
        assert program.total_bytes() == 8


class TestLabels:
    def test_forward_reference(self):
        program = assemble("""
.text
    j end
    nop
end:
    nop
""")
        # jal zero, +8
        assert words_of(program)[0] & 0x7F == 0x6F

    def test_backward_reference(self):
        program = assemble("""
.text
top:
    nop
    j top
""")
        word = words_of(program)[1]
        assert word & 0x7F == 0x6F
        assert word >> 31 == 1  # negative offset

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".text\nx: nop\nx: nop\n")

    def test_label_binds_to_data(self):
        program = assemble(".text\nnop\n.data\nv1: .dword 1\nv2: .dword 2\n")
        assert program.symbols["v2"] == program.symbols["v1"] + 8

    def test_label_across_sections(self):
        # A label directly before .data binds to the next emission point
        # in the section current at emission time.
        program = assemble(""".text
    nop
.data
value:
    .dword 9
""")
        base = program.segments[1].base
        assert program.symbols["value"] == base


class TestDirectives:
    def test_word_and_dword(self):
        program = assemble(".data\na: .word 0x11223344\nb: .dword -1\n",
                           data_base=0x2000)
        segment = program.segments[0]
        assert segment.data[:4] == bytes.fromhex("44332211")
        assert segment.data[4:12] == b"\xff" * 8

    def test_byte_and_half(self):
        program = assemble(".data\n.byte 1, 2\n.half 0x0304\n",
                           data_base=0x2000)
        assert bytes(program.segments[0].data) == b"\x01\x02\x04\x03"

    def test_double(self):
        program = assemble(".data\npi: .double 3.5\n", data_base=0x2000)
        assert struct.unpack("<d", program.segments[0].data[:8])[0] == 3.5

    def test_zero_fill(self):
        program = assemble(".data\nbuf: .zero 16\nafter: .byte 1\n",
                           data_base=0x2000)
        assert program.symbols["after"] == 0x2010

    def test_align(self):
        program = assemble(".data\n.byte 1\n.align 3\nv: .dword 2\n",
                           data_base=0x2000)
        assert program.symbols["v"] == 0x2008

    def test_balign(self):
        program = assemble(".data\n.byte 1\n.balign 16\nv: .byte 2\n",
                           data_base=0x2000)
        assert program.symbols["v"] == 0x2010

    def test_asciz(self):
        program = assemble('.data\nmsg: .asciz "hi"\n', data_base=0x2000)
        assert bytes(program.segments[0].data[:3]) == b"hi\x00"

    def test_equ_constant(self):
        program = assemble(".equ N, 16\n.text\naddi a0, zero, N\n")
        assert words_of(program)[0] >> 20 == 16

    def test_equ_in_expression(self):
        program = assemble(".equ N, 4\n.text\naddi a0, zero, N*2+1\n")
        assert words_of(program)[0] >> 20 == 9

    def test_unknown_directive(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".text\n.bogus 1\n")

    def test_data_expression_references_label(self):
        program = assemble(""".text
nop
.data
table: .dword table
""")
        address = program.symbols["table"]
        stored = int.from_bytes(program.segments[1].data[:8], "little")
        assert stored == address


class TestErrors:
    def test_instruction_in_data_section(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".data\nnop\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".text\nfrobnicate a0\n")

    def test_error_reports_line_number(self):
        with pytest.raises(AsmSyntaxError) as exc_info:
            assemble(".text\nnop\nbad_mnemonic a0\n")
        assert "line 3" in str(exc_info.value)

    def test_undefined_symbol(self):
        with pytest.raises(AsmSyntaxError):
            assemble(".text\nj nowhere\n")


class TestPseudoIntegration:
    def test_li_large_constant(self):
        program = assemble(".text\nli a0, 0x123456789\n")
        assert len(words_of(program)) >= 3

    def test_la_resolves_data_symbol(self):
        program = assemble(""".text
_start:
    la a0, value
.data
value: .dword 1
""")
        words = words_of(program)
        assert words[0] & 0x7F == 0x17  # auipc
        assert words[1] & 0x7F == 0x13  # addi

    def test_nop_is_addi(self):
        program = assemble(".text\nnop\n")
        assert words_of(program)[0] == 0x0000_0013
