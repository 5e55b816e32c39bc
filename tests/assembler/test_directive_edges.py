"""Edges of the directive handling: where a label written at the end of
a section binds, and what a malformed data directive raises."""

import pytest

from repro.assembler import AsmSyntaxError, assemble


def test_label_at_end_of_section_binds_where_it_is_written():
    program = assemble("""\
.text
_start: addi a0, a0, 1
end_of_text:
.data
first: .dword 7
""")
    assert program.symbols["end_of_text"] == 0x8000_0004
    assert program.symbols["first"] == 0x8000_1000


@pytest.mark.parametrize("line", [
    ".double abc",
    ".double N",            # an .equ name is not a float literal
    ".float 1e300",
    ".align",
    ".zero",
    ".zero -4",
    ".align -1",
    ".byte 300",
    ".byte -129",
    ".half 70000",
    ".word 0x100000000",
    ".dword 0x10000000000000000",
])
def test_malformed_data_directive_is_a_syntax_error(line):
    source = f".equ N, 4\n.data\n{line}\n"
    with pytest.raises(AsmSyntaxError) as caught:
        assemble(source)
    assert caught.value.line_number == 3
    assert caught.value.line == line


def test_integers_fit_signed_or_unsigned():
    program = assemble("""\
.data
.byte -1, 0xFF, -128
.half -1, 0xFFFF
.word -1, 0xFFFFFFFF
.dword -1, 0xFFFFFFFFFFFFFFFF, -0x8000000000000000
""")
    assert bytes(program.segments[0].data) == (
        b"\xff\xff\x80" + b"\xff" * 4 + b"\xff" * 8 + b"\xff" * 16
        + (1 << 63).to_bytes(8, "little"))
