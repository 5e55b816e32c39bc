"""A two-pass RV64 assembler producing loadable program images."""

from repro.assembler.assembler import Assembler, DataBlock, assemble
from repro.assembler.encoder import EncodeError
from repro.assembler.lexer import AsmSyntaxError
from repro.assembler.program import DEFAULT_TEXT_BASE, Program, Segment

__all__ = [
    "AsmSyntaxError",
    "Assembler",
    "DEFAULT_TEXT_BASE",
    "DataBlock",
    "EncodeError",
    "Program",
    "Segment",
    "assemble",
]
