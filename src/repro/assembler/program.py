"""The output artefact of the assembler: a loadable program image.

A :class:`Program` is a set of byte segments at absolute addresses plus a
symbol table and entry point — the moral equivalent of a statically linked
bare-metal ELF, without the container format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_TEXT_BASE = 0x8000_0000
DEFAULT_DATA_ALIGN = 0x1000


@dataclass
class Segment:
    """A contiguous run of initialised bytes at an absolute address."""

    base: int
    data: bytearray

    @property
    def end(self) -> int:
        return self.base + len(self.data)


@dataclass
class Program:
    """A fully assembled, loadable program."""

    segments: list[Segment] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = DEFAULT_TEXT_BASE
    # [start, end) byte ranges the program promises never to store into
    # (``DataBlock(readonly=True)``), in layout order.
    readonly: list[tuple[int, int]] = field(default_factory=list)

    def symbol(self, name: str) -> int:
        """Address of a symbol; raises ``KeyError`` if undefined."""
        return self.symbols[name]

    def load_into(self, memory) -> None:
        """Copy every segment into a memory object with ``store_bytes``."""
        for segment in self.segments:
            memory.store_bytes(segment.base, bytes(segment.data))

    def total_bytes(self) -> int:
        """Total initialised bytes across all segments."""
        return sum(len(segment.data) for segment in self.segments)

    def bounds(self) -> tuple[int, int]:
        """(lowest, highest) address covered by any segment."""
        if not self.segments:
            return (0, 0)
        return (min(s.base for s in self.segments),
                max(s.end for s in self.segments))
