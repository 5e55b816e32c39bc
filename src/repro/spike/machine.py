"""Bare-metal machine environment (Spike's HTIF conventions).

The paper runs Spike in bare-metal mode "with very limited availability of
syscalls".  We reproduce the same environment: a program communicates with
the host only through the ``tohost`` word.

Protocol (per 64-bit store to ``tohost``):

* ``value >> 48 == 0`` and ``value & 1 == 1`` — the *storing hart* halts
  with exit code ``value >> 1`` (code 0 is success).  Simulation finishes
  when every hart has halted.
* ``value >> 48 == 0x0101`` — console putchar of ``value & 0xFF``
  (HTIF device 1, command 1).

Each hart boots at the program entry with ``a0 = hart_id`` and a private
stack, mirroring a minimal SMP firmware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.assembler.program import Program
from repro.soc.memory import PAGE_SIZE, SparseMemory
from repro.spike.hart import CodeCacheRegistry, Hart, MemAccess

DEFAULT_STACK_TOP = 0x9000_0000
DEFAULT_STACK_BYTES = 64 * 1024

TOHOST_SYMBOL = "tohost"
_HTIF_CONSOLE_TAG = 0x0101


def whole_pages(ranges) -> set[int]:
    """Numbers of the pages that lie wholly inside the ``[start, end)``
    byte ``ranges``; ranges that touch count as one."""
    pages: set[int] = set()
    merged: list[list[int]] = []
    for start, end in sorted(ranges):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    for start, end in merged:
        pages.update(range(-(-start // PAGE_SIZE), end // PAGE_SIZE))
    return pages


@dataclass
class HtifEvent:
    """Result of inspecting one instruction's stores for HTIF activity."""

    exited: bool = False
    exit_code: int = 0


class BareMetalMachine:
    """Shared memory, harts, and the HTIF host interface.

    ``readonly_pages`` holds the pages that lie wholly inside the
    program's read-only ranges (``Program.readonly``): every hart aliases
    the one set, a store into it is a ``StoreAccessFault``, and
    translated blocks may load from it ahead of their cycle
    (``repro.spike.translate``).
    """

    def __init__(self, program: Program, num_cores: int,
                 vlen_bits: int = 512,
                 stack_top: int = DEFAULT_STACK_TOP,
                 stack_bytes: int = DEFAULT_STACK_BYTES):
        self.program = program
        self.memory = SparseMemory()
        program.load_into(self.memory)
        self.tohost_address = program.symbols.get(TOHOST_SYMBOL)
        self.console = bytearray()
        self.harts = []
        self.exit_codes: dict[int, int] = {}
        # One registry for the whole machine: a store by any hart into a
        # decoded code page invalidates every hart's derived caches.
        self.code_registry = CodeCacheRegistry()
        self.readonly_pages = whole_pages(program.readonly)
        for core_id in range(num_cores):
            hart = Hart(core_id, self.memory, vlen_bits=vlen_bits,
                        reset_pc=program.entry,
                        code_registry=self.code_registry)
            hart._readonly_pages = self.readonly_pages
            hart.regs[2] = stack_top - core_id * stack_bytes  # sp
            hart.regs[10] = core_id                           # a0
            self.harts.append(hart)

    @property
    def num_cores(self) -> int:
        return len(self.harts)

    def check_htif(self, accesses: list[MemAccess], hart: Hart) -> HtifEvent:
        """Inspect one step's stores for tohost activity."""
        if self.tohost_address is None:
            return HtifEvent()
        for access in accesses:
            if access.is_write and access.address == self.tohost_address \
                    and self.htif_store(hart):
                return HtifEvent(exited=True,
                                 exit_code=self.exit_codes[hart.hart_id])
        return HtifEvent()

    def htif_store(self, hart: Hart) -> bool:
        """HTIF protocol for one just-executed store to ``tohost``.

        The one decode of a ``tohost`` value: the translated fast path
        calls this directly — it already knows the store's address hit
        ``tohost`` — and :meth:`check_htif`, the interpreter's
        access-list scan, calls it for each store there.  Returns
        ``True`` when the storing hart exits.
        """
        value = self.memory.load_int(self.tohost_address, 8)
        device_command = value >> 48
        if device_command == _HTIF_CONSOLE_TAG:
            self.console.append(value & 0xFF)
            self.memory.store_int(self.tohost_address, 0, 8)
        elif device_command == 0 and value & 1:
            self.exit_codes[hart.hart_id] = value >> 1
            return True
        return False

    def console_text(self) -> str:
        """Console output accumulated so far, decoded as UTF-8."""
        return self.console.decode("utf-8", errors="replace")

    def all_succeeded(self) -> bool:
        """True when every hart exited with code 0."""
        return (len(self.exit_codes) == self.num_cores
                and all(code == 0 for code in self.exit_codes.values()))
