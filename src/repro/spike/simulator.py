"""The functional multicore simulator (our "Spike").

Two layers live here:

* :class:`CoreModel` — one core with private L1 I/D caches.  Its
  :meth:`CoreModel.step` executes a single instruction functionally and
  classifies every memory access against the L1s, reporting the misses
  that must be sent into the Sparta-modelled hierarchy.  This is the
  per-cycle entry point used by the Coyote orchestrator.

* :class:`SpikeSimulator` — a free-running multicore ISS without timing,
  supporting Spike's *interleaving* optimisation (execute N instructions
  per core before switching).  Coyote runs with interleaving disabled
  (N = 1), which is the performance effect Figure 3 analyses; the raw ISS
  exposes the knob so the ablation benchmark can measure it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.assembler.program import Program
from repro.memhier.request import RequestKind
from repro.spike.hart import Hart, Trap
from repro.spike.l1cache import L1Cache
from repro.spike.machine import BareMetalMachine
from repro.utils.tagarray import check_geometry

# A request leaving a core is classified with the hierarchy's own
# request kinds, so the orchestrator submits it without a translation.
AccessKind = RequestKind


@dataclass
class MissRequest:
    """An L1 miss that must be serviced by the modelled hierarchy."""

    core_id: int
    line_address: int
    kind: AccessKind
    registers: tuple = ()  # registers released when the miss completes
    pc: int = 0            # faulting pc (guest-profile attribution)


def miss_requests(core_id: int, kind: AccessKind, miss: tuple,
                  registers: tuple, pc: int) -> list[MissRequest]:
    """What one L1 miss (``L1Cache.miss``'s result) sends into the
    hierarchy: the fill and, behind it, a dirty victim's write-back."""
    line, writeback = miss
    requests = [MissRequest(core_id, line, kind, registers, pc=pc)]
    if writeback is not None:
        requests.append(MissRequest(core_id, writeback,
                                    AccessKind.WRITEBACK, pc=pc))
    return requests


class StepStatus(enum.Enum):
    """Outcome of attempting to execute one instruction on a core."""

    EXECUTED = "executed"
    FETCH_MISS = "fetch-miss"
    HALTED = "halted"


@dataclass
class CoreStep:
    """Everything the orchestrator needs to know about one core-step
    (a halt is ``CoreModel.halted``)."""

    status: StepStatus
    misses: list[MissRequest] = field(default_factory=list)


# Shared outcome instances for the two allocation-free hot cases.  A
# clean executed step (no misses) is the overwhelmingly common outcome,
# and nothing downstream mutates ``misses``, so a single
# immutable-by-convention instance serves every such step.
# ``CLEAN_STEP`` is public: the orchestrator's hot loop recognises it by
# identity and skips all post-step bookkeeping for it.
CLEAN_STEP = CoreStep(StepStatus.EXECUTED, misses=[])
_HALTED_STEP = CoreStep(StepStatus.HALTED, misses=[])


@dataclass
class L1Config:
    """Geometry of the private L1 caches (identical across cores)."""

    icache_bytes: int = 16 * 1024
    dcache_bytes: int = 32 * 1024
    associativity: int = 8
    line_bytes: int = 64

    def validate(self) -> None:
        """Raise ``ValueError`` unless both caches have a geometry."""
        for size_bytes in (self.icache_bytes, self.dcache_bytes):
            check_geometry(size_bytes, self.associativity, self.line_bytes)


class CoreModel:
    """One simulated core: hart + private L1 I/D caches."""

    def __init__(self, hart: Hart, machine: BareMetalMachine,
                 l1: L1Config | None = None):
        l1 = l1 or L1Config()
        self.hart = hart
        self.machine = machine
        self.core_id = hart.hart_id
        self.l1i = L1Cache(l1.icache_bytes, l1.associativity, l1.line_bytes,
                           name=f"core{self.core_id}.l1i")
        self.l1d = L1Cache(l1.dcache_bytes, l1.associativity, l1.line_bytes,
                           name=f"core{self.core_id}.l1d")
        self.halted = False
        # RAW-stall *cycles* are accounted once, by the orchestrator's
        # per-core state (the single source of truth surfaced as
        # ``CoreStats.raw_stall_cycles``); ``fetch_stalls`` here counts
        # fetch-miss *events* observed by :meth:`step`.
        self.fetch_stalls = 0
        # Guest-profile hook: a CoreProfile when profiling is enabled,
        # None otherwise (the step pays one is-None test per retire).
        self.profile = None

    @property
    def instructions(self) -> int:
        """Instructions this core retired: its hart's ``instret``, the
        one retire count (translated blocks commit to it as well)."""
        return self.hart.instret

    def peek_registers(self) -> tuple:
        """Source+destination registers of the next instruction.

        The orchestrator checks these against the scoreboard *before*
        calling :meth:`step`; both sources (RAW) and destinations (WAW on
        a pending fill) must be free.
        """
        return self.hart.decode_at(self.hart.pc).all_regs

    def step(self) -> CoreStep:
        """Execute one instruction, classifying accesses against the L1s.

        Hot-path notes: lookups go through the allocation-free
        ``L1Cache.access_fast`` (hits return ``None``), the miss list is
        only materialised when a miss actually occurs, the HTIF check is
        skipped for instructions that made no memory access, and steps
        with nothing to report return a shared outcome instance — all
        behaviour-preserving specialisations of the original loop.
        """
        if self.halted:
            return _HALTED_STEP

        hart = self.hart
        pc = hart.pc

        # Instruction fetch through the L1I.
        fetch_miss = self.l1i.access_fast(pc, False)
        if fetch_miss is not None:
            self.fetch_stalls += 1
            return CoreStep(StepStatus.FETCH_MISS, misses=miss_requests(
                self.core_id, AccessKind.IFETCH, fetch_miss, (), pc))

        instr = hart.step()
        profile = self.profile
        if profile is not None:
            profile.retire(pc, instr)

        # Classify this step's data accesses, coalescing per cache line:
        # a repeated (line, kind) pair within one instruction (e.g. a
        # unit-stride vector load) produces a single request.
        accesses = hart.accesses
        if not accesses:
            return CLEAN_STEP

        misses: list[MissRequest] | None = None
        l1d = self.l1d
        access_fast = l1d.access_fast
        line_bytes = l1d.line_bytes
        core_id = self.core_id
        seen: set[tuple[int, bool]] | None = \
            set() if len(accesses) > 1 else None
        for access in accesses:
            is_write = access.is_write
            address = access.address
            for line in range(l1d.line_address(address),
                              address + access.size, line_bytes):
                if seen is not None:
                    key = (line, is_write)
                    if key in seen:
                        continue
                    seen.add(key)
                result = access_fast(line, is_write)
                if result is not None:
                    requests = miss_requests(
                        core_id,
                        AccessKind.STORE if is_write else AccessKind.LOAD,
                        result, () if is_write else instr.dests, pc)
                    misses = requests if misses is None \
                        else misses + requests

        event = self.machine.check_htif(accesses, hart)
        if event.exited:
            self.halted = True
            return CoreStep(StepStatus.EXECUTED,
                            misses=misses if misses is not None else [])

        if misses is None:
            return CLEAN_STEP
        return CoreStep(StepStatus.EXECUTED, misses=misses)


class SpikeSimulator:
    """Free-running functional multicore simulation (no timing model).

    This is the raw ISS: it executes instructions as fast as possible with
    a configurable interleaving batch, and is used standalone for
    functional kernel testing and for the interleaving ablation.
    """

    def __init__(self, program: Program, num_cores: int = 1,
                 vlen_bits: int = 512, interleave: int = 1):
        if interleave < 1:
            raise ValueError(f"interleave must be >= 1, got {interleave}")
        self.machine = BareMetalMachine(program, num_cores,
                                        vlen_bits=vlen_bits)
        self.interleave = interleave
        self.halted = [False] * num_cores
        self.instructions = 0

    @property
    def harts(self) -> list[Hart]:
        return self.machine.harts

    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until every hart halts; returns instructions executed.

        Raises ``RuntimeError`` if ``max_instructions`` is exhausted first
        (a runaway-program backstop) or if a hart traps.
        """
        remaining = max_instructions
        harts = self.machine.harts
        while not all(self.halted):
            progress = False
            for hart in harts:
                if self.halted[hart.hart_id]:
                    continue
                progress = True
                for _ in range(self.interleave):
                    try:
                        hart.step()
                    except Trap as exc:
                        raise RuntimeError(
                            f"hart {hart.hart_id} trapped: {exc}") from exc
                    self.instructions += 1
                    remaining -= 1
                    if remaining <= 0:
                        raise RuntimeError(
                            f"instruction budget exhausted "
                            f"({max_instructions})")
                    event = self.machine.check_htif(hart.accesses, hart)
                    if event.exited:
                        self.halted[hart.hart_id] = True
                        break
            if not progress:
                break
        return self.instructions
