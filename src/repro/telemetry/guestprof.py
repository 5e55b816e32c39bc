"""Guest-side performance introspection: CPI stacks, hot blocks, misses.

Where the host profiler answers "where does the *host* spend wall
time", this module answers "where does the *guest* spend cycles":

* a **CPI stack** per core — every simulated cycle attributed to
  exactly one class (retired work, RAW-stall windows split by fill
  source, fetch-stall windows split the same way, post-halt idle, and
  a residual ``other`` for wake-to-issue gaps), with the invariant
  that the classes sum to the run's total cycles *exactly*;
* a **hot-block profile** — retired instructions aggregated by
  dynamically discovered basic block (a block ends at a taken
  control-flow boundary), annotated with disassembly via
  :mod:`repro.isa.disasm`;
* **per-PC / per-line miss attribution** — L1D and L1I miss counts and
  the stall cycles their fills cost, keyed by the faulting PC and by
  the cache-line address.

Everything is opt-in (``TelemetryConfig.guest_profile``) and designed
around the hot-loop contract: the only cost on the disabled path is a
``None`` attribute test per retired instruction, all other hooks sit
on miss/completion paths that are already cold.  Profiling reads the
simulation, never steers it — a profiled run is bit-identical to an
unprofiled one (tests/coyote/test_differential.py).

Cycle-accounting model (mirrors the orchestrator's single source of
truth): a core's stall window is ``now - stall_start``, closed by the
completion that wakes it, so ``raw_*`` classes sum to
``CoreStats.raw_stall_cycles`` and ``fetch_*`` classes to
``fetch_stall_cycles`` by construction; :meth:`GuestProfiler.finalize`
verifies both, plus the conservation invariant, and raises
:class:`ProfileError` on any mismatch.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.isa.disasm import disassemble_word
from repro.sparta.statistics import StatSample, format_report

# The stall-class taxonomy, in report order.  ``retired`` counts cycles
# that retired a scalar instruction, ``retired_vector`` one of the V
# extension; ``raw_*`` are cycles stalled on a RAW dependency and
# ``fetch_*`` cycles stalled on an instruction fetch, split by where
# the fill that ended the window was served from (``_l2`` = L2 hit,
# ``_mem`` = memory round-trip, ``_other`` = fill source not recorded,
# e.g. MCPU-aggregated vector loads); ``halted`` is post-exit idle and
# ``other`` the residual (wake-to-issue gaps between a fill returning
# and the core's next issue slot).
CPI_CLASSES = (
    "retired", "retired_vector",
    "raw_l2", "raw_mem", "raw_other",
    "fetch_l2", "fetch_mem", "fetch_other",
    "halted", "other",
)

_STALL_CLASSES = ("raw_l2", "raw_mem", "raw_other",
                  "fetch_l2", "fetch_mem", "fetch_other")

# Per-PC event-table slots (kept as a flat list on the hot-ish path).
_LOAD, _STORE, _IFETCH, _STALL = range(4)
_KIND_SLOT = {"load": _LOAD, "store": _STORE, "ifetch": _IFETCH}

# Disassembly-annotation bounds: blocks annotated per profile, and
# instructions rendered per block (a runaway straight-line block is
# truncated rather than dumped wholesale).
ANNOTATED_BLOCKS = 16
ANNOTATED_INSTRUCTIONS = 64


class ProfileError(RuntimeError):
    """A profile failed its own integrity checks (conservation or
    cross-checks against the orchestrator's stall accounting)."""


class CoreProfile:
    """Live per-core collector; :meth:`retire_run` is the hot hook.

    Attached to ``CoreModel.profile`` by the orchestrator when guest
    profiling is enabled; stays ``None`` otherwise so the core's step
    pays a single is-None test.
    """

    __slots__ = ("core_id", "retired_scalar", "retired_vector",
                 "blocks", "pc_events", "line_events", "stalls",
                 "_block_start", "_expect_pc")

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.retired_scalar = 0
        self.retired_vector = 0
        # block start pc -> [retired instructions, highest pc retired]
        self.blocks: dict[int, list[int]] = {}
        # faulting pc -> [loads, stores, ifetches, stall cycles]
        self.pc_events: dict[int, list[int]] = {}
        # cache-line address -> miss count
        self.line_events: dict[int, int] = {}
        self.stalls = dict.fromkeys(_STALL_CLASSES, 0)
        self._block_start = -1
        self._expect_pc = -1

    def retire(self, pc: int, instr) -> None:
        """Account one retired instruction (the interpreter's hook,
        called from the core's step)."""
        self.retire_run(pc, 1, instr.is_vector,
                        instr.is_branch or instr.is_jump)

    def retire_run(self, pc: int, count: int, vector_count: int,
                   ends_control: bool) -> None:
        """Account ``count`` (>= 1) instructions retired back to back
        from ``pc``, ``vector_count`` of them vector, the last one a
        branch or jump when ``ends_control`` — the hook of a translated
        block, where only the last instruction can be control flow."""
        if pc != self._expect_pc:
            self._block_start = pc
        last = pc + 4 * (count - 1)
        entry = self.blocks.get(self._block_start)
        if entry is None:
            entry = self.blocks[self._block_start] = [0, last]
        entry[0] += count
        if last > entry[1]:
            entry[1] = last
        # Control flow ends the block; the successor starts a new one
        # whatever pc it lands on.
        self._expect_pc = -1 if ends_control else last + 4
        self.retired_vector += vector_count
        self.retired_scalar += count - vector_count

    def note_event(self, pc: int, slot: int, cycles: int = 1) -> None:
        """Bump one per-PC event slot (miss count or stall cycles)."""
        entry = self.pc_events.get(pc)
        if entry is None:
            entry = self.pc_events[pc] = [0, 0, 0, 0]
        entry[slot] += cycles


class GuestProfiler:
    """The run-wide collector the orchestrator drives.

    Holds one :class:`CoreProfile` per core plus the pending-miss map
    that lets a completion be attributed back to the PC that faulted.
    Plain attributes only — a paused simulation pickles this object
    with everything else (checkpoint/restore).
    """

    def __init__(self, num_cores: int, chrome=None):
        self.cores = [CoreProfile(core_id)
                      for core_id in range(num_cores)]
        self.chrome = chrome
        # request id -> faulting pc, for every submitted miss that will
        # see a completion (writebacks are fire-and-forget and are
        # deliberately not attributed).
        self._pending: dict[int, int] = {}

    # -- submission / completion hooks (cold paths) ---------------------------

    def note_miss(self, miss_id: int, core_id: int, pc: int,
                  kind: str, line_address: int) -> None:
        """Record one submitted L1 miss against its faulting PC."""
        core = self.cores[core_id]
        core.note_event(pc, _KIND_SLOT[kind])
        core.line_events[line_address] = \
            core.line_events.get(line_address, 0) + 1
        self._pending[miss_id] = pc

    def note_complete(self, request) -> int | None:
        """Pop the faulting PC of a completed request (or ``None``
        for a request submitted before profiling attached)."""
        pending = self._pending
        member_ids = request.member_ids
        if member_ids:
            # MCPU aggregate: every member came from one instruction,
            # so any member's entry carries the PC.
            pc = None
            for member_id in member_ids:
                found = pending.pop(member_id, None)
                if found is not None:
                    pc = found
            return pc
        return pending.pop(request.request_id, None)

    def stall_end(self, core_id: int, pc: int | None, l2_hit,
                  cycles: int, cycle: int, fetch: bool) -> None:
        """Attribute one closed stall window to its class and PC.

        ``l2_hit`` is the completing request's fill source (``True`` =
        L2 hit, ``False`` = memory, ``None`` = not recorded).
        """
        core = self.cores[core_id]
        prefix = "fetch" if fetch else "raw"
        if l2_hit is True:
            cls = prefix + "_l2"
        elif l2_hit is False:
            cls = prefix + "_mem"
        else:
            cls = prefix + "_other"
        core.stalls[cls] += cycles
        if pc is not None:
            core.note_event(pc, _STALL, cycles)
        chrome = self.chrome
        if chrome is not None:
            chrome.counter(f"core{core_id} stall cycles", cycle,
                           core.stalls, tid=core_id)

    # -- finalisation ---------------------------------------------------------

    def finalize(self, end_cycle: int, states, memory=None,
                 annotate_blocks: int = ANNOTATED_BLOCKS
                 ) -> "GuestProfile":
        """Build the immutable :class:`GuestProfile` for a finished run.

        ``states`` supplies per-core ``raw_stall_cycles``,
        ``fetch_stall_cycles`` and ``halt_cycle`` (the orchestrator's
        own accounting, cross-checked here); ``memory`` enables
        disassembly annotation of the hottest blocks.
        """
        stacks = []
        for core, state in zip(self.cores, states):
            classes = {"retired": core.retired_scalar,
                       "retired_vector": core.retired_vector}
            classes.update(core.stalls)
            halt_cycle = state.halt_cycle
            classes["halted"] = (end_cycle - halt_cycle
                                 if halt_cycle is not None else 0)
            raw = (classes["raw_l2"] + classes["raw_mem"]
                   + classes["raw_other"])
            if raw != state.raw_stall_cycles:
                raise ProfileError(
                    f"core {core.core_id}: raw-stall classes sum to "
                    f"{raw}, orchestrator counted "
                    f"{state.raw_stall_cycles}")
            fetch = (classes["fetch_l2"] + classes["fetch_mem"]
                     + classes["fetch_other"])
            if fetch != state.fetch_stall_cycles:
                raise ProfileError(
                    f"core {core.core_id}: fetch-stall classes sum to "
                    f"{fetch}, orchestrator counted "
                    f"{state.fetch_stall_cycles}")
            other = end_cycle - sum(classes.values())
            if other < 0:
                raise ProfileError(
                    f"core {core.core_id}: attributed "
                    f"{end_cycle - other} cycles of {end_cycle} — "
                    f"classes overlap")
            classes["other"] = other
            stack = CpiStack(core_id=core.core_id, cycles=end_cycle,
                             classes=classes)
            stack.check()
            stacks.append(stack)

        blocks = self._merge_blocks()
        pc_misses, line_misses = self._merge_events()
        self._attribute_blocks(blocks, pc_misses)
        hot = [HotBlock(start_pc=start, end_pc=entry[0],
                        instructions=entry[1], stall_cycles=entry[2],
                        misses=entry[3])
               for start, entry in blocks.items()]
        hot.sort(key=lambda block: (-block.instructions, block.start_pc))
        if memory is not None:
            for block in hot[:annotate_blocks]:
                block.disassembly = _annotate(block, memory, pc_misses)
        return GuestProfile(cycles=end_cycle, stacks=stacks, blocks=hot,
                            pc_misses=pc_misses, line_misses=line_misses)

    def _merge_blocks(self) -> dict[int, list[int]]:
        """All cores' blocks as ``start -> [end, instrs, stall, miss]``
        (SPMD kernels retire the same blocks on every core)."""
        merged: dict[int, list[int]] = {}
        for core in self.cores:
            for start, (count, end) in core.blocks.items():
                entry = merged.get(start)
                if entry is None:
                    merged[start] = [end, count, 0, 0]
                else:
                    entry[0] = max(entry[0], end)
                    entry[1] += count
        return merged

    def _merge_events(self):
        pc_misses: dict[int, dict[str, int]] = {}
        line_misses: dict[int, int] = {}
        for core in self.cores:
            for pc, events in core.pc_events.items():
                entry = pc_misses.setdefault(
                    pc, {"loads": 0, "stores": 0, "ifetches": 0,
                         "stall_cycles": 0})
                entry["loads"] += events[_LOAD]
                entry["stores"] += events[_STORE]
                entry["ifetches"] += events[_IFETCH]
                entry["stall_cycles"] += events[_STALL]
            for line, count in core.line_events.items():
                line_misses[line] = line_misses.get(line, 0) + count
        return pc_misses, line_misses

    @staticmethod
    def _attribute_blocks(blocks: dict[int, list[int]],
                          pc_misses: dict[int, dict[str, int]]) -> None:
        """Fold per-PC stall cycles and miss counts into the block
        containing each PC (best-effort containment lookup)."""
        if not blocks:
            return
        starts = sorted(blocks)
        for pc, events in pc_misses.items():
            index = bisect_right(starts, pc) - 1
            if index < 0:
                continue
            entry = blocks[starts[index]]
            if pc > entry[0]:
                continue  # past the block's last retired pc
            entry[2] += events["stall_cycles"]
            entry[3] += (events["loads"] + events["stores"]
                         + events["ifetches"])


def _annotate(block: "HotBlock", memory,
              pc_misses: dict[int, dict[str, int]]) -> tuple[str, ...]:
    """Disassemble one block, marking PCs that missed or stalled."""
    lines = []
    pc = block.start_pc
    end = min(block.end_pc,
              block.start_pc + 4 * (ANNOTATED_INSTRUCTIONS - 1))
    while pc <= end:
        try:
            word = memory.load_int(pc, 4)
            text = disassemble_word(word)
        except Exception:
            text = ".word <unreadable>"
        events = pc_misses.get(pc)
        if events:
            notes = []
            misses = (events["loads"] + events["stores"]
                      + events["ifetches"])
            if misses:
                notes.append(f"misses {misses}")
            if events["stall_cycles"]:
                notes.append(f"stall {events['stall_cycles']}")
            if notes:
                text = f"{text:<32} ; {', '.join(notes)}"
        lines.append(f"{pc:#010x}  {text}")
        pc += 4
    if block.end_pc > end:
        skipped = (block.end_pc - end) // 4
        lines.append(f"{'':>10}  ... {skipped} more instruction(s)")
    return tuple(lines)


@dataclass
class CpiStack:
    """One core's cycle budget, attributed class by class.

    ``classes`` maps every name in :data:`CPI_CLASSES` to a cycle
    count; :meth:`check` enforces the conservation invariant (the
    values sum to ``cycles`` exactly).
    """

    core_id: int
    cycles: int
    classes: dict[str, int]

    def check(self) -> None:
        """Raise :class:`ProfileError` unless the stack conserves."""
        total = sum(self.classes.values())
        if total != self.cycles:
            raise ProfileError(
                f"core {self.core_id}: CPI stack sums to {total}, "
                f"run took {self.cycles} cycles")

    @property
    def retired(self) -> int:
        """Instructions retired (scalar + vector)."""
        return self.classes["retired"] + self.classes["retired_vector"]

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction (``inf`` for an idle core)."""
        retired = self.retired
        return self.cycles / retired if retired else float("inf")

    def to_dict(self) -> dict:
        return {"core_id": self.core_id, "cycles": self.cycles,
                "classes": dict(self.classes)}


@dataclass
class HotBlock:
    """One dynamic basic block of the merged hot-block profile."""

    start_pc: int
    end_pc: int
    instructions: int
    stall_cycles: int
    misses: int
    disassembly: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        data = {"start_pc": f"{self.start_pc:#x}",
                "end_pc": f"{self.end_pc:#x}",
                "instructions": self.instructions,
                "stall_cycles": self.stall_cycles,
                "misses": self.misses}
        if self.disassembly is not None:
            data["disassembly"] = list(self.disassembly)
        return data


@dataclass
class GuestProfile:
    """The finished guest-side profile of one run."""

    cycles: int
    stacks: list[CpiStack]
    blocks: list[HotBlock] = field(default_factory=list)
    pc_misses: dict[int, dict[str, int]] = field(default_factory=dict)
    line_misses: dict[int, int] = field(default_factory=dict)

    @property
    def instructions(self) -> int:
        return sum(stack.retired for stack in self.stacks)

    def aggregate(self) -> CpiStack:
        """All cores' stacks summed (``core_id = -1``); cycles scale
        with the core count so conservation still holds."""
        classes = dict.fromkeys(CPI_CLASSES, 0)
        for stack in self.stacks:
            for name, value in stack.classes.items():
                classes[name] += value
        return CpiStack(core_id=-1,
                        cycles=self.cycles * len(self.stacks),
                        classes=classes)

    def top_blocks(self, count: int = 10) -> list[HotBlock]:
        return self.blocks[:count]

    def samples(self) -> list[StatSample]:
        """The profile as Sparta report samples (one per core and
        class, plus per-core CPI), mergeable with the hierarchy's."""
        result = []
        for stack in self.stacks:
            path = f"guestprof.core{stack.core_id}"
            for name in CPI_CLASSES:
                result.append(StatSample(path, name,
                                         stack.classes[name],
                                         "CPI-stack cycles"))
            result.append(StatSample(path, "retired_instructions",
                                     stack.retired, ""))
        aggregate = self.aggregate()
        for name in CPI_CLASSES:
            result.append(StatSample("guestprof", name,
                                     aggregate.classes[name],
                                     "CPI-stack cycles (all cores)"))
        return result

    def stat_report(self) -> str:
        """The samples as an aligned text table."""
        return format_report(self.samples())

    def to_dict(self) -> dict:
        """JSON-serialisable form (PCs and lines as hex strings)."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "cpi_stacks": [stack.to_dict() for stack in self.stacks],
            "hot_blocks": [block.to_dict() for block in self.blocks],
            "pc_misses": {f"{pc:#x}": dict(events)
                          for pc, events in sorted(self.pc_misses.items())},
            "line_misses": {f"{line:#x}": count
                            for line, count
                            in sorted(self.line_misses.items())},
        }
