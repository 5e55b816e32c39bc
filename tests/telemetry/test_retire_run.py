"""``CoreProfile.retire_run`` records what per-instruction retires do.

A translated block reports the instructions it retired in one accrual
(``BlockTranslator._observed``); the interpreter reports one at a time.
The oracle below is the per-instruction hook as it was when blocks
called it once per instruction, kept verbatim; the property drives both
with the same generated runs — fall-through into the next block,
re-entry where a miss exit cut a run short, taken branches to anywhere,
vector/scalar mixes — and compares everything the collector holds.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.guestprof import CoreProfile

BASE = 0x8000_0000


def oracle_retire(self, pc, instr):
    if pc != self._expect_pc:
        self._block_start = pc
    entry = self.blocks.get(self._block_start)
    if entry is None:
        entry = self.blocks[self._block_start] = [0, pc]
    entry[0] += 1
    if pc > entry[1]:
        entry[1] = pc
    if instr.is_branch or instr.is_jump:
        # Control flow ends the block; the successor starts a new
        # one whatever pc it lands on.
        self._expect_pc = -1
    else:
        self._expect_pc = pc + 4
    if instr.is_vector:
        self.retired_vector += 1
    else:
        self.retired_scalar += 1


def state(profile):
    return (profile.blocks, profile.retired_scalar, profile.retired_vector,
            profile._block_start, profile._expect_pc)


# One instruction of the text: vector or scalar; branch, jump or neither.
instructions = st.builds(
    SimpleNamespace, is_vector=st.booleans(),
    is_branch=st.integers(0, 5).map(lambda roll: roll == 0),
    is_jump=st.integers(0, 9).map(lambda roll: roll == 0))

# A run: where it starts (None: where the last one stopped — the
# fall-through block, or the re-entry after a miss exit) and how many
# instructions the dispatcher's window and the L1 let it retire.
runs = st.lists(st.tuples(st.none() | st.integers(0, 47),
                          st.integers(1, 12)), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(text=st.lists(instructions, min_size=1, max_size=48), runs=runs)
def test_retire_run_matches_per_instruction_retires(text, runs):
    batched, stepped = CoreProfile(0), CoreProfile(0)
    cursor = 0
    for start, length in runs:
        if start is not None:
            cursor = start
        cursor %= len(text)
        # A block ends at its first control instruction (inclusive) and
        # at the end of the text; a miss exit ends the run earlier.
        run = []
        for instr in text[cursor:cursor + length]:
            run.append(instr)
            if instr.is_branch or instr.is_jump:
                break
        pc = BASE + 4 * cursor
        batched.retire_run(pc, len(run),
                           sum(instr.is_vector for instr in run),
                           run[-1].is_branch or run[-1].is_jump)
        for offset, instr in enumerate(run):
            oracle_retire(stepped, pc + 4 * offset, instr)
        assert state(batched) == state(stepped)
        cursor += len(run)
    assert batched.retired_scalar + batched.retired_vector \
        == sum(count for count, _last in batched.blocks.values())


def test_retire_is_a_run_of_one():
    """The interpreter's hook goes through the same rule."""
    one, stepped = CoreProfile(0), CoreProfile(0)
    text = [SimpleNamespace(is_vector=index % 3 == 0, is_branch=index == 4,
                            is_jump=False) for index in range(8)]
    for index, instr in enumerate(text):
        one.retire(BASE + 4 * index, instr)
        oracle_retire(stepped, BASE + 4 * index, instr)
    assert state(one) == state(stepped)
