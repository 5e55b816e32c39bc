"""Read-only pages: the store access fault on every store path.

``DataBlock(readonly=True)`` marks bytes a program promises never to
store into; the machine turns the pages wholly inside such ranges into
``readonly_pages``, and a store touching one is a precise
``StoreAccessFault`` (mcause 7) — raised before a byte is written,
reported as the same ``SimulationError`` (message, pc and cycle) by the
reference loop and by the fast loop with translation on and off.  The
translated fast path relies on the promise to let micro-blocks load
from those pages ahead of their cycle, so the fault is what keeps the
promise honest.
"""

import pytest

from repro.assembler import DataBlock, assemble
from repro.assembler.program import Program
from repro.api import Simulation, SimulationConfig
from repro.coyote.errors import SimulationError
from repro.kernels import scalar_matmul
from repro.spike.hart import StoreAccessFault
from repro.spike.machine import whole_pages
from tests.coyote.loop_spec import use_loop_spec

_PAYLOAD = bytes(range(256)) * 16    # one page

# name -> the faulting instruction(s); t3 points 64 bytes into the
# read-only page, v1 holds four doublewords loaded from it.
STORES = {
    "sd": ["sd t2, 0(t3)"],
    "fsd": ["fld ft0, 8(t0)", "fsd ft0, 0(t3)"],
    "amoadd.w": ["amoadd.w t4, t1, (t3)"],
    "vse64.v": ["vsetivli zero, 4, e64, m1, ta, ma", "vle64.v v1, (t0)",
                "vse64.v v1, (t3)"],
    "vsse64.v": ["vsetivli zero, 4, e64, m1, ta, ma", "vle64.v v1, (t0)",
                 "li t5, 16", "vsse64.v v1, (t3), t5"],
}


def _source(store: list[str], cores: int) -> str:
    """Every hart sums the read-only table in a loop (guarded loads in
    a looping block); the others store their sum to writable memory and
    exit, the last one executes ``store`` into the table."""
    body = "\n".join(f"    {line}" for line in store)
    return f""".text
_start:
    la   t0, table
    addi t3, t0, 64
    li   t1, 24
    li   t2, 0
sum:
    ld   t4, 0(t0)
    add  t2, t2, t4
    addi t0, t0, 8
    addi t1, t1, -1
    bnez t1, sum
    la   t0, table
    csrr a0, mhartid
    li   t5, {cores - 1}
    beq  a0, t5, last
    la   t5, scratch
    sd   t2, 0(t5)
    j    done
last:
{body}
done:
    li   a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
scratch: .dword 0
"""


def _program(store: list[str], cores: int) -> Program:
    return assemble(_source(store, cores), data=[
        DataBlock("table", _PAYLOAD, align=4096, readonly=True)])


_LOOPS = (("reference", True, False), ("fast-interpreter", False, False),
          ("fast-translated", False, True))


def _fault(program, cores, reference, translate):
    config = SimulationConfig.for_cores(cores, translate=translate)
    simulation = Simulation(config, program)
    use_loop_spec(simulation.orchestrator, reference)
    with pytest.raises(SimulationError) as caught:
        simulation.run()
    error = caught.value
    assert isinstance(error.__cause__, StoreAccessFault)
    assert error.__cause__.mcause == 7
    table = program.symbols["table"]
    # Precise: not a byte of the page was written.
    assert simulation.memory.load_bytes(table, len(_PAYLOAD)) == _PAYLOAD
    return str(error), error.current_cycle, error.__cause__.pc


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("name", sorted(STORES))
def test_a_store_into_a_readonly_page_faults_alike_in_every_loop(
        name, cores):
    program = _program(STORES[name], cores)
    faults = {loop: _fault(program, cores, reference, translate)
              for loop, reference, translate in _LOOPS}
    message, cycle, pc = faults["reference"]
    assert message.startswith(f"core {cores - 1}: store access fault at "
                              f"{program.symbols['table'] + 64:#x}")
    assert pc == program.symbols["last"] + 4 * (len(STORES[name]) - 1)
    assert cycle > 0
    assert all(fault == faults["reference"] for fault in faults.values())


def test_a_polling_loop_sees_another_harts_store_on_its_cycle():
    """Why a tail load must be on a read-only page: hart 1 polls a
    writable word in a loop of loads and compute (a block that loops in
    place) while hart 0 stores to it; every loop must count the same
    polls before the store becomes visible."""
    source = """.text
_start:
    la   t0, flag
    csrr a0, mhartid
    bnez a0, poll
    li   t1, 1000
spin:
    addi t1, t1, -1
    bnez t1, spin
    li   t2, 1
    sd   t2, 0(t0)
    j    done
poll:
    li   t3, 0
again:
    ld   t2, 0(t0)
    addi t3, t3, 1
    beqz t2, again
    la   t4, polls
    sd   t3, 0(t4)
done:
    li   a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
flag: .dword 0
polls: .dword 0
"""
    program = assemble(source, data=[
        DataBlock("table", _PAYLOAD, align=4096, readonly=True)])
    counts = set()
    for _loop, reference, translate in _LOOPS:
        config = SimulationConfig.for_cores(2, translate=translate)
        simulation = Simulation(config, program)
        use_loop_spec(simulation.orchestrator, reference)
        results = simulation.run()
        counts.add((results.cycles, simulation.memory.load_int(
            program.symbols["polls"], 8)))
    (_cycles, polls), = counts
    assert polls > 10


def test_the_same_program_unmarked_runs_to_completion():
    source = _source(STORES["sd"], 2)
    program = assemble(source, data=[
        DataBlock("table", _PAYLOAD, align=4096)])
    assert program.readonly == []
    results = Simulation(SimulationConfig.for_cores(2), program).run()
    assert results.exit_codes == {0: 0, 1: 0}


class TestPages:
    def test_only_pages_wholly_inside_touching_ranges(self):
        # [0x1800, 0x3800) as one range: only page 2 is whole.
        assert whole_pages([(0x2000, 0x3800), (0x1800, 0x2000),
                            (0x5000, 0x5FFF)]) == {2}

    def test_assembler_records_each_readonly_block(self):
        program = assemble(".text\nret\n", data=[
            DataBlock("a", bytes(16), readonly=True),
            DataBlock("b", bytes(8)),
            DataBlock("c", bytes(24), readonly=True),
            DataBlock("d", b"", readonly=True)])
        symbols = program.symbols
        assert program.readonly == [(symbols["a"], symbols["a"] + 16),
                                    (symbols["c"], symbols["c"] + 24)]

    def test_machine_and_harts_share_one_set(self):
        workload = scalar_matmul(size=48, num_cores=2)
        simulation = Simulation(SimulationConfig.for_cores(2),
                                workload.program)
        machine = simulation.orchestrator.machine
        assert machine.readonly_pages
        assert all(hart._readonly_pages is machine.readonly_pages
                   for hart in machine.harts)
        # The output matrix is writable.
        assert machine.program.symbols["mat_c"] >> 12 \
            not in machine.readonly_pages
