"""Edge-case tests for hart execution: page crossings, self-modifying
code, unusual vector configurations, multicore memory interactions."""

import pytest

from repro.soc.memory import PAGE_SIZE
from repro.spike.hart import Hart
from repro.spike.vector import VectorConfigError
from repro.utils.bitops import MASK64

from tests.conftest import (
    make_hart,
    read_velem,
    run_steps,
    run_until_ebreak,
)


class TestPageCrossing:
    def test_load_across_page_boundary(self):
        hart = make_hart(f""".text
_start:
    li a0, {PAGE_SIZE - 4}
    li a1, 0x1122334455667788
    sd a1, 0(a0)
    ld a2, 0(a0)
    ebreak
""")
        run_until_ebreak(hart)
        assert hart.regs[12] == 0x1122334455667788

    def test_misaligned_scalar_load_allowed(self):
        """The model permits misaligned accesses (no trap), like Spike
        with misaligned support on."""
        hart = make_hart(""".text
_start:
    la a0, data
    ld a1, 1(a0)
    ebreak
.data
.align 3
data: .dword 0x1122334455667788, 0x99
""")
        run_until_ebreak(hart)
        assert hart.regs[11] == 0x9911223344556677


class TestSelfModifyingCode:
    def test_store_then_fence_i(self):
        """Overwriting an instruction takes effect after fence.i."""
        hart = make_hart(""".text
_start:
    la   t0, patch_site
    # addi a0, zero, 99  ==  0x06300513
    li   t1, 0x06300513
    sw   t1, 0(t0)
    fence.i
patch_site:
    addi a0, zero, 1
    ebreak
""")
        run_until_ebreak(hart)
        assert hart.regs[10] == 99

    def test_store_invalidates_decode_without_fence(self):
        """A store into decoded code takes effect even without fence.i.

        Historically the decode cache was only dropped by fence.i, so
        this program executed the stale cached ``addi a0, zero, 1`` on
        its second pass; the CodeCacheRegistry now invalidates the
        cached decode when any store hits a decoded page.
        """
        hart = make_hart(""".text
_start:
    la   t0, site
    j    site            # warm the decode cache for 'site'
back:
    li   t1, 0x06300513
    sw   t1, 0(t0)
    j    site
site:
    addi a0, zero, 1
    beq  a0, a0, cont    # always taken
cont:
    addi a2, a2, 1
    li   t2, 2
    bltu a2, t2, back
    ebreak
""")
        run_until_ebreak(hart)
        # Second pass through 'site' executed the patched addi.
        assert hart.regs[10] == 99


class TestVectorEdgeCases:
    def test_fractional_lmul_limits_vlmax(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e32, mf2, ta, ma
    ebreak
""", vlen_bits=256)
        run_until_ebreak(hart)
        assert hart.regs[11] == 4  # (256/32) * 1/2

    def test_vsetvl_register_form(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma  # build a vtype in a CSR read
    csrr a2, vtype
    li   a3, 5
    vsetvl a4, a3, a2
    ebreak
""", vlen_bits=512)
        run_until_ebreak(hart)
        assert hart.regs[14] == 5

    def test_illegal_vtype_sets_vill(self):
        hart = make_hart(""".text
_start:
    li   a2, 0x1000000   # garbage vtype bits -> vill
    li   a3, 4
    vsetvl a4, a3, a2
    ebreak
""")
        run_until_ebreak(hart)
        assert hart.regs[14] == 0  # vl forced to 0
        assert hart.vtype.vill

    def test_vector_op_after_vill_traps(self):
        hart = make_hart(""".text
_start:
    li   a2, 0x1000000
    li   a3, 4
    vsetvl a4, a3, a2
    vadd.vv v1, v2, v3
""")
        run_steps(hart, 3)  # li, li, vsetvl
        with pytest.raises(VectorConfigError):
            hart.step()

    def test_vl_zero_executes_no_elements(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    vmv.v.i v1, 5
    li   a2, 0
    vsetvli a1, a2, e64, m1, ta, ma
    vadd.vi v1, v1, 1      # vl = 0: no element changes
    ebreak
""", vlen_bits=256)
        run_until_ebreak(hart)
        assert read_velem(hart, 1, 0, 64) == 5

    def test_sew_change_reinterprets_registers(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    vmv.v.i v1, -1         # all ones
    vsetvli a1, zero, e8, m1, ta, ma
    vmv.v.i v2, 0
    vadd.vi v2, v1, 0      # copy bytes of v1
    ebreak
""", vlen_bits=256)
        run_until_ebreak(hart)
        assert all(read_velem(hart, 2, i, 8) == 0xFF for i in range(32))

    def test_gather_with_8bit_indices(self):
        hart = make_hart(""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e8, m1, ta, ma
    vid.v v2
    vsll.vi v2, v2, 3       # byte offsets 0, 8, 16, 24
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, data
    vluxei8.v v1, (a0), v2
    ebreak
.data
.align 3
data: .dword 11, 22, 33, 44
""", vlen_bits=256)
        run_until_ebreak(hart)
        assert [read_velem(hart, 1, i, 64) for i in range(4)] == \
            [11, 22, 33, 44]

    def test_negative_stride(self):
        hart = make_hart(""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, data
    addi a0, a0, 24         # &data[3]
    li   a3, -8
    vlse64.v v1, (a0), a3   # reversed load
    ebreak
.data
.align 3
data: .dword 1, 2, 3, 4
""", vlen_bits=256)
        run_until_ebreak(hart)
        assert [read_velem(hart, 1, i, 64) for i in range(4)] == \
            [4, 3, 2, 1]


class TestMulticoreMemory:
    def test_amoadd_contention(self):
        """Two harts incrementing a shared counter interleaved one
        instruction at a time never lose an update."""
        source = """.text
_start:
    la   t0, counter
    li   t1, 50
loop:
    li   t2, 1
    amoadd.d zero, t2, (t0)
    addi t1, t1, -1
    bnez t1, loop
done:
    ebreak
.data
.align 3
counter: .dword 0
"""
        from repro.assembler import assemble
        from repro.soc.memory import SparseMemory
        program = assemble(source)
        memory = SparseMemory()
        program.load_into(memory)
        harts = [Hart(i, memory, reset_pc=program.entry)
                 for i in range(2)]
        finished = [False, False]
        from repro.spike.hart import Breakpoint
        while not all(finished):
            for hart in harts:
                if finished[hart.hart_id]:
                    continue
                try:
                    hart.step()
                except Breakpoint:
                    finished[hart.hart_id] = True
        assert memory.load_int(program.symbols["counter"], 8) == 100

    def test_lr_sc_interference(self):
        """A store by another hart to the reserved address breaks the
        reservation?  (Our model only tracks the address per hart; an
        interleaved foreign store does NOT break it — documented
        simplification, matching single-reservation Spike behaviour
        loosely.)"""
        source = """.text
_start:
    la   t0, cell
    lr.d t1, (t0)
    addi t1, t1, 1
    sc.d a0, t1, (t0)
    ebreak
.data
.align 3
cell: .dword 5
"""
        from repro.assembler import assemble
        from repro.soc.memory import SparseMemory
        program = assemble(source)
        memory = SparseMemory()
        program.load_into(memory)
        hart = Hart(0, memory, reset_pc=program.entry)
        run_until_ebreak(hart)
        assert hart.regs[10] == 0
        assert memory.load_int(program.symbols["cell"], 8) == 6


class TestRegisterFileInvariants:
    def test_all_registers_stay_64bit(self):
        hart = make_hart(""".text
_start:
    li a0, -1
    slli a1, a0, 1
    mul  a2, a0, a0
    ebreak
""")
        run_until_ebreak(hart)
        assert all(0 <= value <= MASK64 for value in hart.regs)

    def test_write_reg_masks(self):
        hart = make_hart(".text\n_start:\nebreak\n")
        hart.write_reg(5, 1 << 70)
        assert hart.regs[5] == 0
        hart.write_reg(5, -1)
        assert hart.regs[5] == MASK64
