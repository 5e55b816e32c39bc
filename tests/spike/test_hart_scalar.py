"""Functional tests of scalar integer execution."""

import pytest

from repro.spike.hart import (
    Breakpoint,
    EnvironmentCall,
    IllegalInstructionTrap,
)
from repro.utils.bitops import MASK64, to_unsigned

from tests.conftest import make_hart, run_steps, run_until_ebreak


def run_body(body: str, steps: int | None = None, **hart_kwargs):
    """Assemble a .text body, run to ebreak (or `steps`), return hart."""
    hart = make_hart(f".text\n_start:\n{body}\n    ebreak\n", **hart_kwargs)
    if steps is None:
        run_until_ebreak(hart)
    else:
        run_steps(hart, steps)
    return hart


class TestArithmetic:
    def test_addi(self):
        hart = run_body("addi a0, zero, 42")
        assert hart.regs[10] == 42

    def test_addi_negative_wraps(self):
        hart = run_body("addi a0, zero, -1")
        assert hart.regs[10] == MASK64

    def test_x0_writes_discarded(self):
        hart = run_body("addi zero, zero, 5")
        assert hart.regs[0] == 0

    def test_add_overflow_wraps(self):
        hart = run_body("""
    li a1, 0x7FFFFFFFFFFFFFFF
    addi a2, zero, 1
    add a0, a1, a2
""")
        assert hart.regs[10] == 1 << 63

    def test_sub(self):
        hart = run_body("addi a1, zero, 5\naddi a2, zero, 7\n"
                        "sub a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-2)

    def test_slt_signed(self):
        hart = run_body("addi a1, zero, -1\naddi a2, zero, 1\n"
                        "slt a0, a1, a2")
        assert hart.regs[10] == 1

    def test_sltu_unsigned(self):
        hart = run_body("addi a1, zero, -1\naddi a2, zero, 1\n"
                        "sltu a0, a1, a2")
        assert hart.regs[10] == 0  # 0xFFF..F > 1 unsigned

    def test_logic_ops(self):
        hart = run_body("""
    li a1, 0xF0F0
    li a2, 0x0FF0
    and a3, a1, a2
    or  a4, a1, a2
    xor a5, a1, a2
""")
        assert hart.regs[13] == 0x00F0
        assert hart.regs[14] == 0xFFF0
        assert hart.regs[15] == 0xFF00

    def test_shifts(self):
        hart = run_body("""
    li a1, -8
    srai a2, a1, 1
    srli a3, a1, 60
    slli a4, a1, 1
""")
        assert hart.regs[12] == to_unsigned(-4)
        assert hart.regs[13] == 0xF
        assert hart.regs[14] == to_unsigned(-16)

    def test_shift_by_register_masks_to_6_bits(self):
        hart = run_body("li a1, 1\nli a2, 65\nsll a0, a1, a2")
        assert hart.regs[10] == 2  # 65 & 63 == 1

    def test_addiw_sign_extends(self):
        hart = run_body("li a1, 0x7FFFFFFF\naddiw a0, a1, 1")
        assert hart.regs[10] == to_unsigned(-(1 << 31))

    def test_subw(self):
        hart = run_body("li a1, 0\nli a2, 1\nsubw a0, a1, a2")
        assert hart.regs[10] == MASK64

    def test_sraw(self):
        hart = run_body("li a1, 0x80000000\nli a2, 4\nsraw a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-(1 << 27))


class TestMulDiv:
    def test_mul(self):
        hart = run_body("li a1, 7\nli a2, -3\nmul a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-21)

    def test_mulh(self):
        hart = run_body("li a1, -1\nli a2, -1\nmulh a0, a1, a2")
        assert hart.regs[10] == 0  # (-1 * -1) >> 64

    def test_mulhu(self):
        hart = run_body("li a1, -1\nli a2, -1\nmulhu a0, a1, a2")
        assert hart.regs[10] == MASK64 - 1

    def test_div(self):
        hart = run_body("li a1, -7\nli a2, 2\ndiv a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-3)  # trunc toward zero

    def test_div_by_zero(self):
        hart = run_body("li a1, 5\ndiv a0, a1, zero")
        assert hart.regs[10] == MASK64

    def test_div_overflow(self):
        hart = run_body("li a1, 1\nslli a1, a1, 63\nli a2, -1\n"
                        "div a0, a1, a2")
        assert hart.regs[10] == 1 << 63

    def test_rem(self):
        hart = run_body("li a1, -7\nli a2, 2\nrem a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-1)

    def test_rem_by_zero_returns_dividend(self):
        hart = run_body("li a1, 42\nrem a0, a1, zero")
        assert hart.regs[10] == 42

    def test_divu(self):
        hart = run_body("li a1, -1\nli a2, 2\ndivu a0, a1, a2")
        assert hart.regs[10] == MASK64 // 2

    def test_mulw(self):
        hart = run_body("li a1, 0x10000\nli a2, 0x10000\nmulw a0, a1, a2")
        assert hart.regs[10] == 0  # low 32 bits of 2^32

    def test_divw(self):
        hart = run_body("li a1, -8\nli a2, 2\ndivw a0, a1, a2")
        assert hart.regs[10] == to_unsigned(-4)


class TestMemoryOps:
    def test_store_load_all_widths(self):
        hart = run_body("""
    la  a1, buffer
    li  a2, 0x1122334455667788
    sd  a2, 0(a1)
    ld  a3, 0(a1)
    lw  a4, 0(a1)
    lwu a5, 4(a1)
    lh  a6, 0(a1)
    lhu a7, 0(a1)
    lb  t0, 7(a1)
    lbu t1, 7(a1)
.data
buffer: .zero 16
.text
""")
        assert hart.regs[13] == 0x1122334455667788
        assert hart.regs[14] == 0x55667788
        assert hart.regs[15] == 0x11223344
        assert hart.regs[16] == 0x7788
        assert hart.regs[17] == 0x7788
        assert hart.regs[5] == 0x11
        assert hart.regs[6] == 0x11

    def test_signed_byte_load(self):
        hart = run_body("""
    la a1, buffer
    li a2, 0x80
    sb a2, 0(a1)
    lb a0, 0(a1)
.data
buffer: .zero 8
.text
""")
        assert hart.regs[10] == to_unsigned(-128)

    def test_accesses_recorded(self):
        hart = make_hart(""".text
_start:
    la a1, buffer
    ld a0, 0(a1)
    ebreak
.data
buffer: .dword 7
""")
        run_steps(hart, 3)  # la = 2 instructions, then the load
        assert len(hart.accesses) == 1
        access = hart.accesses[0]
        assert access.size == 8 and not access.is_write


class TestControlFlow:
    def test_loop_sums(self):
        hart = run_body("""
    li a0, 0
    li a1, 10
loop:
    add a0, a0, a1
    addi a1, a1, -1
    bnez a1, loop
""")
        assert hart.regs[10] == 55

    def test_jal_links(self):
        hart = make_hart(""".text
_start:
    jal ra, target
dead:
    nop
target:
    ebreak
""")
        run_until_ebreak(hart)
        assert hart.regs[1] == 0x8000_0004

    def test_jalr_returns(self):
        hart = run_body("""
    call fn
    j done
fn:
    li a0, 99
    ret
done:
    nop
""")
        assert hart.regs[10] == 99

    def test_branch_taken_untaken(self):
        hart = run_body("""
    li a0, 0
    li a1, 5
    beq a1, zero, skip
    addi a0, a0, 1
skip:
    bne a1, zero, skip2
    addi a0, a0, 100
skip2:
    nop
""")
        assert hart.regs[10] == 1

    def test_bltu_vs_blt(self):
        hart = run_body("""
    li a0, 0
    li a1, -1
    li a2, 1
    bltu a1, a2, no1      # unsigned: 0xFF..F > 1, not taken
    addi a0, a0, 1
no1:
    blt a1, a2, yes       # signed: -1 < 1, taken
    addi a0, a0, 100
yes:
    nop
""")
        assert hart.regs[10] == 1


class TestCsr:
    def test_mhartid(self):
        hart = run_body("csrr a0, mhartid", hart_id=3)
        assert hart.regs[10] == 3

    def test_csr_write_read(self):
        hart = run_body("li a1, 0x1234\ncsrw mscratch, a1\n"
                        "csrr a0, mscratch")
        assert hart.regs[10] == 0x1234

    def test_csrrs_sets_bits(self):
        hart = run_body("""
    li a1, 0x0F
    csrw mscratch, a1
    li a2, 0xF0
    csrrs a0, mscratch, a2
    csrr a3, mscratch
""")
        assert hart.regs[10] == 0x0F  # old value returned
        assert hart.regs[13] == 0xFF

    def test_csrrc_clears_bits(self):
        hart = run_body("""
    li a1, 0xFF
    csrw mscratch, a1
    li a2, 0x0F
    csrrc a0, mscratch, a2
    csrr a3, mscratch
""")
        assert hart.regs[13] == 0xF0

    def test_csrrwi(self):
        hart = run_body("csrrwi a0, mscratch, 21\ncsrr a1, mscratch")
        assert hart.regs[11] == 21

    def test_instret_counts(self):
        hart = run_body("nop\nnop\nrdinstret a0")
        assert hart.regs[10] == 2

    def test_read_only_csr_write_traps(self):
        hart = make_hart(".text\n_start:\ncsrw mhartid, a0\n")
        with pytest.raises(IllegalInstructionTrap):
            hart.step()


class TestAtomics:
    def test_amoadd(self):
        hart = run_body("""
    la a1, cell
    li a2, 5
    amoadd.d a0, a2, (a1)
    ld a3, 0(a1)
.data
cell: .dword 10
.text
""")
        assert hart.regs[10] == 10  # old value
        assert hart.regs[13] == 15

    def test_amoswap(self):
        hart = run_body("""
    la a1, cell
    li a2, 77
    amoswap.d a0, a2, (a1)
.data
cell: .dword 3
.text
""")
        assert hart.regs[10] == 3

    def test_amomax_signed(self):
        hart = run_body("""
    la a1, cell
    li a2, -5
    amomax.d a0, a2, (a1)
    ld a3, 0(a1)
.data
cell: .dword -10
.text
""")
        assert hart.regs[13] == to_unsigned(-5)

    def test_amomaxu_unsigned(self):
        hart = run_body("""
    la a1, cell
    li a2, -5
    amomaxu.d a0, a2, (a1)
    ld a3, 0(a1)
.data
cell: .dword 10
.text
""")
        assert hart.regs[13] == to_unsigned(-5)  # 0xFF..FB > 10 unsigned

    def test_lr_sc_success(self):
        hart = run_body("""
    la a1, cell
    lr.d a2, (a1)
    addi a2, a2, 1
    sc.d a0, a2, (a1)
    ld a3, 0(a1)
.data
cell: .dword 41
.text
""")
        assert hart.regs[10] == 0  # success
        assert hart.regs[13] == 42

    def test_sc_without_reservation_fails(self):
        hart = run_body("""
    la a1, cell
    li a2, 9
    sc.d a0, a2, (a1)
    ld a3, 0(a1)
.data
cell: .dword 1
.text
""")
        assert hart.regs[10] == 1  # failure
        assert hart.regs[13] == 1  # unchanged

    def test_amoadd_w_sign_extends(self):
        hart = run_body("""
    la a1, cell
    li a2, 1
    amoadd.w a0, a2, (a1)
.data
cell: .word 0xFFFFFFFF
.text
""")
        assert hart.regs[10] == MASK64  # old value -1 sign-extended


class TestTraps:
    def test_ecall(self):
        hart = make_hart(".text\n_start:\necall\n")
        with pytest.raises(EnvironmentCall):
            hart.step()

    def test_ebreak(self):
        hart = make_hart(".text\n_start:\nebreak\n")
        with pytest.raises(Breakpoint):
            hart.step()

    def test_illegal_instruction(self):
        hart = make_hart(".text\n_start:\n.word 0\n")
        with pytest.raises(IllegalInstructionTrap):
            hart.step()

    def test_fence_i_flushes_decode_cache(self):
        hart = run_body("nop\nfence.i")
        # The nop and fence.i entries were flushed; only the final ebreak
        # (decoded after the flush) remains cached.
        assert list(hart.code_registry.decoded) == [hart.pc]
