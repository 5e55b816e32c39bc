"""Functional tests of the RVV-subset vector unit."""

import struct

import pytest

from repro.assembler import assemble
from repro.api import Simulation, SimulationConfig, SimulationError
from repro.spike.vector import VectorConfigError
from repro.utils.bitops import to_unsigned

from tests.conftest import make_hart, read_velem, run_until_ebreak

VLEN = 256  # test harts use VLEN=256 -> 4 x e64 per register


def run_body(body: str, data: str = "", vlen_bits: int = VLEN):
    source = (f".text\n_start:\n{body}\n    ebreak\n"
              f".data\n.align 3\nvresult: .zero 256\n{data}\n")
    hart = make_hart(source, vlen_bits=vlen_bits)
    run_until_ebreak(hart)
    return hart


def velems(hart, reg, count, sew=64):
    return [read_velem(hart, reg, i, sew) for i in range(count)]


def vfelems(hart, reg, count):
    return [struct.unpack("<d", bytes(hart.vregs[reg][8 * i:8 * i + 8]))[0]
            for i in range(count)]


class TestConfiguration:
    def test_vsetvli_grants_avl(self):
        hart = run_body("li a0, 3\nvsetvli a1, a0, e64, m1, ta, ma")
        assert hart.regs[11] == 3 and hart.vl == 3

    def test_vsetvli_caps_at_vlmax(self):
        hart = run_body("li a0, 100\nvsetvli a1, a0, e64, m1, ta, ma")
        assert hart.regs[11] == 4  # VLEN=256 / 64

    def test_vlmax_request_via_x0(self):
        hart = run_body("vsetvli a1, zero, e32, m1, ta, ma")
        assert hart.regs[11] == 8

    def test_lmul_expands_vlmax(self):
        hart = run_body("li a0, 100\nvsetvli a1, a0, e64, m4, ta, ma")
        assert hart.regs[11] == 16

    def test_vsetivli(self):
        hart = run_body("vsetivli a1, 2, e64, m1, ta, ma")
        assert hart.regs[11] == 2

    def test_vl_vtype_csrs(self):
        hart = run_body("""
    li a0, 3
    vsetvli a1, a0, e32, m2, ta, ma
    csrr a2, vl
    csrr a3, vtype
    csrr a4, vlenb
""")
        assert hart.regs[12] == 3
        from repro.isa.vtype import VType
        vtype = VType.decode(hart.regs[13])
        assert vtype.sew == 32 and int(vtype.lmul) == 2
        assert hart.regs[14] == VLEN // 8

    def test_vector_op_without_config_traps(self):
        hart = make_hart(".text\n_start:\nvadd.vv v1, v2, v3\n")
        with pytest.raises(VectorConfigError):
            hart.step()


class TestIntegerOps:
    def test_vid_vadd(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v2, v1, 10
""")
        assert velems(hart, 2, 4) == [10, 11, 12, 13]

    def test_vadd_vx(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    li a2, 100
    vadd.vx v2, v1, a2
""")
        assert velems(hart, 2, 4) == [100, 101, 102, 103]

    def test_vmul_and_vmacc(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 3
    vmul.vv v3, v1, v2        # 0 3 6 9
    vmv.v.i v4, 1
    vmacc.vv v4, v1, v2       # 1 + i*3
""")
        assert velems(hart, 3, 4) == [0, 3, 6, 9]
        assert velems(hart, 4, 4) == [1, 4, 7, 10]

    def test_vrsub_vi(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vrsub.vi v2, v1, 3        # 3 - i
""")
        assert velems(hart, 2, 4) == [3, 2, 1, 0]

    def test_signed_ops_at_sew32(self):
        hart = run_body("""
    vsetvli a1, zero, e32, m1, ta, ma
    vid.v v1
    vrsub.vi v2, v1, 0        # -i
    li a2, -1
    vmax.vx v3, v2, zero      # max(-i, 0) = 0
    vmin.vx v4, v2, a2        # min(-i, -1)
""")
        assert velems(hart, 3, 4, sew=32) == [0, 0, 0, 0]
        expected = [to_unsigned(min(-i, -1), 32) for i in range(4)]
        assert velems(hart, 4, 4, sew=32) == expected

    def test_shifts(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vsll.vi v2, v1, 4
""")
        assert velems(hart, 2, 4) == [0, 16, 32, 48]

    def test_vdiv_vrem(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 7         # 7 8 9 10
    li a2, 3
    vdiv.vx v2, v1, a2
    vrem.vx v3, v1, a2
""")
        assert velems(hart, 2, 4) == [2, 2, 3, 3]
        assert velems(hart, 3, 4) == [1, 2, 0, 1]

    def test_reduction_sum(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 0
    vredsum.vs v3, v1, v2
    vmv.x.s a0, v3
""")
        assert hart.regs[10] == 0 + 1 + 2 + 3

    def test_reduction_max(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 0
    vredmax.vs v3, v1, v2
    vmv.x.s a0, v3
""")
        assert hart.regs[10] == 3


class TestMasks:
    def test_compare_writes_mask_bits(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1        # mask = i > 1
    vmv.v.i v2, 0
    li a2, 100
    vadd.vx v2, v1, a2, v0.t
""")
        assert velems(hart, 2, 4) == [0, 0, 102, 103]

    def test_vmerge(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, 7
    li a2, 55
    vmerge.vxm v3, v2, a2, v0
""")
        assert velems(hart, 3, 4) == [7, 7, 55, 55]

    def test_viota(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v2, v1, 0        # 0 1 1 1
    viota.m v3, v2
""")
        assert velems(hart, 3, 4) == [0, 0, 1, 2]

    def test_masked_vid(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, -1
    vid.v v2, v0.t
""")
        ones = to_unsigned(-1)
        assert velems(hart, 2, 4) == [ones, ones, 2, 3]


class TestSlidesAndGather:
    def test_slidedown(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vslidedown.vi v2, v1, 1
""")
        assert velems(hart, 2, 4) == [1, 2, 3, 0]

    def test_slideup(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmv.v.i v2, 9
    vslideup.vi v2, v1, 2
""")
        assert velems(hart, 2, 4) == [9, 9, 0, 1]

    def test_vrgather(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 10        # 10 11 12 13
    vrsub.vi v2, v1, 13       # reverse indices 3 2 1 0 ... careful
    vid.v v2
    vrsub.vi v2, v2, 3        # 3 2 1 0
    vrgather.vv v3, v1, v2
""")
        assert velems(hart, 3, 4) == [13, 12, 11, 10]

    def test_vrgather_out_of_range_zero(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 5
    li a2, 99
    vrgather.vx v3, v1, a2
""")
        assert velems(hart, 3, 4) == [0, 0, 0, 0]


class TestMemoryOps:
    DATA = """
vin:
    .dword 10, 20, 30, 40, 50, 60, 70, 80
"""

    def test_unit_stride_load_store(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
    vadd.vi v1, v1, 1
    la a2, vresult
    vse64.v v1, (a2)
    ld a3, 0(a2)
    ld a4, 24(a2)
""", data=self.DATA)
        assert hart.regs[13] == 11 and hart.regs[14] == 41

    def test_strided_load(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    li a2, 16
    vlse64.v v1, (a0), a2
""", data=self.DATA)
        assert velems(hart, 1, 4) == [10, 30, 50, 70]

    def test_indexed_gather(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vid.v v2
    vsll.vi v2, v2, 4         # byte offsets 0, 16, 32, 48
    vluxei64.v v1, (a0), v2
""", data=self.DATA)
        assert velems(hart, 1, 4) == [10, 30, 50, 70]

    def test_indexed_scatter(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vadd.vi v1, v1, 1         # 1 2 3 4
    vid.v v2
    vsll.vi v2, v2, 4         # scatter to every other dword
    la a0, vresult
    vsuxei64.v v1, (a0), v2
    ld a2, 0(a0)
    ld a3, 16(a0)
    ld a4, 8(a0)
""", data=self.DATA)
        assert hart.regs[12] == 1 and hart.regs[13] == 2
        assert hart.regs[14] == 0  # untouched gap

    def test_masked_load_leaves_inactive(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    vid.v v1
    vmsgt.vi v0, v1, 1
    vmv.v.i v2, -1
    la a0, vin
    vle64.v v2, (a0), v0.t
""", data=self.DATA)
        ones = to_unsigned(-1)
        assert velems(hart, 2, 4) == [ones, ones, 30, 40]

    def test_vl_limits_elements(self):
        hart = run_body("""
    li a2, 2
    vsetvli a1, a2, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
""", data=self.DATA)
        assert velems(hart, 1, 2) == [10, 20]
        assert read_velem(hart, 1, 2, 64) == 0  # tail untouched

    def test_element_accesses_recorded(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, vin
    vle64.v v1, (a0)
    ebreak
.data
.align 3
vin: .dword 1, 2, 3, 4
""", vlen_bits=VLEN)
        # vsetvli + la (2 real instructions) + vle64 = 4 steps.
        for _ in range(4):
            hart.step()
        assert len(hart.accesses) == 4  # one recorded access per element
        assert all(access.size == 8 and not access.is_write
                   for access in hart.accesses)


class TestFloatOps:
    DATA = """
fin:
    .double 1.0, 2.0, 3.0, 4.0
fscale:
    .double 0.5
"""

    def test_vfadd_vfmul(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    vfadd.vv v2, v1, v1
    vfmul.vv v3, v1, v1
""", data=self.DATA)
        assert vfelems(hart, 2, 4) == [2.0, 4.0, 6.0, 8.0]
        assert vfelems(hart, 3, 4) == [1.0, 4.0, 9.0, 16.0]

    def test_vfmacc_vf(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    la a2, fscale
    fld fa0, 0(a2)
    vmv.v.i v2, 0
    vfmacc.vf v2, fa0, v1      # 0 + 0.5 * v1
""", data=self.DATA)
        assert vfelems(hart, 2, 4) == [0.5, 1.0, 1.5, 2.0]

    def test_vfredosum(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    fmv.d.x fa0, zero
    vfmv.s.f v4, fa0
    vfredosum.vs v5, v1, v4
    vfmv.f.s fa1, v5
""", data=self.DATA)
        assert hart.fregs[11] == 10.0

    def test_vfmv_v_f(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a2, fscale
    fld fa0, 0(a2)
    vfmv.v.f v1, fa0
""", data=self.DATA)
        assert vfelems(hart, 1, 4) == [0.5] * 4

    def test_vmflt_mask(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m1, ta, ma
    la a0, fin
    vle64.v v1, (a0)
    la a2, fscale
    fld fa0, 0(a2)
    vfmv.v.f v2, fa0
    vfadd.vf v2, v2, fa0      # 1.0 broadcast... v2 = 1.0
    vmflt.vv v0, v1, v2       # fin < 1.0 -> none
    vmfle.vv v3, v1, v2       # fin <= 1.0 -> first only
""", data=self.DATA)
        assert (hart.vregs[0][0] & 1) == 0
        assert (hart.vregs[3][0] & 0xF) == 0b0001

    def test_fp_op_at_sew8_traps(self):
        hart = make_hart(""".text
_start:
    vsetvli a1, zero, e8, m1, ta, ma
    vfadd.vv v1, v2, v3
""")
        hart.step()
        with pytest.raises(VectorConfigError):
            hart.step()


class TestLmulGroups:
    def test_lmul2_spans_registers(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m2, ta, ma   # vl = 8 across v-pairs
    vid.v v2
    vadd.vi v4, v2, 1
""")
        # Group v2..v3 holds 0..7; group v4..v5 holds 1..8.
        values = [read_velem(hart, 2, i, 64) for i in range(8)]
        assert values == list(range(8))
        values4 = [read_velem(hart, 4, i, 64) for i in range(8)]
        assert values4 == [v + 1 for v in range(8)]

    def test_lmul2_memory_roundtrip(self):
        hart = run_body("""
    vsetvli a1, zero, e64, m2, ta, ma
    vid.v v2
    la a0, vresult
    vse64.v v2, (a0)
    ld a2, 56(a0)
""")
        assert hart.regs[12] == 7


def simulate(body: str, translate: bool):
    """Run ``body`` to its HTIF exit on one core of the full simulator,
    interpreted or through translated blocks; returns the hart."""
    program = assemble(f""".text
_start:
{body}
    li   a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
vin:    .dword 10, 20, 30, 40, 50, 60, 70, 80
""")
    simulation = Simulation(
        SimulationConfig.for_cores(1, translate=translate), program)
    simulation.run()
    return simulation.orchestrator.machine.harts[0]


_REDUCTIONS = ("vredsum", "vredand", "vredor", "vredxor", "vredminu",
               "vredmin", "vredmaxu", "vredmax", "vfredosum", "vfredusum",
               "vfredmin", "vfredmax")


@pytest.mark.parametrize("translate", [False, True])
class TestRegressions:
    @pytest.mark.parametrize("op", _REDUCTIONS)
    def test_reduction_with_vl_zero_leaves_vd_alone(self, op, translate):
        """RVV 1.0: with vl = 0 a reduction performs no operation and
        does not update vd (it used to copy vs1[0] into vd[0])."""
        hart = simulate(f"""
    vsetvli t1, zero, e64, m1, ta, ma
    vid.v v2
    vmv.v.i v5, 7
    vmv.v.i v6, 9
    li t0, 0
    vsetvli t1, t0, e64, m1, ta, ma
    {op}.vs v6, v2, v5
""", translate)
        assert hart.vl == 0
        assert velems(hart, 6, 8) == [9] * 8

    @pytest.mark.parametrize("line", [
        "vle64.v v1, (a1)", "vse32.v v1, (a1)",
        "vlse16.v v1, (a1), a2", "vsse8.v v1, (a1), a2",
        "vluxei64.v v1, (a1), v2", "vadd.vv v1, v2, v3"])
    def test_every_vector_instruction_traps_under_vill(self, line,
                                                       translate):
        """vtype is vill out of reset.  Arithmetic and indexed accesses
        trapped; unit-stride and strided ones ran zero elements."""
        with pytest.raises(SimulationError, match="vtype is vill"):
            simulate(f"    la a1, vin\n    li a2, 8\n    {line}", translate)

    def test_vmfne_is_true_of_a_nan(self, translate):
        """IEEE: != holds when either side is a NaN (it came out 0)."""
        hart = simulate("""
    vsetvli t1, zero, e64, m1, ta, ma
    la a1, vin
    vle64.v v1, (a1)              # integers as doubles: ordinary numbers
    vmv.v.v v2, v1
    li t0, -1                     # all-ones: a NaN
    vmv.s.x v2, t0
    fmv.d.x fa0, t0
    vmfne.vv v4, v1, v2           # NaN in element 0 only
    vmfne.vf v5, v1, fa0          # NaN against every element
    vmfeq.vf v6, v1, fa0
""", translate)
        assert hart.vregs[4][0] == 0b0000_0001
        assert hart.vregs[5][0] == 0b1111_1111
        assert hart.vregs[6][0] == 0


def test_vill_traps_in_the_bare_hart_too():
    hart = make_hart(".text\n_start:\nvle64.v v1, (a0)\n")
    with pytest.raises(VectorConfigError):
        hart.step()
