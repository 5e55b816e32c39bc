"""Directed tests for the vector multiply-accumulate families.

The four integer (vmacc/vnmsac/vmadd/vnmsub) and eight FP
(vfmacc/vfnmacc/vfmsac/vfnmsac/vfmadd/vfnmadd/vfmsub/vfnmsub) ops have
three-operand semantics where ``vd`` is both source and destination;
each is checked against its RVV 1.0 definition.
"""

import numpy as np
import pytest

from tests.conftest import make_hart, run_until_ebreak

VLEN = 256

# vd' = f(vd, op1, vs2) per the RVV spec.
_INT_SEMANTICS = {
    "vmacc": lambda vd, op1, vs2: vd + op1 * vs2,
    "vnmsac": lambda vd, op1, vs2: vd - op1 * vs2,
    "vmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vnmsub": lambda vd, op1, vs2: vs2 - vd * op1,
}

_FP_SEMANTICS = {
    "vfmacc": lambda vd, op1, vs2: op1 * vs2 + vd,
    "vfnmacc": lambda vd, op1, vs2: -(op1 * vs2) - vd,
    "vfmsac": lambda vd, op1, vs2: op1 * vs2 - vd,
    "vfnmsac": lambda vd, op1, vs2: -(op1 * vs2) + vd,
    "vfmadd": lambda vd, op1, vs2: vd * op1 + vs2,
    "vfnmadd": lambda vd, op1, vs2: -(vd * op1) - vs2,
    "vfmsub": lambda vd, op1, vs2: vd * op1 - vs2,
    "vfnmsub": lambda vd, op1, vs2: -(vd * op1) + vs2,
}

_VD = [3, -2, 7, 0]
_OP1 = [5, 4, -1, 9]
_VS2 = [2, -3, 6, 1]


@pytest.mark.parametrize("op", sorted(_INT_SEMANTICS))
def test_integer_macc_vv(op):
    source = f""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, vvd
    vle64.v v8, (a0)
    la   a0, vop1
    vle64.v v1, (a0)
    la   a0, vvs2
    vle64.v v2, (a0)
    {op}.vv v8, v1, v2
    la   a0, vout
    vse64.v v8, (a0)
    ebreak
.data
.align 3
vvd:  .dword {', '.join(str(v) for v in _VD)}
vop1: .dword {', '.join(str(v) for v in _OP1)}
vvs2: .dword {', '.join(str(v) for v in _VS2)}
vout: .zero 32
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 32)
    actual = np.frombuffer(raw, dtype=np.int64)
    expected = [_INT_SEMANTICS[op](vd, op1, vs2)
                for vd, op1, vs2 in zip(_VD, _OP1, _VS2)]
    assert list(actual) == expected


@pytest.mark.parametrize("op", sorted(_INT_SEMANTICS))
def test_integer_macc_vx(op):
    scalar = -3
    source = f""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, vvd
    vle64.v v8, (a0)
    la   a0, vvs2
    vle64.v v2, (a0)
    li   a3, {scalar}
    {op}.vx v8, a3, v2
    la   a0, vout
    vse64.v v8, (a0)
    ebreak
.data
.align 3
vvd:  .dword {', '.join(str(v) for v in _VD)}
vvs2: .dword {', '.join(str(v) for v in _VS2)}
vout: .zero 32
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 32)
    actual = np.frombuffer(raw, dtype=np.int64)
    expected = [_INT_SEMANTICS[op](vd, scalar, vs2)
                for vd, vs2 in zip(_VD, _VS2)]
    assert list(actual) == expected


_FVD = [1.5, -2.0, 0.25, 4.0]
_FOP1 = [2.0, 3.0, -8.0, 0.5]
_FVS2 = [-1.0, 0.5, 2.0, 6.0]


@pytest.mark.parametrize("op", sorted(_FP_SEMANTICS))
def test_fp_macc_vv(op):
    source = f""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, vvd
    vle64.v v8, (a0)
    la   a0, vop1
    vle64.v v1, (a0)
    la   a0, vvs2
    vle64.v v2, (a0)
    {op}.vv v8, v1, v2
    la   a0, vout
    vse64.v v8, (a0)
    ebreak
.data
.align 3
vvd:  .double {', '.join(repr(v) for v in _FVD)}
vop1: .double {', '.join(repr(v) for v in _FOP1)}
vvs2: .double {', '.join(repr(v) for v in _FVS2)}
vout: .zero 32
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 32)
    actual = np.frombuffer(raw, dtype=np.float64)
    expected = [_FP_SEMANTICS[op](vd, op1, vs2)
                for vd, op1, vs2 in zip(_FVD, _FOP1, _FVS2)]
    assert np.array_equal(actual, np.array(expected))


@pytest.mark.parametrize("op", ["vfmacc", "vfnmsac"])
def test_fp_macc_vf(op):
    scalar = 2.5
    source = f""".text
_start:
    li   a2, 4
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, vvd
    vle64.v v8, (a0)
    la   a0, vvs2
    vle64.v v2, (a0)
    la   a0, fsc
    fld  fa0, 0(a0)
    {op}.vf v8, fa0, v2
    la   a0, vout
    vse64.v v8, (a0)
    ebreak
.data
.align 3
vvd:  .double {', '.join(repr(v) for v in _FVD)}
vvs2: .double {', '.join(repr(v) for v in _FVS2)}
fsc:  .double {scalar!r}
vout: .zero 32
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 32)
    actual = np.frombuffer(raw, dtype=np.float64)
    expected = [_FP_SEMANTICS[op](vd, scalar, vs2)
                for vd, vs2 in zip(_FVD, _FVS2)]
    assert np.array_equal(actual, np.array(expected))
