"""Differential testing of scalar FP execution against numpy float64.

Random operand values (including signed zeros and extremes) flow through
each double-precision operation; expected results come from numpy, whose
IEEE-754 semantics are independent of the hart's Python-float executors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembler import assemble
from repro.api import Simulation, SimulationConfig

from tests.conftest import make_hart, run_until_ebreak

_FLOATS = st.floats(allow_nan=False, allow_infinity=False,
                    allow_subnormal=True)

_BIN_OPS = {
    "fadd.d": np.add,
    "fsub.d": np.subtract,
    "fmul.d": np.multiply,
    "fmin.d": np.minimum,
    "fmax.d": np.maximum,
}


def run_fp_binary(op: str, a: float, b: float) -> float:
    source = f""".text
_start:
    la a0, va
    fld fa0, 0(a0)
    la a0, vb
    fld fa1, 0(a0)
    {op} fa2, fa0, fa1
    la a0, vout
    fsd fa2, 0(a0)
    ebreak
.data
.align 3
va:   .double {a!r}
vb:   .double {b!r}
vout: .double 0.0
"""
    hart = make_hart(source)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 8)
    return float(np.frombuffer(raw, dtype=np.float64)[0])


@pytest.mark.parametrize("op", sorted(_BIN_OPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_binary_matches_numpy(op, data):
    a = data.draw(_FLOATS)
    b = data.draw(_FLOATS)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(_BIN_OPS[op](np.float64(a), np.float64(b)))
    actual = run_fp_binary(op, a, b)
    assert actual == expected or (math.isnan(actual)
                                  and math.isnan(expected)), \
        f"{op}({a!r}, {b!r}) = {actual!r}, numpy says {expected!r}"


@settings(max_examples=40, deadline=None)
@given(a=_FLOATS, b=_FLOATS, c=_FLOATS)
def test_fmadd_close_to_numpy(a, b, c):
    """Our fmadd is an unfused a*b+c (double rounding); it must agree
    with numpy's unfused computation exactly."""
    source = f""".text
_start:
    la a0, va
    fld fa0, 0(a0)
    la a0, vb
    fld fa1, 0(a0)
    la a0, vc
    fld fa2, 0(a0)
    fmadd.d fa3, fa0, fa1, fa2
    la a0, vout
    fsd fa3, 0(a0)
    ebreak
.data
.align 3
va:   .double {a!r}
vb:   .double {b!r}
vc:   .double {c!r}
vout: .double 0.0
"""
    hart = make_hart(source)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 8)
    actual = float(np.frombuffer(raw, dtype=np.float64)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.float64(a) * np.float64(b) + np.float64(c))
    assert actual == expected or (math.isnan(actual)
                                  and math.isnan(expected))


@settings(max_examples=40, deadline=None)
@given(value=st.floats(min_value=0.0, allow_nan=False,
                       allow_infinity=False))
def test_fsqrt_matches_numpy(value):
    source = f""".text
_start:
    la a0, va
    fld fa0, 0(a0)
    fsqrt.d fa1, fa0
    la a0, vout
    fsd fa1, 0(a0)
    ebreak
.data
.align 3
va:   .double {value!r}
vout: .double 0.0
"""
    hart = make_hart(source)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 8)
    actual = float(np.frombuffer(raw, dtype=np.float64)[0])
    assert actual == float(np.sqrt(np.float64(value)))


@settings(max_examples=40, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e18, max_value=1e18))
def test_fcvt_l_d_truncates_like_numpy(value):
    source = f""".text
_start:
    la a0, va
    fld fa0, 0(a0)
    fcvt.l.d a1, fa0
    la a0, vout
    sd a1, 0(a0)
    ebreak
.data
.align 3
va:   .double {value!r}
vout: .dword 0
"""
    hart = make_hart(source)
    run_until_ebreak(hart)
    raw = hart.memory.load_bytes(hart.program_symbols["vout"], 8)
    actual = int(np.frombuffer(raw, dtype=np.int64)[0])
    assert actual == int(np.trunc(np.float64(value)))


# ---------------------------------------------------------------------------
# binary32 overflow: results beyond the float32 range round to the
# infinity of their sign (IEEE 754 round-to-nearest) instead of raising
# inside the host.  Expected values come from ``numpy.float32``; every
# case runs through the whole simulator with the block translator on and
# off, so both the interpreter's and the translated spelling are covered.
# ---------------------------------------------------------------------------

_F32_MAX = float(np.finfo(np.float32).max)
# The double exactly halfway between float32's maximum and 2**128 — the
# first value that rounds (to even) to infinity — and the one before it.
_F32_ROUNDS_UP = 2.0 ** 128 - 2.0 ** 103
_F32_STAYS = float(np.nextafter(np.float64(_F32_ROUNDS_UP), 0.0))


def _simulate(body: str, data: str, translate: bool):
    program = assemble(f""".text
_start:
{body}
    li a0, 1
    la t6, tohost
    sd a0, 0(t6)
halt:
    j halt
.data
.align 3
tohost: .dword 0
{data}
""")
    simulation = Simulation(
        SimulationConfig.for_cores(1, translate=translate), program)
    results = simulation.run()
    assert results.exit_codes == {0: 0}
    return simulation.memory, program.symbols


def _f32_at(memory, address: int, count: int = 1) -> list:
    raw = memory.load_bytes(address, 4 * count)
    return [float(v) for v in np.frombuffer(raw, dtype=np.float32)]


def _as_f32(value) -> float:
    with np.errstate(over="ignore"):
        return float(np.float32(value))


_OVERFLOW_ARITHMETIC = [
    ("fmul.s fa2, fa0, fa1", _F32_MAX, 2.0, 0.0,
     lambda a, b, c: a * b),
    ("fmul.s fa2, fa0, fa1", -_F32_MAX, 2.0, 0.0,
     lambda a, b, c: a * b),
    ("fadd.s fa2, fa0, fa1", _F32_MAX, _F32_MAX, 0.0,
     lambda a, b, c: a + b),
    ("fsub.s fa2, fa0, fa1", -_F32_MAX, _F32_MAX, 0.0,
     lambda a, b, c: a - b),
    ("fmadd.s fa2, fa0, fa1, fa3", _F32_MAX, 16.0, 1.0,
     lambda a, b, c: a * b + c),
    ("fnmadd.s fa2, fa0, fa1, fa3", _F32_MAX, 16.0, 1.0,
     lambda a, b, c: -(a * b) - c),
    # In range: must still match (the fix may not disturb finite results).
    ("fmul.s fa2, fa0, fa1", _F32_MAX, 0.5, 0.0,
     lambda a, b, c: a * b),
]


@pytest.mark.parametrize("translate", [False, True],
                         ids=["interpreter", "translated"])
@pytest.mark.parametrize("line, a, b, c, reference", _OVERFLOW_ARITHMETIC,
                         ids=[case[0].split()[0] + f"({case[1]:.3g})"
                              for case in _OVERFLOW_ARITHMETIC])
def test_binary32_arithmetic_overflows_to_infinity(line, a, b, c,
                                                   reference, translate):
    memory, symbols = _simulate(f"""
    la a0, va
    flw fa0, 0(a0)
    flw fa1, 4(a0)
    flw fa3, 8(a0)
    {line}
    fsw fa2, 12(a0)
""", f"va: .float {a!r}, {b!r}, {c!r}, 0.0", translate)
    # The model computes in binary64 and rounds once, as this does.
    expected = _as_f32(reference(np.float64(a), np.float64(b),
                                 np.float64(c)))
    assert _f32_at(memory, symbols["va"] + 12) == [expected]


@pytest.mark.parametrize("translate", [False, True],
                         ids=["interpreter", "translated"])
@pytest.mark.parametrize("value", [1e300, -1e300, 3.5e38, -3.5e38,
                                   _F32_ROUNDS_UP, -_F32_ROUNDS_UP,
                                   _F32_STAYS, -_F32_STAYS])
def test_fcvt_s_d_and_fsw_overflow_to_infinity(value, translate):
    """``fcvt.s.d`` narrows through the table's rounding helper; ``fsw``
    of a register still holding the wide double narrows in the store."""
    memory, symbols = _simulate("""
    la a0, vd
    fld fa0, 0(a0)
    fcvt.s.d fa1, fa0
    fsw fa1, 8(a0)
    fsw fa0, 12(a0)
    fsd fa1, 16(a0)
""", f"vd: .double {value!r}\n    .float 0.0, 0.0\n    .double 0.0",
        translate)
    expected = _as_f32(np.float64(value))
    assert math.isinf(expected) == (abs(value) >= _F32_ROUNDS_UP)
    assert _f32_at(memory, symbols["vd"] + 8, 2) == [expected, expected]
    widened = np.frombuffer(memory.load_bytes(symbols["vd"] + 16, 8),
                            dtype=np.float64)[0]
    assert float(widened) == expected


@pytest.mark.parametrize("translate", [False, True],
                         ids=["interpreter", "translated"])
def test_vector_binary32_multiply_overflows_to_infinity(translate):
    values = [_F32_MAX, -_F32_MAX, 2.0, 1e20]
    factors = [2.0, 2.0, 3.0, 1e20]
    memory, symbols = _simulate("""
    li a1, 4
    vsetvli a1, a1, e32, m1, ta, ma
    la a0, vin
    vle32.v v1, (a0)
    la a0, vfactor
    vle32.v v2, (a0)
    vfmul.vv v3, v1, v2
    la a0, vout
    vse32.v v3, (a0)
""", f"""vin: .float {", ".join(map(repr, values))}
vfactor: .float {", ".join(map(repr, factors))}
vout: .float 0.0, 0.0, 0.0, 0.0""", translate)
    with np.errstate(over="ignore"):
        expected = np.array(values, dtype=np.float32) \
            * np.array(factors, dtype=np.float32)
    assert list(expected) == [np.inf, -np.inf, 6.0, np.inf]
    assert _f32_at(memory, symbols["vout"], 4) == [float(v)
                                                   for v in expected]
