"""Differential testing of the vector unit against numpy semantics.

For every integer vector binop, at every SEW, hypothesis generates
random operand vectors; the expected result is computed with numpy
fixed-width arrays (an independent implementation of the semantics).
FP ops are checked at SEW 64 against float64 numpy arithmetic.

The second half widens the oracle: FP at SEW 32 against
``numpy.float32``, LMUL 2, ``vl < VLMAX`` (tail bytes undisturbed),
``v0.t``-masked forms (inactive elements undisturbed), the 8 integer
and 4 FP compares, the 8 integer and 4 FP reductions, slides and
gather.  Register groups are planted and read back as raw bytes, so the
only model code an expectation depends on is ``vsetvli`` and the
instruction under test; every expectation is numpy's.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import make_hart, run_until_ebreak

VLEN = 256

_DTYPES = {8: (np.uint8, np.int8), 16: (np.uint16, np.int16),
           32: (np.uint32, np.int32), 64: (np.uint64, np.int64)}


def _np_vector_op(op: str, a: np.ndarray, b: np.ndarray,
                  sew: int) -> np.ndarray:
    unsigned, signed = _DTYPES[sew]
    ua, ub = a.astype(unsigned), b.astype(unsigned)
    sa, sb = ua.astype(signed), ub.astype(signed)
    shift = (ub & unsigned(sew - 1)).astype(unsigned)
    with np.errstate(over="ignore"):
        if op == "vadd":
            return (ua + ub).astype(unsigned)
        if op == "vsub":
            return (ua - ub).astype(unsigned)
        if op == "vmul":
            return (ua * ub).astype(unsigned)
        if op == "vand":
            return ua & ub
        if op == "vor":
            return ua | ub
        if op == "vxor":
            return ua ^ ub
        if op == "vsll":
            return (ua << shift).astype(unsigned)
        if op == "vsrl":
            return (ua >> shift).astype(unsigned)
        if op == "vsra":
            return (sa >> shift.astype(signed)).astype(unsigned)
        if op == "vmin":
            return np.minimum(sa, sb).astype(unsigned)
        if op == "vminu":
            return np.minimum(ua, ub)
        if op == "vmax":
            return np.maximum(sa, sb).astype(unsigned)
        if op == "vmaxu":
            return np.maximum(ua, ub)
        if op == "vmulhu":
            wide = ua.astype(object) * ub.astype(object)
            return np.array([int(x) >> sew for x in wide],
                            dtype=unsigned)
        if op == "vmulh":
            wide = sa.astype(object) * sb.astype(object)
            return np.array([(int(x) >> sew) & ((1 << sew) - 1)
                             for x in wide], dtype=unsigned)
    raise AssertionError(op)


_ELEMENT = st.integers(min_value=0, max_value=(1 << 64) - 1)
_OPS = ["vadd", "vsub", "vmul", "vand", "vor", "vxor", "vsll", "vsrl",
        "vsra", "vmin", "vminu", "vmax", "vmaxu", "vmulh", "vmulhu"]


def _run_vector_binop(op, sew, a_values, b_values):
    count = len(a_values)
    elem_bytes = sew // 8
    mask = (1 << sew) - 1

    def emit(label, values):
        lines = [f"{label}:"]
        for value in values:
            directive = {1: ".byte", 2: ".half", 4: ".word",
                         8: ".dword"}[elem_bytes]
            lines.append(f"    {directive} {value & mask}")
        return "\n".join(lines) + "\n"

    source = f""".text
_start:
    li   a2, {count}
    vsetvli a1, a2, e{sew}, m1, ta, ma
    la   a0, va
    vle{sew}.v v1, (a0)
    la   a0, vb
    vle{sew}.v v2, (a0)
    {op}.vv v3, v1, v2
    la   a0, vout
    vse{sew}.v v3, (a0)
    ebreak
.data
.align 3
{emit('va', a_values)}
.align 3
{emit('vb', b_values)}
.align 3
vout: .zero {count * elem_bytes}
"""
    hart = make_hart(source, vlen_bits=VLEN)
    run_until_ebreak(hart)
    out_address = hart.program_symbols["vout"]
    raw = hart.memory.load_bytes(out_address, count * elem_bytes)
    unsigned, _signed = _DTYPES[sew]
    return np.frombuffer(raw, dtype=unsigned)


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_vector_binop_matches_numpy(op, sew, data):
    unsigned, _signed = _DTYPES[sew]
    count = data.draw(st.integers(min_value=1,
                                  max_value=VLEN // sew))
    a_values = data.draw(st.lists(_ELEMENT, min_size=count,
                                  max_size=count))
    b_values = data.draw(st.lists(_ELEMENT, min_size=count,
                                  max_size=count))
    mask = (1 << sew) - 1
    a = np.array([value & mask for value in a_values], dtype=unsigned)
    b = np.array([value & mask for value in b_values], dtype=unsigned)
    actual = _run_vector_binop(op, sew, a_values, b_values)
    expected = _np_vector_op(op, a, b, sew)
    assert np.array_equal(actual, expected), \
        f"{op}.vv e{sew}: {actual} != {expected} (a={a}, b={b})"


class TestVectorFpDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-1e10, max_value=1e10,
                              allow_nan=False),
                    min_size=1, max_size=4),
           st.lists(st.floats(min_value=-1e10, max_value=1e10,
                              allow_nan=False),
                    min_size=1, max_size=4),
           st.sampled_from(["vfadd", "vfsub", "vfmul", "vfmin",
                            "vfmax"]))
    def test_fp_binop_matches_numpy(self, a_list, b_list, op):
        count = min(len(a_list), len(b_list))
        a = np.array(a_list[:count])
        b = np.array(b_list[:count])
        reference = {"vfadd": a + b, "vfsub": a - b, "vfmul": a * b,
                     "vfmin": np.minimum(a, b),
                     "vfmax": np.maximum(a, b)}[op]
        source = f""".text
_start:
    li   a2, {count}
    vsetvli a1, a2, e64, m1, ta, ma
    la   a0, va
    vle64.v v1, (a0)
    la   a0, vb
    vle64.v v2, (a0)
    {op}.vv v3, v1, v2
    la   a0, vout
    vse64.v v3, (a0)
    ebreak
.data
.align 3
va: .double {', '.join(repr(float(x)) for x in a)}
vb: .double {', '.join(repr(float(x)) for x in b)}
vout: .zero {8 * count}
"""
        hart = make_hart(source, vlen_bits=VLEN)
        run_until_ebreak(hart)
        raw = hart.memory.load_bytes(hart.program_symbols["vout"],
                                     8 * count)
        actual = np.frombuffer(raw, dtype=np.float64)
        assert np.array_equal(actual, reference)


# ---------------------------------------------------------------------------
# The widened oracle: whole register groups in, whole register groups out
# ---------------------------------------------------------------------------

_VLENB = VLEN // 8
_FLOATS = {32: np.float32, 64: np.float64}
# tests/conftest.py registers the ``ci`` profile; these tests size
# themselves from it the way the generated loop differential does.
_EXAMPLES = 60 if settings.default is settings.get_profile("ci") else 6

_LMULS = st.sampled_from((1, 2))
_BYTE = st.integers(0, 255)


def _draw_bytes(data, count):
    return bytes(data.draw(st.lists(_BYTE, min_size=count, max_size=count)))


def _draw_group(data, dtype, lmul):
    """A full register group of arbitrary bytes, viewed as ``dtype``."""
    return np.frombuffer(_draw_bytes(data, _VLENB * lmul), dtype=dtype)


def _draw_floats(data, sew, lmul, **kwargs):
    count = VLEN // sew * lmul
    width = {"width": sew}
    values = data.draw(st.lists(st.floats(**width, **kwargs),
                                min_size=count, max_size=count))
    return np.array(values, dtype=_FLOATS[sew])


def _draw_case(data, sew):
    """LMUL, a vl in [0, VLMAX] biased to the edges, and the mask: the
    ``v0.t`` suffix (or none) plus v0's bytes and the per-element
    active flags they mean."""
    lmul = data.draw(_LMULS)
    vlmax = VLEN // sew * lmul
    vl = data.draw(st.one_of(st.sampled_from((0, 1, vlmax - 1, vlmax)),
                             st.integers(0, vlmax)))
    masked = data.draw(st.booleans())
    v0 = _draw_bytes(data, _VLENB)
    bits = np.unpackbits(np.frombuffer(v0, dtype=np.uint8),
                         bitorder="little")[:vlmax].astype(bool)
    active = (bits if masked else np.ones(vlmax, dtype=bool)) \
        & (np.arange(vlmax) < vl)
    return lmul, vlmax, vl, (", v0.t" if masked else ""), v0, active


def _execute(sew, lmul, vl, line, groups, v0=None, xregs=(), fregs=()):
    """Run ``line`` at ``vl`` elements of ``sew``/``lmul`` over planted
    register groups (``{base register: array}``); returns the hart."""
    hart = make_hart(f""".text
_start:
    li   a2, {vl}
    vsetvli a1, a2, e{sew}, m{lmul}, tu, mu
    {line}
    ebreak
""", vlen_bits=VLEN)
    if v0 is not None:
        hart.vregs[0][:] = v0
    for base, values in groups.items():
        raw = values.tobytes()
        for k in range(len(raw) // _VLENB):
            hart.vregs[base + k][:] = raw[k * _VLENB:(k + 1) * _VLENB]
    for number, value in xregs:
        hart.regs[number] = value
    for number, value in fregs:
        hart.fregs[number] = value
    run_until_ebreak(hart)
    assert hart.vl == vl
    return hart


def _group(hart, base, lmul, dtype):
    return np.frombuffer(b"".join(bytes(register) for register
                                  in hart.vregs[base:base + lmul]),
                         dtype=dtype)


def _same_bits(actual, expected):
    """Equal as stored: float arrays compare by bit pattern (-0.0 is not
    0.0, a NaN is itself)."""
    return actual.tobytes() == expected.tobytes()


def _second(data, shape, sew, signed_immediate=True):
    """The vs1 / rs1 / imm operand of a ``.vv``/``.vx``/``.vi`` form:
    its assembly text, planted x-registers, and its value per element
    as a python int (sign-extended for .vx/.vi, as RVV does) or None
    for ``.vv`` (the caller plants the vector)."""
    if shape == "vx":
        value = data.draw(st.one_of(
            st.integers(-20, 20), st.integers(0, (1 << 64) - 1)))
        return "a0", ((10, value & ((1 << 64) - 1)),), value
    if shape == "vi":
        value = data.draw(st.integers(-16, 15) if signed_immediate
                          else st.integers(0, 31))
        return str(value), (), value
    return "v6", (), None


# -- integer element-wise at LMUL 2, short vl, masked -------------------------

@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("op", _OPS)
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_binop_groups_tails_and_masks_match_numpy(op, sew, data):
    unsigned, _signed = _DTYPES[sew]
    lmul, _vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    a = _draw_group(data, unsigned, lmul)
    b = _draw_group(data, unsigned, lmul)
    old = _draw_group(data, unsigned, lmul)
    hart = _execute(sew, lmul, vl, f"{op}.vv v2, v4, v6{suffix}",
                    {2: old, 4: a, 6: b}, v0)
    expected = np.where(active, _np_vector_op(op, a, b, sew), old)
    assert _same_bits(_group(hart, 2, lmul, unsigned), expected), \
        f"{op}.vv{suffix} e{sew} m{lmul} vl={vl}"


# -- compares -----------------------------------------------------------------

_INT_COMPARES = {
    "vmseq": (False, np.equal), "vmsne": (False, np.not_equal),
    "vmsltu": (False, np.less), "vmslt": (True, np.less),
    "vmsleu": (False, np.less_equal), "vmsle": (True, np.less_equal),
    "vmsgtu": (False, np.greater), "vmsgt": (True, np.greater),
}
_FP_COMPARES = {"vmfeq": np.equal, "vmfne": np.not_equal,
                "vmflt": np.less, "vmfle": np.less_equal}
# (This oracle found ``vmfne`` answering 0 for a NaN operand — IEEE: 1;
# fixed with the vector semantics rows, directed regression test in
# test_hart_vector.py.)


def _expected_mask(old_mask, active, outcome):
    """Mask-register bytes after a compare: active elements take the
    outcome, every other bit of the register is undisturbed."""
    bits = np.unpackbits(np.frombuffer(old_mask, dtype=np.uint8),
                         bitorder="little")
    bits[:len(active)] = np.where(active, outcome, bits[:len(active)])
    return np.packbits(bits, bitorder="little").tobytes()


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("shape", ["vv", "vx", "vi"])
@pytest.mark.parametrize("op", sorted(_INT_COMPARES))
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_integer_compare_matches_numpy(op, shape, sew, data):
    unsigned, signed = _DTYPES[sew]
    is_signed, compare = _INT_COMPARES[op]
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    a = _draw_group(data, unsigned, lmul)
    text, xregs, scalar = _second(data, shape, sew)
    if scalar is None:
        b = _draw_group(data, unsigned, lmul)
        if data.draw(st.booleans()):     # make equality actually happen
            b = np.where(np.arange(vlmax) % 2 == 0, a, b)
        groups = {4: a, 6: b}
    else:
        b = np.full(vlmax, scalar & ((1 << sew) - 1), dtype=unsigned)
        groups = {4: a}
    old_mask = _draw_bytes(data, _VLENB)
    groups[1] = np.frombuffer(old_mask, dtype=np.uint8)
    hart = _execute(sew, lmul, vl, f"{op}.{shape} v1, v4, {text}{suffix}",
                    groups, v0, xregs)
    view = signed if is_signed else unsigned
    outcome = compare(a.view(view), b.view(view))
    assert bytes(hart.vregs[1]) == _expected_mask(old_mask, active, outcome), \
        f"{op}.{shape}{suffix} e{sew} m{lmul} vl={vl}"


@pytest.mark.parametrize("sew", [32, 64])
@pytest.mark.parametrize("shape", ["vv", "vf"])
@pytest.mark.parametrize("op", sorted(_FP_COMPARES))
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_fp_compare_matches_numpy(op, shape, sew, data):
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    a = _draw_floats(data, sew, lmul)
    if shape == "vv":
        b = _draw_floats(data, sew, lmul)
        if data.draw(st.booleans()):
            b = np.where(np.arange(vlmax) % 2 == 0, a, b)
        groups, fregs, text = {4: a, 6: b}, (), "v6"
    else:
        scalar = data.draw(st.floats(width=sew))
        b = np.full(vlmax, scalar, dtype=_FLOATS[sew])
        groups, fregs, text = {4: a}, ((10, scalar),), "fa0"
    old_mask = _draw_bytes(data, _VLENB)
    groups[1] = np.frombuffer(old_mask, dtype=np.uint8)
    hart = _execute(sew, lmul, vl, f"{op}.{shape} v1, v4, {text}{suffix}",
                    groups, v0, fregs=fregs)
    # IEEE: every ordered comparison with a NaN is false, != is true.
    outcome = _FP_COMPARES[op](a, b)
    assert bytes(hart.vregs[1]) == _expected_mask(old_mask, active, outcome), \
        f"{op}.{shape}{suffix} e{sew} m{lmul} vl={vl}"


# -- FP element-wise at SEW 32 and 64 -----------------------------------------

_FP_BINOPS = {
    "vfadd": np.add, "vfsub": np.subtract, "vfmul": np.multiply,
    "vfdiv": np.divide, "vfmin": np.minimum, "vfmax": np.maximum,
}


@pytest.mark.parametrize("sew", [32, 64])
@pytest.mark.parametrize("shape", ["vv", "vf"])
@pytest.mark.parametrize("op", sorted(_FP_BINOPS))
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_fp_binop_groups_match_numpy(op, shape, sew, data):
    """numpy's float32 / float64 arithmetic rounds once per operation
    and overflows to the infinity of the sign, which is the contract
    (the model computes in binary64 and rounds to binary32 — exact for
    these four operations).  NaN inputs are left to the directed tests:
    numpy's minimum/maximum propagate a NaN where RISC-V returns the
    other operand."""
    dtype = _FLOATS[sew]
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    finite = dict(allow_nan=False)
    a = _draw_floats(data, sew, lmul, **finite)
    if shape == "vv":
        b = _draw_floats(data, sew, lmul, **finite)
        groups, fregs, text = {4: a, 6: b}, (), "v6"
    else:
        scalar = data.draw(st.floats(width=sew, **finite))
        b = np.full(vlmax, scalar, dtype=dtype)
        groups, fregs, text = {4: a}, ((10, scalar),), "fa0"
    old = _draw_group(data, dtype, lmul)
    groups[2] = old
    hart = _execute(sew, lmul, vl, f"{op}.{shape} v2, v4, {text}{suffix}",
                    groups, v0, fregs=fregs)
    with np.errstate(all="ignore"):
        result = _FP_BINOPS[op](a, b).astype(dtype)
    actual = _group(hart, 2, lmul, dtype)
    # inf - inf, 0 * inf, 0 / 0 and inf / inf are NaN in both; which NaN
    # is not pinned (ROADMAP: canonicalisation is parked).
    invalid = active & np.isnan(result)
    assert np.isnan(actual[invalid]).all()
    expected = np.where(active, result, old)
    keep = ~invalid
    if op in ("vfmin", "vfmax"):
        # numpy does not order -0.0 below +0.0 (RISC-V does; the
        # directed tests pin it): a zero is only required to be a zero.
        zero = active & (result == 0)
        assert (actual[zero] == 0).all()
        keep &= ~zero
    assert _same_bits(actual[keep], expected[keep]), \
        f"{op}.{shape}{suffix} e{sew} m{lmul} vl={vl}"


# -- reductions ---------------------------------------------------------------

_INT_REDUCTIONS = {
    "vredsum": (False, np.add), "vredand": (False, np.bitwise_and),
    "vredor": (False, np.bitwise_or), "vredxor": (False, np.bitwise_xor),
    "vredminu": (False, np.minimum), "vredmaxu": (False, np.maximum),
    "vredmin": (True, np.minimum), "vredmax": (True, np.maximum),
}
_FP_REDUCTIONS = {"vfredosum": np.add, "vfredusum": np.add,
                  "vfredmin": np.minimum, "vfredmax": np.maximum}


def _draw_reduction_case(data, sew):
    """A reduction with ``vl = 0`` is a separate (directed) test: RVV
    leaves vd alone there."""
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    if vl == 0:
        vl = 1
        active = active.copy()
        active[0] = suffix == "" or bool(v0[0] & 1)
    return lmul, vl, suffix, v0, active


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("op", sorted(_INT_REDUCTIONS))
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_integer_reduction_matches_numpy(op, sew, data):
    unsigned, signed = _DTYPES[sew]
    is_signed, combine = _INT_REDUCTIONS[op]
    view = signed if is_signed else unsigned
    lmul, vl, suffix, v0, active = _draw_reduction_case(data, sew)
    source = _draw_group(data, unsigned, lmul)
    start = _draw_group(data, unsigned, 1)
    old = _draw_group(data, unsigned, 1)
    hart = _execute(sew, lmul, vl, f"{op}.vs v2, v4, v6{suffix}",
                    {2: old, 4: source, 6: start}, v0)
    with np.errstate(over="ignore"):
        result = functools.reduce(
            combine, source.view(view)[active], start.view(view)[0])
    expected = old.copy()
    expected[0] = np.array(result).astype(view).view(unsigned)
    # Only element 0 of vd is written, whatever LMUL is.
    assert _same_bits(_group(hart, 2, 1, unsigned), expected), \
        f"{op}.vs{suffix} e{sew} m{lmul} vl={vl}"


@pytest.mark.parametrize("sew", [32, 64])
@pytest.mark.parametrize("op", sorted(_FP_REDUCTIONS))
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_fp_reduction_matches_numpy(op, sew, data):
    """Small integer-valued operands: every partial sum is exact at
    either width, so the order of the adds and where the model rounds
    cannot matter; min/max never round."""
    dtype = _FLOATS[sew]
    lmul, vl, suffix, v0, active = _draw_reduction_case(data, sew)
    count = VLEN // sew * lmul
    whole = st.integers(-1000, 1000).map(float)
    source = np.array(data.draw(st.lists(whole, min_size=count,
                                         max_size=count)), dtype=dtype)
    start = _draw_group(data, dtype, 1).copy()
    start[0] = data.draw(whole)
    old = _draw_group(data, dtype, 1)
    hart = _execute(sew, lmul, vl, f"{op}.vs v2, v4, v6{suffix}",
                    {2: old, 4: source, 6: start}, v0)
    expected = old.copy()
    expected[0] = functools.reduce(_FP_REDUCTIONS[op], source[active],
                                   start[0])
    actual = _group(hart, 2, 1, dtype)
    assert actual[0] == expected[0]
    assert _same_bits(actual[1:], expected[1:]), \
        f"{op}.vs{suffix} e{sew} m{lmul} vl={vl}"


# -- slides and gather --------------------------------------------------------

def _draw_offset(data, shape, vlmax):
    """A slide amount / gather index as (text, planted x-registers,
    value): ``.vi`` takes a 5-bit unsigned immediate, ``.vx`` anything
    up to 64 bits (mostly near the group's length)."""
    if shape == "vi":
        value = data.draw(st.integers(0, 31))
        return str(value), (), value
    value = data.draw(st.one_of(st.integers(0, vlmax + 2),
                                st.integers(0, (1 << 64) - 1)))
    return "a0", ((10, value),), value


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("shape", ["vx", "vi"])
@pytest.mark.parametrize("op", ["vslideup", "vslidedown"])
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_slide_matches_numpy(op, shape, sew, data):
    unsigned, _signed = _DTYPES[sew]
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    source = _draw_group(data, unsigned, lmul)
    old = _draw_group(data, unsigned, lmul)
    text, xregs, offset = _draw_offset(data, shape, vlmax)
    hart = _execute(sew, lmul, vl, f"{op}.{shape} v2, v4, {text}{suffix}",
                    {2: old, 4: source}, v0, xregs)
    index = np.arange(vlmax, dtype=object)
    if op == "vslideup":
        # vd[i] = vs2[i - offset] for offset <= i < vl.
        written = active & (index >= offset)
        picked = np.clip(index - offset, 0, vlmax - 1).astype(int)
        moved = source[picked]
    else:
        # vd[i] = vs2[i + offset], zero from beyond VLMAX.
        written = active
        beyond = index + offset >= vlmax
        picked = np.where(beyond, 0, index + offset).astype(int)
        moved = np.where(beyond, unsigned(0), source[picked])
    expected = np.where(written, moved, old)
    assert _same_bits(_group(hart, 2, lmul, unsigned), expected), \
        f"{op}.{shape}{suffix} e{sew} m{lmul} vl={vl} offset={offset}"


@pytest.mark.parametrize("sew", [8, 16, 32, 64])
@pytest.mark.parametrize("shape", ["vv", "vx", "vi"])
@settings(max_examples=_EXAMPLES, deadline=None)
@given(data=st.data())
def test_gather_matches_numpy(shape, sew, data):
    unsigned, _signed = _DTYPES[sew]
    lmul, vlmax, vl, suffix, v0, active = _draw_case(data, sew)
    source = _draw_group(data, unsigned, lmul)
    old = _draw_group(data, unsigned, lmul)
    groups = {2: old, 4: source}
    if shape == "vv":
        # In-range and out-of-range indices, read at SEW.
        raw = _draw_group(data, unsigned, lmul)
        small = data.draw(st.booleans())
        indices = (raw % unsigned(min(vlmax + 2, (1 << sew) - 1))
                   if small else raw)
        groups[6] = indices
        text, xregs = "v6", ()
        indices = indices.astype(object)
    else:
        text, xregs, value = _draw_offset(data, shape, vlmax)
        indices = np.full(vlmax, value, dtype=object)
    hart = _execute(sew, lmul, vl,
                    f"vrgather.{shape} v2, v4, {text}{suffix}",
                    groups, v0, xregs)
    beyond = indices >= vlmax
    picked = np.where(beyond, 0, indices).astype(int)
    gathered = np.where(beyond, unsigned(0), source[picked])
    expected = np.where(active, gathered, old)
    assert _same_bits(_group(hart, 2, lmul, unsigned), expected), \
        f"vrgather.{shape}{suffix} e{sew} m{lmul} vl={vl}"
