"""Additional vector kernels beyond the paper's four families.

The paper notes "more kernels will be adapted in the future"; these are
the obvious next ones for memory-system studies: DAXPY and the STREAM
triad (pure-bandwidth dense sweeps) and a dot product (reduction-bound).
"""

from __future__ import annotations

import numpy as np

from repro.assembler import assemble
from repro.kernels.data import dense_vector
from repro.kernels.runtime import (
    doubles_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload, build_workload


def vector_axpy(length: int = 512, alpha: float = 2.5, num_cores: int = 1,
                seed: int = 42) -> Workload:
    """DAXPY: ``y = alpha * x + y`` (two streams in, one out)."""
    x = dense_vector(length, seed=seed)
    y = dense_vector(length, seed=seed + 1)
    expected = alpha * x + y
    data = (doubles_block("axpy_x", x), doubles_block("axpy_y", y),
            doubles_block("axpy_alpha", [alpha]))
    body = f"""\
main:
{range_split(length, num_cores)}
    la   s2, axpy_x
    la   s3, axpy_y
    la   t0, axpy_alpha
    fld  fs0, 0(t0)
ax_strip:
    bgeu s0, s1, ax_done
    sub  t0, s1, s0
    vsetvli s4, t0, e64, m1, ta, ma
    slli t1, s0, 3
    add  t2, s2, t1
    vle64.v v1, (t2)         # x strip
    add  t3, s3, t1
    vle64.v v2, (t3)         # y strip
    vfmacc.vf v2, fs0, v1    # y += alpha * x
    vse64.v v2, (t3)
    add  s0, s0, s4
    j    ax_strip
ax_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="vector-axpy", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="axpy_y", expected=expected,
        metadata={"length": length, "alpha": alpha, "seed": seed})


def stream_triad(length: int = 512, alpha: float = 3.0, num_cores: int = 1,
                 seed: int = 42) -> Workload:
    """STREAM triad: ``c = a + alpha * b`` — the canonical bandwidth
    benchmark."""
    a = dense_vector(length, seed=seed)
    b = dense_vector(length, seed=seed + 1)
    expected = a + alpha * b
    data = (doubles_block("triad_a", a), doubles_block("triad_b", b),
            zero_doubles_block("triad_c", length),
            doubles_block("triad_alpha", [alpha]))
    body = f"""\
main:
{range_split(length, num_cores)}
    la   s2, triad_a
    la   s3, triad_b
    la   s4, triad_c
    la   t0, triad_alpha
    fld  fs0, 0(t0)
tr_strip:
    bgeu s0, s1, tr_done
    sub  t0, s1, s0
    vsetvli s5, t0, e64, m1, ta, ma
    slli t1, s0, 3
    add  t2, s2, t1
    vle64.v v1, (t2)
    add  t3, s3, t1
    vle64.v v2, (t3)
    vfmacc.vf v1, fs0, v2    # a + alpha * b
    add  t4, s4, t1
    vse64.v v1, (t4)
    add  s0, s0, s5
    j    tr_strip
tr_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="stream-triad", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="triad_c", expected=expected,
        metadata={"length": length, "alpha": alpha, "seed": seed})


def vector_dot(length: int = 512, num_cores: int = 1,
               seed: int = 42) -> Workload:
    """Dot product: partial sums per hart, written to a per-hart slot.

    Each hart reduces its slice with ``vfredosum`` and stores the partial
    into ``dot_partials[hartid]``; verification sums the partials.
    """
    x = dense_vector(length, seed=seed)
    y = dense_vector(length, seed=seed + 1)
    data = (doubles_block("dot_x", x), doubles_block("dot_y", y),
            zero_doubles_block("dot_partials", num_cores))
    body = f"""\
main:
    mv   a7, a0
{range_split(length, num_cores)}
    la   s2, dot_x
    la   s3, dot_y
    fmv.d.x fa0, zero
dt_strip:
    bgeu s0, s1, dt_store
    sub  t0, s1, s0
    vsetvli s4, t0, e64, m1, ta, ma
    slli t1, s0, 3
    add  t2, s2, t1
    vle64.v v1, (t2)
    add  t3, s3, t1
    vle64.v v2, (t3)
    vfmul.vv v3, v1, v2
    vfmv.s.f v4, fa0
    vfredosum.vs v4, v3, v4
    vfmv.f.s fa0, v4
    add  s0, s0, s4
    j    dt_strip
dt_store:
    la   t0, dot_partials
    slli t1, a7, 3
    add  t0, t0, t1
    fsd  fa0, 0(t0)
    li   a0, 0
    ret
"""
    # The verifier checks the *sum* of the per-hart partials, since the
    # split points depend on num_cores.
    program = assemble(wrap_program(body, ""), data=data)
    address = program.symbols["dot_partials"]
    expected_total = float(np.dot(x, y))

    def verify(memory) -> bool:
        raw = memory.load_bytes(address, 8 * num_cores)
        partials = np.frombuffer(raw, dtype=np.float64)
        return bool(np.isclose(partials.sum(), expected_total,
                               rtol=1e-10))

    return Workload(name="vector-dot", program=program,
                    num_cores=num_cores, verify=verify,
                    expected=np.asarray([expected_total]),
                    metadata={"length": length, "seed": seed})
