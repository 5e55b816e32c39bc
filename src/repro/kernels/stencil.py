"""Vector 3-point stencil kernel (Jacobi sweeps with ping-pong buffers).

``out[i] = c0*in[i-1] + c1*in[i] + c2*in[i+1]`` over the interior points,
boundaries copied unchanged.  Interior points are split across harts;
multi-iteration runs synchronise with a sense-reversing barrier built on
``amoadd.w`` — exercising the atomics path of the ISS.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.runtime import (
    barrier,
    barrier_blocks,
    doubles_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.data import dense_vector
from repro.kernels.workload import Workload, build_workload


def reference_stencil(data: np.ndarray, coefficients: tuple,
                      iterations: int) -> np.ndarray:
    """Numpy reference for the 3-point stencil sweeps."""
    c0, c1, c2 = coefficients
    current = data.copy()
    for _ in range(iterations):
        next_buf = current.copy()
        next_buf[1:-1] = (c0 * current[:-2] + c1 * current[1:-1]
                          + c2 * current[2:])
        current = next_buf
    return current


def vector_stencil(length: int = 256, iterations: int = 1,
                   num_cores: int = 1, seed: int = 42,
                   coefficients: tuple = (0.25, 0.5, 0.25)) -> Workload:
    """Vector 3-point stencil; ``iterations`` Jacobi sweeps."""
    if length < 3:
        raise ValueError(f"stencil needs length >= 3, got {length}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    initial = dense_vector(length, seed=seed)
    c0, c1, c2 = coefficients
    expected = reference_stencil(initial, coefficients, iterations)
    final_symbol = "stn_buf_b" if iterations % 2 else "stn_buf_a"
    interior = length - 2
    data = (doubles_block("stn_buf_a", initial),
            zero_doubles_block("stn_buf_b", length),
            doubles_block("stn_coeffs", [c0, c1, c2]),
            *barrier_blocks())
    body = f"""\
main:
    mv   a6, a0              # preserve hartid across barrier fragments
{range_split(interior, num_cores, start_reg="s0", end_reg="s1")}
    addi s0, s0, 1           # interior points start at index 1
    addi s1, s1, 1
    la   s2, stn_buf_a       # in
    la   s3, stn_buf_b       # out
    la   t0, stn_coeffs
    fld  fs0, 0(t0)
    fld  fs1, 8(t0)
    fld  fs2, 16(t0)
    li   s4, {iterations}
st_iter:
    # Boundary copy is hart 0's job.
    bnez a6, st_body
    fld  fa3, 0(s2)
    fsd  fa3, 0(s3)
    li   t1, {8 * (length - 1)}
    add  t2, s2, t1
    fld  fa3, 0(t2)
    add  t2, s3, t1
    fsd  fa3, 0(t2)
st_body:
    mv   s5, s0              # i
st_strip:
    bgeu s5, s1, st_sync
    sub  t0, s1, s5
    vsetvli s6, t0, e64, m1, ta, ma
    slli t1, s5, 3
    add  t2, s2, t1
    addi t4, t2, -8
    vle64.v v1, (t4)         # in[i-1 ...]
    vle64.v v2, (t2)         # in[i   ...]
    addi t4, t2, 8
    vle64.v v3, (t4)         # in[i+1 ...]
    vfmul.vf v4, v1, fs0
    vfmacc.vf v4, fs1, v2
    vfmacc.vf v4, fs2, v3
    add  t3, s3, t1
    vse64.v v4, (t3)
    add  s5, s5, s6
    j    st_strip
st_sync:
{barrier(num_cores)}
    # swap in/out
    mv   t0, s2
    mv   s2, s3
    mv   s3, t0
    addi s4, s4, -1
    bnez s4, st_iter
    li   a0, 0
    ret
"""
    return build_workload(
        name="vector-stencil", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol=final_symbol, expected=expected,
        metadata={"length": length, "iterations": iterations, "seed": seed})
