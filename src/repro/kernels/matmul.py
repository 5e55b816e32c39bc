"""Dense matrix-multiplication kernels (scalar and vector).

``C = A @ B`` on row-major float64 matrices.  Rows of ``C`` are split
across harts.  The scalar version is one of the two Figure 3 workloads;
the vector version holds a strip of the C row in a vector accumulator and
broadcasts A elements with ``vfmacc.vf``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.data import dense_matrix
from repro.kernels.runtime import (
    doubles_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload, build_workload


def _matmul_data(size: int, seed: int) -> tuple[np.ndarray, np.ndarray,
                                                tuple]:
    a = dense_matrix(size, size, seed=seed)
    b = dense_matrix(size, size, seed=seed + 1)
    data = (doubles_block("mat_a", a, readonly=True),
            doubles_block("mat_b", b, readonly=True),
            zero_doubles_block("mat_c", size * size))
    return a, b, data


def scalar_matmul(size: int = 16, num_cores: int = 1,
                  seed: int = 42) -> Workload:
    """Scalar triple-loop matmul (Figure 3's "Matmul" workload)."""
    a, b, data = _matmul_data(size, seed)
    row_bytes = 8 * size
    body = f"""\
main:
{range_split(size, num_cores)}
    li   s7, {size}
    li   s8, {row_bytes}
    la   s2, mat_a
    la   s3, mat_b
    la   s4, mat_c
mm_row_loop:
    bgeu s0, s1, mm_done
    mul  t5, s0, s8
    add  s9, s2, t5          # &A[i][0]
    add  s10, s4, t5         # &C[i][0]
    li   s5, 0               # j
mm_col_loop:
    bgeu s5, s7, mm_row_next
    fmv.d.x fa0, zero        # acc = 0.0
    mv   t0, s9              # a_ptr
    add  t1, s9, s8          # a_end
    slli t2, s5, 3
    add  t2, t2, s3          # b_ptr = &B[0][j]
mm_inner:
    fld  fa1, 0(t0)
    fld  fa2, 0(t2)
    fmadd.d fa0, fa1, fa2, fa0
    addi t0, t0, 8
    add  t2, t2, s8
    bltu t0, t1, mm_inner
    slli t3, s5, 3
    add  t3, t3, s10
    fsd  fa0, 0(t3)
    addi s5, s5, 1
    j    mm_col_loop
mm_row_next:
    addi s0, s0, 1
    j    mm_row_loop
mm_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="scalar-matmul", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="mat_c", expected=a @ b,
        metadata={"size": size, "seed": seed})


def vector_matmul(size: int = 16, num_cores: int = 1,
                  seed: int = 42) -> Workload:
    """Vector matmul: C-row strips accumulated with ``vfmacc.vf``."""
    a, b, data = _matmul_data(size, seed)
    row_bytes = 8 * size
    body = f"""\
main:
{range_split(size, num_cores)}
    li   s7, {size}
    li   s8, {row_bytes}
    la   s2, mat_a
    la   s3, mat_b
    la   s4, mat_c
vm_row_loop:
    bgeu s0, s1, vm_done
    mul  t5, s0, s8
    add  s9, s2, t5          # &A[i][0]
    add  s10, s4, t5         # &C[i][0]
    li   s5, 0               # j0 (strip base)
vm_strip_loop:
    bgeu s5, s7, vm_row_next
    sub  t0, s7, s5
    vsetvli s6, t0, e64, m1, ta, ma
    vmv.v.i v8, 0            # strip accumulator = 0.0
    slli t2, s5, 3
    add  t2, t2, s3          # b_ptr = &B[0][j0]
    mv   t3, s9              # a_ptr
    add  t4, s9, s8          # a_end
vm_inner:
    fld  fa1, 0(t3)
    vle64.v v9, (t2)
    vfmacc.vf v8, fa1, v9
    addi t3, t3, 8
    add  t2, t2, s8
    bltu t3, t4, vm_inner
    slli t0, s5, 3
    add  t0, t0, s10
    vse64.v v8, (t0)
    add  s5, s5, s6          # j0 += vl
    j    vm_strip_loop
vm_row_next:
    addi s0, s0, 1
    j    vm_row_loop
vm_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="vector-matmul", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="mat_c", expected=a @ b,
        metadata={"size": size, "seed": seed})
