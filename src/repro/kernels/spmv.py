"""Sparse matrix-vector multiplication kernels.

``y = A @ x`` with A in CSR (or ELLPACK) format.  One scalar
implementation (the second Figure 3 workload) and the paper's three
vector implementations:

* ``spmv_csr_gather_reduce`` — per-row nnz strips: gather ``x`` with
  ``vluxei64``, multiply, and fold each strip into a scalar with the
  *ordered* reduction ``vfredosum``.
* ``spmv_csr_gather_accum`` — same gather, but strips accumulate into a
  vector register with ``vfmacc.vv``; a single unordered reduction
  (``vfredusum``) finishes the row.
* ``spmv_ell`` — ELLPACK slot-major layout: vectorised *across rows*, so
  matrix values and output are unit-stride and only ``x`` is gathered.

Rows are split across harts.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.data import CsrMatrix, dense_vector, random_csr
from repro.kernels.runtime import (
    doubles_block,
    dwords_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload, build_workload


def _csr_data(matrix: CsrMatrix, x: np.ndarray) -> tuple:
    return (doubles_block("csr_values", matrix.values, readonly=True),
            dwords_block("csr_colidx", matrix.col_indices, readonly=True),
            dwords_block("csr_rowptr", matrix.row_pointers, readonly=True),
            doubles_block("vec_x", x, readonly=True),
            zero_doubles_block("vec_y", matrix.num_rows))


def _default_matrix(num_rows: int, nnz_per_row: int,
                    seed: int) -> tuple[CsrMatrix, np.ndarray]:
    matrix = random_csr(num_rows, num_rows, nnz_per_row, seed=seed)
    x = dense_vector(num_rows, seed=seed + 7)
    return matrix, x


def scalar_spmv(num_rows: int = 64, nnz_per_row: int = 8,
                num_cores: int = 1, seed: int = 42,
                matrix: CsrMatrix | None = None,
                x: np.ndarray | None = None) -> Workload:
    """Scalar CSR SpMV (Figure 3's "SpMV" workload)."""
    if matrix is None:
        matrix, x = _default_matrix(num_rows, nnz_per_row, seed)
    assert x is not None
    body = f"""\
main:
{range_split(matrix.num_rows, num_cores)}
    la   s2, csr_values
    la   s3, csr_colidx
    la   s4, csr_rowptr
    la   s5, vec_x
    la   s6, vec_y
sp_row_loop:
    bgeu s0, s1, sp_done
    slli t0, s0, 3
    add  t1, s4, t0
    ld   t2, 0(t1)           # p     = rowptr[row]
    ld   t3, 8(t1)           # p_end = rowptr[row + 1]
    fmv.d.x fa0, zero
    bgeu t2, t3, sp_store
    slli t4, t2, 3
    add  t5, s2, t4          # &values[p]
    add  t6, s3, t4          # &colidx[p]
    sub  a4, t3, t2          # nnz in this row
sp_inner:
    fld  fa1, 0(t5)
    ld   a5, 0(t6)
    slli a5, a5, 3
    add  a5, a5, s5
    fld  fa2, 0(a5)          # x[colidx[p]]
    fmadd.d fa0, fa1, fa2, fa0
    addi t5, t5, 8
    addi t6, t6, 8
    addi a4, a4, -1
    bnez a4, sp_inner
sp_store:
    slli t0, s0, 3
    add  t0, t0, s6
    fsd  fa0, 0(t0)
    addi s0, s0, 1
    j    sp_row_loop
sp_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="scalar-spmv", source=wrap_program(body, ""),
        data=_csr_data(matrix, x),
        num_cores=num_cores, output_symbol="vec_y",
        expected=matrix.multiply(x),
        metadata={"rows": matrix.num_rows, "nnz": matrix.nnz, "seed": seed})


def spmv_csr_gather_reduce(num_rows: int = 64, nnz_per_row: int = 8,
                           num_cores: int = 1, seed: int = 42,
                           matrix: CsrMatrix | None = None,
                           x: np.ndarray | None = None) -> Workload:
    """Vector SpMV #1: gather + ordered per-strip reduction."""
    if matrix is None:
        matrix, x = _default_matrix(num_rows, nnz_per_row, seed)
    assert x is not None
    body = f"""\
main:
{range_split(matrix.num_rows, num_cores)}
    la   s2, csr_values
    la   s3, csr_colidx
    la   s4, csr_rowptr
    la   s5, vec_x
    la   s6, vec_y
v1_row:
    bgeu s0, s1, v1_done
    slli t0, s0, 3
    add  t1, s4, t0
    ld   t2, 0(t1)           # p
    ld   t3, 8(t1)           # p_end
    fmv.d.x fa0, zero
v1_strip:
    bgeu t2, t3, v1_store
    sub  t4, t3, t2
    vsetvli t5, t4, e64, m1, ta, ma
    slli t6, t2, 3
    add  a4, s2, t6
    vle64.v v1, (a4)         # values strip
    add  a5, s3, t6
    vle64.v v2, (a5)         # column indices
    vsll.vi v2, v2, 3        # -> byte offsets
    vluxei64.v v3, (s5), v2  # gather x
    vfmul.vv v4, v1, v3
    vfmv.s.f v5, fa0         # seed with running sum
    vfredosum.vs v5, v4, v5
    vfmv.f.s fa0, v5
    add  t2, t2, t5
    j    v1_strip
v1_store:
    slli t0, s0, 3
    add  t0, t0, s6
    fsd  fa0, 0(t0)
    addi s0, s0, 1
    j    v1_row
v1_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="spmv-csr-gather-reduce",
        source=wrap_program(body, ""), data=_csr_data(matrix, x),
        num_cores=num_cores, output_symbol="vec_y",
        expected=matrix.multiply(x),
        metadata={"rows": matrix.num_rows, "nnz": matrix.nnz, "seed": seed})


def spmv_csr_gather_accum(num_rows: int = 64, nnz_per_row: int = 8,
                          num_cores: int = 1, seed: int = 42,
                          matrix: CsrMatrix | None = None,
                          x: np.ndarray | None = None) -> Workload:
    """Vector SpMV #2: vector accumulator, one reduction per row."""
    if matrix is None:
        matrix, x = _default_matrix(num_rows, nnz_per_row, seed)
    assert x is not None
    body = f"""\
main:
{range_split(matrix.num_rows, num_cores)}
    la   s2, csr_values
    la   s3, csr_colidx
    la   s4, csr_rowptr
    la   s5, vec_x
    la   s6, vec_y
v2_row:
    bgeu s0, s1, v2_done
    slli t0, s0, 3
    add  t1, s4, t0
    ld   t2, 0(t1)           # p
    ld   t3, 8(t1)           # p_end
    vsetvli t4, zero, e64, m1, ta, ma   # vl = VLMAX
    vmv.v.i v8, 0            # vector accumulator
v2_strip:
    bgeu t2, t3, v2_reduce
    sub  t4, t3, t2
    vsetvli t5, t4, e64, m1, ta, ma
    slli t6, t2, 3
    add  a4, s2, t6
    vle64.v v1, (a4)
    add  a5, s3, t6
    vle64.v v2, (a5)
    vsll.vi v2, v2, 3
    vluxei64.v v3, (s5), v2
    vfmacc.vv v8, v1, v3     # acc += values * x[cols]
    add  t2, t2, t5
    j    v2_strip
v2_reduce:
    vsetvli t4, zero, e64, m1, ta, ma
    fmv.d.x fa0, zero
    vfmv.s.f v5, fa0
    vfredusum.vs v5, v8, v5
    vfmv.f.s fa0, v5
    slli t0, s0, 3
    add  t0, t0, s6
    fsd  fa0, 0(t0)
    addi s0, s0, 1
    j    v2_row
v2_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="spmv-csr-gather-accum",
        source=wrap_program(body, ""), data=_csr_data(matrix, x),
        num_cores=num_cores, output_symbol="vec_y",
        expected=matrix.multiply(x),
        metadata={"rows": matrix.num_rows, "nnz": matrix.nnz, "seed": seed})


def spmv_ell(num_rows: int = 64, nnz_per_row: int = 8,
             num_cores: int = 1, seed: int = 42,
             matrix: CsrMatrix | None = None,
             x: np.ndarray | None = None) -> Workload:
    """Vector SpMV #3: ELLPACK, vectorised across rows."""
    if matrix is None:
        matrix, x = _default_matrix(num_rows, nnz_per_row, seed)
    assert x is not None
    ell_values, ell_columns, width = matrix.to_ell()
    row_bytes = 8 * matrix.num_rows
    data = (doubles_block("ell_values", ell_values, readonly=True),
            dwords_block("ell_colidx", ell_columns, readonly=True),
            doubles_block("vec_x", x, readonly=True),
            zero_doubles_block("vec_y", matrix.num_rows))
    body = f"""\
main:
{range_split(matrix.num_rows, num_cores)}
    la   s2, ell_values
    la   s3, ell_colidx
    la   s5, vec_x
    la   s6, vec_y
    li   s7, {width}
    li   s8, {row_bytes}
v3_strip:
    bgeu s0, s1, v3_done
    sub  t0, s1, s0
    vsetvli s9, t0, e64, m1, ta, ma   # vl = rows in this strip
    vmv.v.i v8, 0            # per-row accumulators
    slli s10, s0, 3          # strip byte offset
    li   a4, 0               # slot
v3_slot:
    bgeu a4, s7, v3_store
    mul  t2, a4, s8          # slot * num_rows * 8
    add  t3, t2, s10
    add  t4, t3, s2
    vle64.v v1, (t4)         # slot values for these rows (unit stride)
    add  t5, t3, s3
    vle64.v v2, (t5)         # slot columns
    vsll.vi v2, v2, 3
    vluxei64.v v3, (s5), v2  # gather x
    vfmacc.vv v8, v1, v3
    addi a4, a4, 1
    j    v3_slot
v3_store:
    add  t6, s10, s6
    vse64.v v8, (t6)
    add  s0, s0, s9
    j    v3_strip
v3_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="spmv-ell", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="vec_y",
        expected=matrix.multiply(x),
        metadata={"rows": matrix.num_rows, "nnz": matrix.nnz,
                  "ell_width": width, "seed": seed})


SPMV_VARIANTS = {
    "scalar": scalar_spmv,
    "csr-gather-reduce": spmv_csr_gather_reduce,
    "csr-gather-accum": spmv_csr_gather_accum,
    "ell": spmv_ell,
}
