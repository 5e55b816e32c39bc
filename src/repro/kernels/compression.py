"""§IV co-design study: SpMV with compressed non-zero values.

The paper's §IV motivates Coyote as the playground for memory-interface
co-design and cites Willcock & Lumsdaine / Grigoras et al.: "replaced
non-zero values by indices in a look-up table to compress the matrix",
so "less data is to be transferred between the memory and the computing
units effectively increasing the bandwidth utilization".

``spmv_csr_compressed`` implements that scheme in software: the float64
value stream is replaced by a 16-bit index stream into a small
dictionary of distinct values.  For matrices with few distinct values
(common after quantisation), the value traffic shrinks 4x; Coyote then
shows the saved cache/NoC/memory traffic — the question §IV says the
simulator exists to answer.
"""

from __future__ import annotations

import numpy as np

from repro.assembler import DataBlock
from repro.kernels.data import CsrMatrix, dense_vector, random_csr
from repro.kernels.runtime import (
    doubles_block,
    dwords_block,
    zero_doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload, build_workload


def quantise_matrix(matrix: CsrMatrix, levels: int = 16,
                    seed: int = 0) -> tuple[CsrMatrix, np.ndarray,
                                            np.ndarray]:
    """Quantise values onto a ``levels``-entry dictionary.

    Returns ``(quantised_matrix, dictionary, codes)`` where
    ``dictionary[codes[k]] == quantised values[k]``.
    """
    if not 1 <= levels <= 65536:
        raise ValueError(f"levels must fit a u16 code: {levels}")
    rng = np.random.default_rng(seed)
    dictionary = np.sort(rng.uniform(-1.0, 1.0, size=levels))
    # Snap every value to its nearest dictionary entry.
    codes = np.abs(matrix.values[:, None] - dictionary[None, :]) \
        .argmin(axis=1).astype(np.int64)
    quantised = CsrMatrix(matrix.num_rows, matrix.num_cols,
                          dictionary[codes], matrix.col_indices.copy(),
                          matrix.row_pointers.copy())
    return quantised, dictionary, codes


def spmv_csr_compressed(num_rows: int = 64, nnz_per_row: int = 8,
                        num_cores: int = 1, levels: int = 16,
                        seed: int = 42,
                        matrix: CsrMatrix | None = None,
                        x: np.ndarray | None = None) -> Workload:
    """Vector SpMV with dictionary-compressed values (u16 codes).

    Per nnz strip: load the 16-bit codes (vle16 into an e16 config),
    widen to byte offsets, gather the real values from the dictionary,
    then gather ``x`` as usual and accumulate.
    """
    if matrix is None:
        matrix = random_csr(num_rows, num_rows, nnz_per_row, seed=seed)
        x = dense_vector(num_rows, seed=seed + 7)
    assert x is not None
    quantised, dictionary, codes = quantise_matrix(matrix, levels,
                                                   seed=seed + 13)
    data = (DataBlock("cmp_codes", codes.astype("<u2").tobytes()),
            doubles_block("cmp_dict", dictionary),
            dwords_block("csr_colidx", quantised.col_indices),
            dwords_block("csr_rowptr", quantised.row_pointers),
            doubles_block("vec_x", x),
            zero_doubles_block("vec_y", quantised.num_rows))
    body = f"""\
main:
{range_split(quantised.num_rows, num_cores)}
    la   s2, cmp_codes
    la   s7, cmp_dict
    la   s3, csr_colidx
    la   s4, csr_rowptr
    la   s5, vec_x
    la   s6, vec_y
vc_row:
    bgeu s0, s1, vc_done
    slli t0, s0, 3
    add  t1, s4, t0
    ld   t2, 0(t1)            # p
    ld   t3, 8(t1)            # p_end
    vsetvli t4, zero, e64, m1, ta, ma
    vmv.v.i v8, 0             # vector accumulator
vc_strip:
    bgeu t2, t3, vc_reduce
    sub  t4, t3, t2
    vsetvli t5, t4, e64, m1, ta, ma
    slli t6, t2, 3
    add  a6, s3, t6
    vle64.v v2, (a6)          # column indices
    vsll.vi v2, v2, 3
    vluxei64.v v3, (s5), v2   # gather x
    # Decompress: load the u16 codes, scale to byte offsets (levels
    # <= 8192 keeps the shift within 16 bits), then gather the real
    # values from the dictionary with 16-bit indices.
    vsetvli t5, t4, e16, m1, ta, ma
    slli a5, t2, 1
    add  a5, a5, s2
    vle16.v v4, (a5)          # u16 codes (quarter the value traffic)
    vsll.vi v4, v4, 3
    vsetvli t5, t4, e64, m1, ta, ma
    vluxei16.v v1, (s7), v4   # decompressed float64 values
    vfmacc.vv v8, v1, v3
    add  t2, t2, t5
    j    vc_strip
vc_reduce:
    vsetvli t4, zero, e64, m1, ta, ma
    fmv.d.x fa0, zero
    vfmv.s.f v5, fa0
    vfredusum.vs v5, v8, v5
    vfmv.f.s fa0, v5
    slli t0, s0, 3
    add  t0, t0, s6
    fsd  fa0, 0(t0)
    addi s0, s0, 1
    j    vc_row
vc_done:
    li   a0, 0
    ret
"""
    return build_workload(
        name="spmv-csr-compressed", source=wrap_program(body, ""), data=data,
        num_cores=num_cores, output_symbol="vec_y",
        expected=quantised.multiply(x),
        metadata={"rows": quantised.num_rows, "nnz": quantised.nnz,
                  "levels": levels, "seed": seed})
