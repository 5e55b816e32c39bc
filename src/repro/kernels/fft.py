"""HPC kernel: radix-2 complex FFT (decimation in time).

§III-A: "More kernels will be adapted in the future ... These will
include FFT".  This is an iterative radix-2 Cooley-Tukey FFT on complex
float64 data held as separate re/im arrays.  The input is stored
bit-reverse permuted at generation time (a data-layout choice, as real
FFT libraries do for the in-place variant), so the assembly runs the
log2(N) butterfly stages only.

Parallelisation: each stage has exactly N/2 butterflies; that index
range is split across harts once, each hart maps its flat butterfly
index ``b`` to (block, offset) with a div/rem, and a barrier separates
stages.  Twiddles are precomputed at maximum resolution —
``w[k] = exp(-2*pi*i*k / N)`` for ``k < N/2`` — and stage ``m`` indexes
them with stride ``N/m``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.runtime import (
    barrier,
    barrier_blocks,
    doubles_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload
from repro.assembler import assemble
from repro.utils.bitops import is_power_of_two


def _bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def fft_radix2(length: int = 64, num_cores: int = 1,
               seed: int = 42) -> Workload:
    """In-place radix-2 FFT over ``length`` complex points."""
    if not is_power_of_two(length) or length < 2:
        raise ValueError(f"FFT length must be a power of two >= 2, "
                         f"got {length}")
    rng = np.random.default_rng(seed)
    signal = (rng.uniform(-1.0, 1.0, size=length)
              + 1j * rng.uniform(-1.0, 1.0, size=length))
    expected = np.fft.fft(signal)
    permutation = _bit_reverse_permutation(length)
    permuted = signal[permutation]
    twiddles = np.exp(-2j * np.pi * np.arange(length // 2) / length)
    stages = length.bit_length() - 1
    butterflies = length // 2
    data = (doubles_block("fft_re", permuted.real),
            doubles_block("fft_im", permuted.imag),
            doubles_block("fft_twr", twiddles.real),
            doubles_block("fft_twi", twiddles.imag),
            *barrier_blocks())
    body = f"""\
main:
    mv   a6, a0              # hartid, preserved for barriers
{range_split(butterflies, num_cores)}
    mv   a2, s0              # my butterfly range [a2, a3)
    mv   a3, s1
    la   s2, fft_re
    la   s3, fft_im
    la   s4, fft_twr
    la   s5, fft_twi
    li   s6, {length}
    li   s7, 1               # half = m/2, starts at 1
ff_stage:
    slli s8, s7, 1           # m = 2 * half
    divu s9, s6, s8          # twiddle stride = N / m
    mv   s10, a2             # b = my first butterfly
ff_bfly:
    bgeu s10, a3, ff_sync
    divu t0, s10, s7         # block index = b / half
    remu t1, s10, s7         # j = b % half
    mul  t2, t0, s8          # k = block * m
    add  t3, t2, t1          # top = k + j
    add  t4, t3, s7          # bot = top + half
    # twiddle = tw[j * stride]
    mul  t5, t1, s9
    slli t5, t5, 3
    add  t6, s4, t5
    fld  fa0, 0(t6)          # wr
    add  t6, s5, t5
    fld  fa1, 0(t6)          # wi
    # load bottom element b = (br, bi)
    slli t5, t4, 3
    add  t6, s2, t5
    fld  fa2, 0(t6)          # br
    add  t6, s3, t5
    fld  fa3, 0(t6)          # bi
    # t = w * b
    fmul.d  fa4, fa0, fa2    # wr*br
    fnmsub.d fa4, fa1, fa3, fa4   # -(wi*bi) + wr*br = t_re
    fmul.d  fa5, fa0, fa3    # wr*bi
    fmadd.d fa5, fa1, fa2, fa5    # wi*br + wr*bi = t_im
    # load top element u = (ur, ui)
    slli t5, t3, 3
    add  t6, s2, t5
    fld  fa6, 0(t6)          # ur
    add  t6, s3, t5
    fld  fa7, 0(t6)          # ui
    # top = u + t ; bot = u - t
    fadd.d fs0, fa6, fa4
    fadd.d fs2, fa7, fa5
    fsub.d fs3, fa6, fa4
    fsub.d fs4, fa7, fa5
    add  t6, s2, t5
    fsd  fs0, 0(t6)
    add  t6, s3, t5
    fsd  fs2, 0(t6)
    slli t5, t4, 3
    add  t6, s2, t5
    fsd  fs3, 0(t6)
    add  t6, s3, t5
    fsd  fs4, 0(t6)
    addi s10, s10, 1
    j    ff_bfly
ff_sync:
{barrier(num_cores)}
    mv   s7, s8              # half = m
    bltu s7, s6, ff_stage    # while m < N
    li   a0, 0
    ret
"""
    program = assemble(wrap_program(body, ""), data=data)
    re_address = program.symbols["fft_re"]
    im_address = program.symbols["fft_im"]

    def verify(memory) -> bool:
        raw_re = memory.load_bytes(re_address, 8 * length)
        raw_im = memory.load_bytes(im_address, 8 * length)
        actual = (np.frombuffer(raw_re, dtype=np.float64)
                  + 1j * np.frombuffer(raw_im, dtype=np.float64))
        return bool(np.allclose(actual, expected, rtol=1e-9,
                                atol=1e-9))

    return Workload(name="fft-radix2", program=program,
                    num_cores=num_cores, verify=verify,
                    expected=np.abs(expected),
                    metadata={"length": length, "stages": stages,
                              "seed": seed})
