"""HPDA kernel: parallel histogram with atomic updates.

"Other representative HPC and HPDA kernels" (§III-A): histogramming is
the canonical data-analytics pattern — data-dependent scattered writes
into shared bins.  Each hart scans its slice of the input and increments
shared bins with ``amoadd.d``, exercising the atomics path and the
shared-line write pressure the L2 model turns into bank traffic.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.runtime import (
    dwords_block,
    range_split,
    wrap_program,
)
from repro.kernels.workload import Workload
from repro.assembler import assemble
from repro.utils.bitops import is_power_of_two


def histogram(length: int = 1024, num_bins: int = 32, num_cores: int = 1,
              seed: int = 42) -> Workload:
    """Shared-bin histogram over ``length`` integer samples.

    ``num_bins`` must be a power of two (binning is a mask).
    """
    if not is_power_of_two(num_bins):
        raise ValueError(f"num_bins must be a power of two, "
                         f"got {num_bins}")
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 1 << 32, size=length, dtype=np.uint64)
    expected = np.bincount((samples & (num_bins - 1)).astype(np.int64),
                           minlength=num_bins).astype(np.uint64)
    data = (dwords_block("hist_data", samples, readonly=True),
            dwords_block("hist_bins", [0] * num_bins))
    body = f"""\
main:
{range_split(length, num_cores)}
    la   s2, hist_data
    la   s3, hist_bins
    li   s4, {num_bins - 1}    # bin mask
    slli t0, s0, 3
    add  s5, s2, t0            # &data[start]
    slli t0, s1, 3
    add  s6, s2, t0            # &data[end]
hg_loop:
    bgeu s5, s6, hg_done
    ld   t1, 0(s5)
    and  t1, t1, s4            # bin index
    slli t1, t1, 3
    add  t1, t1, s3
    li   t2, 1
    amoadd.d zero, t2, (t1)    # bins[bin] += 1, atomically
    addi s5, s5, 8
    j    hg_loop
hg_done:
    li   a0, 0
    ret
"""
    program = assemble(wrap_program(body, ""), data=data)
    bins_address = program.symbols["hist_bins"]

    def verify(memory) -> bool:
        raw = memory.load_bytes(bins_address, 8 * num_bins)
        actual = np.frombuffer(raw, dtype=np.uint64)
        return bool(np.array_equal(actual, expected))

    return Workload(name="histogram", program=program,
                    num_cores=num_cores, verify=verify,
                    expected=expected.astype(np.float64),
                    metadata={"length": length, "bins": num_bins,
                              "seed": seed})
