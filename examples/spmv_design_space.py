#!/usr/bin/env python3
"""Design-space exploration with SpMV — the paper's motivating use case.

Coyote exists to compare "disparate design points within reasonable
time" (§III).  This example sweeps the two L2 design axes the paper
makes configurable — sharing mode (fully-shared vs tile-private) and
address-to-bank mapping (set-interleaving vs page-to-bank) — and crosses
them with three sparse-matrix structures (uniform random, clustered,
banded), reporting cycles and L2 bank load balance for each point.
"""

from __future__ import annotations

import numpy as np

from repro.api import Simulation, SimulationConfig
from repro.kernels import (
    banded_csr,
    clustered_csr,
    dense_vector,
    random_csr,
    spmv_csr_gather_accum,
)

# 16 cores = 2 VAS tiles, so "private" (per-tile) L2 genuinely differs
# from "shared" (system-wide) L2.
CORES = 16
ROWS = 64
NNZ_PER_ROW = 8


def matrices():
    yield "uniform", random_csr(ROWS, ROWS, NNZ_PER_ROW, seed=1)
    yield "clustered", clustered_csr(ROWS, ROWS, NNZ_PER_ROW,
                                     cluster_width=16, seed=2)
    yield "banded", banded_csr(ROWS, bandwidth=4, seed=3)


def imbalance(bank_requests: dict[str, int]) -> float:
    """Max/mean ratio of per-bank request counts (1.0 = perfect)."""
    counts = list(bank_requests.values())
    if not counts or sum(counts) == 0:
        return 0.0
    return max(counts) / (sum(counts) / len(counts))


def main() -> None:
    print(f"SpMV design-space exploration: {CORES} cores, "
          f"{ROWS}x{ROWS} matrices, {NNZ_PER_ROW} nnz/row")
    header = (f"{'matrix':10s} {'l2 mode':8s} {'mapping':17s} "
              f"{'cycles':>8s} {'l1d miss':>9s} {'imbalance':>9s}")
    print(header)
    print("-" * len(header))

    for matrix_name, matrix in matrices():
        x = dense_vector(matrix.num_cols, seed=7)
        for l2_mode in ("shared", "private"):
            for mapping in ("set-interleaving", "page-to-bank"):
                config = SimulationConfig.for_cores(
                    CORES, l2_mode=l2_mode, mapping_policy=mapping)
                workload = spmv_csr_gather_accum(
                    num_cores=CORES, matrix=matrix, x=x)
                simulation = Simulation(config, workload.program)
                results = simulation.run()
                assert workload.verify(simulation.memory), \
                    f"verification failed: {matrix_name}/{l2_mode}/{mapping}"
                print(f"{matrix_name:10s} {l2_mode:8s} {mapping:17s} "
                      f"{results.cycles:8d} "
                      f"{results.l1d_miss_rate():9.2%} "
                      f"{imbalance(results.bank_utilisation()):9.2f}")

    print()
    print("Reading the table: set-interleaving spreads consecutive lines")
    print("across banks (imbalance near 1); page-to-bank keeps pages")
    print("bank-local, which punishes dense sweeps but can help when a")
    print("tile mostly touches its own pages in private mode.")


if __name__ == "__main__":
    main()
