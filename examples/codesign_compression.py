#!/usr/bin/env python3
"""§IV hardware/software co-design study: compression + MCPU aggregation.

The paper's §IV describes exactly this workflow: before committing an
optimisation to FPGA logic, use Coyote to ask whether it pays off.  Two
candidate optimisations for sparse workloads are evaluated here:

1. **Value compression** (after Willcock & Lumsdaine): replace the
   float64 non-zero stream with u16 dictionary codes — 4x less value
   traffic, one extra gather per strip.
2. **MCPU vector-request aggregation** (ACME §I-A): the misses of one
   vector instruction travel as a single NoC message handled at the
   memory controller.

Each is swept against memory bandwidth to find where it wins.
"""

from __future__ import annotations

from repro.api import Simulation, SimulationConfig
from repro.kernels import (
    dense_vector,
    quantise_matrix,
    random_csr,
    spmv_csr_compressed,
    spmv_csr_gather_accum,
)

CORES = 8
ROWS = 96
NNZ = 8


def run(workload, **config_kwargs):
    config = SimulationConfig.for_cores(CORES, **config_kwargs)
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert workload.verify(simulation.memory)
    mem_reads = sum(sample.value for sample in results.hierarchy_samples
                    if sample.name == "reads" and ".mc" in sample.path)
    noc = results.hierarchy_value("memhier.noc.messages")
    return results.cycles, int(mem_reads), int(noc)


def main() -> None:
    matrix = random_csr(ROWS, ROWS, NNZ, seed=51)
    x = dense_vector(ROWS, seed=52)
    quantised, _dictionary, _codes = quantise_matrix(matrix, levels=16,
                                                     seed=64)

    print("1) Value compression vs memory bandwidth")
    print(f"{'bandwidth':>10s} {'variant':>14s} {'cycles':>8s} "
          f"{'mem reads':>10s}")
    for name, cycles_per_request in (("ample", 2), ("scarce", 24)):
        base = run(spmv_csr_gather_accum(num_cores=CORES,
                                         matrix=quantised, x=x),
                   mem_cycles_per_request=cycles_per_request)
        comp = run(spmv_csr_compressed(num_cores=CORES, matrix=quantised,
                                       x=x, levels=16, seed=51),
                   mem_cycles_per_request=cycles_per_request)
        print(f"{name:>10s} {'uncompressed':>14s} {base[0]:8d} "
              f"{base[1]:10d}")
        print(f"{name:>10s} {'compressed':>14s} {comp[0]:8d} "
              f"{comp[1]:10d}")
        winner = "compressed" if comp[0] < base[0] else "uncompressed"
        print(f"{'':>10s} -> {winner} wins at {name} bandwidth")

    print()
    print("2) MCPU aggregation (long vectors, VLEN=2048)")
    print(f"{'mode':>16s} {'cycles':>8s} {'NoC msgs':>9s}")
    for aggregation in (False, True):
        cycles, _reads, noc = run(
            spmv_csr_gather_accum(num_cores=CORES, matrix=quantised,
                                  x=x),
            vlen_bits=2048, mcpu_aggregation=aggregation)
        mode = "mcpu-aggregated" if aggregation else "per-line"
        print(f"{mode:>16s} {cycles:8d} {noc:9d}")

    print()
    print("Conclusion: compression pays only when the memory interface")
    print("is the bottleneck; aggregation slashes NoC traffic for long")
    print("vectors — the first-order answers Coyote exists to provide")
    print("before any FPGA implementation effort (paper §IV).")


if __name__ == "__main__":
    main()
