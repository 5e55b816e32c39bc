#!/usr/bin/env python3
"""Strong-scaling study of the vector stencil kernel.

Runs the same 3-point Jacobi stencil problem on 1..16 cores and reports
simulated cycles, speedup, and where the time goes (RAW stalls vs fetch
stalls) — the kind of first-order software question Coyote answers
before any FPGA work (§IV).
"""

from __future__ import annotations

from repro.api import Simulation, SimulationConfig
from repro.kernels import vector_stencil

LENGTH = 512
ITERATIONS = 2
CORE_COUNTS = (1, 2, 4, 8, 16)


def main() -> None:
    print(f"Vector stencil strong scaling: {LENGTH} points, "
          f"{ITERATIONS} sweeps")
    header = (f"{'cores':>5s} {'cycles':>9s} {'speedup':>8s} "
              f"{'instr':>8s} {'raw-stall':>10s} {'fetch-stall':>11s}")
    print(header)
    print("-" * len(header))

    baseline_cycles = None
    for cores in CORE_COUNTS:
        config = SimulationConfig.for_cores(cores)
        workload = vector_stencil(length=LENGTH, iterations=ITERATIONS,
                                  num_cores=cores)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        assert workload.verify(simulation.memory), \
            f"stencil verification failed at {cores} cores"
        if baseline_cycles is None:
            baseline_cycles = results.cycles
        speedup = baseline_cycles / results.cycles
        print(f"{cores:5d} {results.cycles:9d} {speedup:8.2f} "
              f"{results.instructions:8d} {results.raw_stall_cycles:10d} "
              f"{results.fetch_stall_cycles:11d}")

    print()
    print("Speedup saturates as the per-core strip shrinks relative to")
    print("the barrier and boundary work, and as more cores contend for")
    print("the same memory controllers.")


if __name__ == "__main__":
    main()
