#!/usr/bin/env python3
"""Quickstart: simulate a vector matmul on a 4-core tile.

Demonstrates the three-step public API: build a configuration, pick a
kernel workload, run the simulation — then inspect the outputs the paper
lists (miss rates, dependency stalls, execution time) and check the
kernel's numerical result against the numpy reference.
"""

from repro.api import Simulation, SimulationConfig
from repro.kernels import vector_matmul


def main() -> None:
    # 1. Configure: 4 cores in one VAS-style tile, default memory system
    #    (shared banked L2, set-interleaved mapping, crossbar NoC).
    config = SimulationConfig.for_cores(4)

    # 2. A workload: 16x16 double-precision matmul, rows split across the
    #    4 harts, assembled from genuine RV64+RVV assembly.
    workload = vector_matmul(size=16, num_cores=4)

    # 3. Run.
    simulation = Simulation(config, workload.program)
    results = simulation.run()

    print("=== Coyote quickstart: vector matmul, 4 cores ===")
    print(results.summary())
    print()
    print(f"simulated cycles per core-instruction: "
          f"{results.cycles * results.num_cores / results.instructions:.2f}")
    print(f"L2 bank load balance: {results.bank_utilisation()}")
    print(f"result matches numpy: {workload.verify(simulation.memory)}")


if __name__ == "__main__":
    main()
