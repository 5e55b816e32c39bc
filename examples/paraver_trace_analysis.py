#!/usr/bin/env python3
"""Generate and analyse a Paraver L1-miss trace.

Coyote's third output (besides statistics and execution time) is "a
trace of L1 misses [that] can be analyzed using the Paraver Visualization
Tools ... by identifying access patterns or analyzing how and when the
L2 banks, NoC, or memory are stressed".  This example writes a genuine
``.prv``/``.pcf`` pair, parses it back, and runs the analyses
programmatically.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.api import Simulation, SimulationConfig
from repro.kernels import spmv_csr_gather_reduce
from repro.paraver import (
    bank_pressure,
    kind_breakdown,
    l2_hit_rate,
    latency_by_outcome,
    parse_prv,
    per_core_counts,
    stride_histogram,
    temporal_profile,
)

CORES = 8


def main() -> None:
    config = SimulationConfig.for_cores(CORES, trace_misses=True)
    workload = spmv_csr_gather_reduce(num_rows=128, nnz_per_row=8,
                                      num_cores=CORES)
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert workload.verify(simulation.memory)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "spmv_trace"
        prv_path, pcf_path = simulation.write_trace(base)
        print(f"wrote {prv_path.name} "
              f"({prv_path.stat().st_size} bytes) + {pcf_path.name}")
        records, duration, cores = parse_prv(prv_path)

    print(f"\ntrace: {len(records)} L1 misses over {duration} cycles on "
          f"{cores} cores")

    print("\nmiss kinds:")
    for kind, count in kind_breakdown(records).items():
        print(f"  {kind.name:7s} {count}")

    print("\nL2 bank pressure (misses serviced per bank):")
    for bank, count in bank_pressure(records).items():
        bar = "#" * (60 * count // max(bank_pressure(records).values()))
        print(f"  bank{bank}: {count:5d} {bar}")

    print(f"\nL2 hit rate among L1 misses: {l2_hit_rate(records):.1%}")
    print("miss latency by L2 outcome:")
    for outcome, summary in latency_by_outcome(records).items():
        print(f"  {outcome:8s} n={summary.count:5d} "
              f"min={summary.minimum:4d} mean={summary.mean:7.1f} "
              f"max={summary.maximum:4d}")

    print("\nper-core miss counts:", per_core_counts(records))

    print("\ntop line-address strides (lines, count):")
    for stride, count in stride_histogram(records):
        print(f"  stride {stride:+6d}: {count}")
    print("(a dominant +1 stride = dense sweep; scattered strides = the "
          "x-gather)")

    bins = temporal_profile(records, duration, bins=15)
    print("\nmisses completing per time bin:")
    peak = max(bins) or 1
    for index, count in enumerate(bins):
        print(f"  t{index:02d} {'#' * (50 * count // peak)} {count}")


if __name__ == "__main__":
    main()
