"""NoC saturation curves and crossbar fast-path overhead.

Two measurements, recorded into ``BENCH_noc.json`` at the repo root:

* **Saturation curves** — for each topology (crossbar, mesh-xy,
  mesh-adaptive, torus-xy, torus-adaptive), a standalone network of 16
  routers is driven with uniform-random (seeded, reproducible) traffic
  at increasing offered load; the curve records mean end-to-end latency
  and queueing per message at each injection rate.  The crossbar stays
  flat (it is contention-free by construction); mesh/torus bend upward
  as links saturate, with the torus and the adaptive policy saturating
  later — the qualitative shape real interconnects show.

* **Crossbar host overhead** — the redesign's only change on the
  default crossbar path is the physical-link port accounting.  The
  same full simulation is timed against an in-benchmark replica of the
  pre-redesign ``route()`` (pair-keyed, single increment) and the
  relative overhead recorded; the acceptance bar is < 2%.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.noc_contention
    PYTHONPATH=src python -m benchmarks.perf.noc_contention --quick
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.coyote import Simulation, SimulationConfig
from repro.kernels import instantiate
from repro.memhier.noc import CrossbarNoC, MeshNoC, NocConfig, make_noc
from repro.sparta.scheduler import Scheduler
from repro.sparta.unit import Unit

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_noc.json"

TOPOLOGIES = {
    "crossbar": NocConfig(),
    "mesh-xy": NocConfig(kind="mesh", routing="xy"),
    "mesh-adaptive": NocConfig(kind="mesh", routing="adaptive"),
    "torus-xy": NocConfig(kind="torus", routing="xy"),
    "torus-adaptive": NocConfig(kind="torus", routing="adaptive"),
}
ROUTERS = 16  # 4x4 grid (the crossbar just gets 16 endpoints)


def _drain(payload):
    """Delivery sink for synthetic traffic."""


def measure_point(config: NocConfig, rate: int, cycles: int,
                  seed: int = 1234) -> dict:
    """Drive one network at ``rate`` messages/cycle for ``cycles``.

    Sources and destinations are uniform-random under a dedicated,
    seeded PRNG, so every topology sees the same offered traffic and
    repeat runs are bit-identical.
    """
    scheduler = Scheduler()
    root = Unit("top", scheduler=scheduler)
    noc = make_noc(config, "noc", root)
    endpoints = [f"e{i}" for i in range(ROUTERS)]
    for name in endpoints:
        noc.attach(name, _drain)
    rng = random.Random(seed)
    latencies: list[int] = []
    noc.latency_observer = latencies.append

    for cycle in range(cycles):
        scheduler.advance_to(cycle + 1)
        for _ in range(rate):
            source, destination = rng.sample(endpoints, 2)
            noc.route(source, destination, None)
    scheduler.run_until_idle()

    sent = rate * cycles
    assert len(latencies) == sent, "traffic lost in the network"
    point = {
        "offered_rate": rate,
        "messages": sent,
        "mean_latency": round(sum(latencies) / sent, 3),
        "max_latency": max(latencies),
    }
    if isinstance(noc, MeshNoC):
        point["queue_cycles_per_message"] = round(
            noc.stats._counters["queue_cycles"].value / sent, 3)
    return point


def saturation_curves(rates: list[int], cycles: int) -> dict:
    curves: dict[str, list[dict]] = {}
    for label, config in TOPOLOGIES.items():
        curve = []
        for rate in rates:
            point = measure_point(config, rate, cycles)
            curve.append(point)
            queue = point.get("queue_cycles_per_message", 0.0)
            print(f"  {label:<15s} rate={rate:<3d} "
                  f"mean latency {point['mean_latency']:7.2f}  "
                  f"queue/message {queue:6.2f}")
        curves[label] = curve
    return curves


# -- crossbar fast-path overhead ------------------------------------------


def _legacy_route(self, source, destination, payload):
    """The pre-redesign ``CrossbarNoC.route``: link accounting keyed by
    ``(source, destination)`` pair, one increment per message."""
    endpoints = self._endpoints
    handler = endpoints.get(destination)
    if handler is None:
        raise Exception(f"unknown NoC endpoint {destination!r}")
    if source not in endpoints:
        raise Exception(f"unknown NoC endpoint {source!r}")
    self._messages.value += 1
    link = (source, destination)
    self._link_counts[link] = self._link_counts.get(link, 0) + 1
    latency = self.route_latency(source, destination)
    observer = self.latency_observer
    hook = self.fault_hook
    if hook is None:
        if observer is not None:
            observer(latency)
        self.scheduler.schedule(handler, latency, (payload,))
        return
    for delay, item in hook(source, destination, payload, latency):
        if observer is not None:
            observer(delay)
        self.scheduler.schedule(handler, delay, (item,))


def _time_crossbar_run(kernel: str, cores: int, size: int) -> float:
    workload = instantiate(kernel, cores, size)
    config = SimulationConfig.for_cores(workload.num_cores)
    simulation = Simulation(config, workload.program)
    started = time.perf_counter()
    simulation.run()
    return time.perf_counter() - started


def crossbar_overhead(kernel: str, cores: int, size: int,
                      repeats: int) -> dict:
    """Best-of-N wall time of the default crossbar run, current vs the
    pre-redesign route(); returns the relative overhead."""
    current_route = CrossbarNoC.route
    current = []
    legacy = []
    for _ in range(repeats):
        current.append(_time_crossbar_run(kernel, cores, size))
        CrossbarNoC.route = _legacy_route
        try:
            legacy.append(_time_crossbar_run(kernel, cores, size))
        finally:
            CrossbarNoC.route = current_route
    best_current, best_legacy = min(current), min(legacy)
    overhead = (best_current - best_legacy) / best_legacy
    return {
        "kernel": f"{kernel} size={size} cores={cores}",
        "repeats": repeats,
        "wall_seconds_current": round(best_current, 6),
        "wall_seconds_legacy_route": round(best_legacy, 6),
        "overhead_vs_legacy": round(overhead, 4),
        "within_2_percent": overhead < 0.02,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="NoC saturation curves + crossbar overhead check.")
    parser.add_argument("--rates", default="1,2,4,8,16",
                        help="comma-separated injection rates "
                             "(messages/cycle)")
    parser.add_argument("--cycles", type=int, default=2000,
                        help="injection window length per point")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for the overhead check")
    parser.add_argument("--quick", action="store_true",
                        help="small CI-friendly settings")
    parser.add_argument("--no-trajectory", action="store_true",
                        help="don't append to BENCH_noc.json")
    args = parser.parse_args(argv)

    rates = sorted({int(token) for token in args.rates.split(",")})
    cycles = 300 if args.quick else args.cycles
    repeats = 2 if args.quick else args.repeats

    print(f"saturation: {ROUTERS} routers, rates {rates}, "
          f"{cycles} cycles per point")
    curves = saturation_curves(rates, cycles)

    # Sanity: the model must actually bend under load.
    crossbar_flat = (curves["crossbar"][0]["mean_latency"]
                     == curves["crossbar"][-1]["mean_latency"])
    mesh_bends = (curves["mesh-xy"][-1]["mean_latency"]
                  > curves["mesh-xy"][0]["mean_latency"])
    if not crossbar_flat or not mesh_bends:
        print("FAIL: saturation curves have the wrong shape",
              file=sys.stderr)
        return 1

    print("crossbar fast-path overhead (current vs pre-redesign route):")
    overhead = crossbar_overhead("scalar-matmul", cores=4,
                                 size=6 if args.quick else 16,
                                 repeats=repeats)
    print(f"  current {overhead['wall_seconds_current']:.3f}s  "
          f"legacy {overhead['wall_seconds_legacy_route']:.3f}s  "
          f"overhead {overhead['overhead_vs_legacy']:+.2%}")

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "routers": ROUTERS,
        "cycles_per_point": cycles,
        "saturation": curves,
        "crossbar_flat": crossbar_flat,
        "host_overhead": overhead,
    }
    if not args.no_trajectory:
        trajectory = []
        if TRAJECTORY_PATH.exists():
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory.append(entry)
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2)
                                   + "\n")
        print(f"trajectory appended to {TRAJECTORY_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
