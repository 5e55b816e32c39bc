"""Pinned results of the contention-modelled memory side.

``tests/coyote/test_noc_differential.py`` pins the crossbar; nothing
pinned a mesh or torus run.  Each case here is a full simulation whose
host-field-stripped results are reduced to a sha256 digest, so any
change to when a message is delivered, which link it takes, or what a
counter reads shows up as a digest change.  Two reports of one run are
pinned beside them (``congestion_report()`` and ``link_utilisation()``),
and a congested mesh paused mid-run must show a live link backlog.

Run the file as a script to print fresh digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import instantiate, stream_triad
from repro.resilience.watchdog import build_snapshot
from repro.resilience.faults import FaultPlan

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")
_FAULT_PLAN = Path(__file__).resolve().parents[2] / "examples" \
    / "noc_fault_plan.json"

_SPMV = ("scalar-spmv", 8, 16)
_MESH = {"noc.kind": "mesh", "noc.columns": 2}

# name -> (kernel, cores, size, overrides)
CASES = {
    "mesh-xy": (*_SPMV, _MESH),
    "mesh-yx": (*_SPMV, {**_MESH, "noc.routing": "yx"}),
    "mesh-adaptive-seed0": (*_SPMV, {**_MESH, "noc.routing": "adaptive"}),
    "mesh-adaptive-seed7": (*_SPMV, {**_MESH, "noc.routing": "adaptive",
                                     "noc.adaptive_seed": 7}),
    "torus-xy": (*_SPMV, {**_MESH, "noc.kind": "torus"}),
    "mesh-capacity2": (*_SPMV, {**_MESH, "noc.link_capacity": 2}),
    "mesh-columns3": (*_SPMV, {"noc.kind": "mesh", "noc.columns": 3}),
    "mesh-l3": (*_SPMV, {**_MESH, "l3_enable": True}),
    "mesh-private-l2": ("stream-triad", 8, 64,
                        {**_MESH, "l2_mode": "private"}),
    "mesh-prefetch1": ("stream-triad", 8, 64,
                       {**_MESH, "prefetch_depth": 1}),
    "mesh-l2-port2": (*_SPMV, {**_MESH, "l2_cycles_per_request": 2}),
    "mesh-fault-plan": ("scalar-matmul", 4, 8, _MESH),
    "mesh-mcpu": (None, 4, 512, {**_MESH, "vlen_bits": 2048,
                                 "mcpu_aggregation": True}),
}

DIGESTS = {
    "mesh-xy":
        "cb06ad4b44b27e142ed6939a73d740c8fbe809ea515874040ecd98ab5a3ad0a8",
    "mesh-yx":
        "8ce321572908a63c49529074b7188bde1e27263b01f6970d7c7a7e78a4a90b52",
    "mesh-adaptive-seed0":
        "a859e063a12c5abd6b25baed057f852ed6cf4f331a5a7d795e3028c5d504a7bb",
    "mesh-adaptive-seed7":
        "a4335992f3352589bb3fe7ed07220a9e6c4cde53ed23912cecfe17bb03eaef5e",
    "torus-xy":
        "07c2f7fc26ae54148194b3f3a24efb32abd450fc22a395ee54d24fc3f4a04d5b",
    "mesh-capacity2":
        "dd766a274e7ba6da3a9a1caf62a7ff39d71e7af489eddc2430ae167be6ad5063",
    "mesh-columns3":
        "5cfdca13818cadd0a8b4e377901ef77a68fda7051226b41088b763d851b0e738",
    "mesh-l3":
        "db9751f9d0955529f3f267ccdc7e4516763481a3b70ad5738c179e51a166782c",
    "mesh-private-l2":
        "0eb21de5a03736308809b3ce8186f5ca21254e837cfb1e53d50056f18f0251d9",
    "mesh-prefetch1":
        "6457fd563edcbcb59f2edc74e0f041c3a05fc5dc0d7c641d1c34d0ed01e6fad9",
    "mesh-l2-port2":
        "319059a115cf6c9d98d4b77370ffd91a2af392732246d81276ae13a71437a796",
    "mesh-fault-plan":
        "2ff1d975902ad3f1a0169c8ceccc06595eec93a7ef493f4e9f07a28e6195fce4",
    "mesh-mcpu":
        "f71bcb6456df07482d209666bc132030052c33fc2a22429faf075e3a295fa26a",
}

# congestion_report() and sorted link_utilisation() of "mesh-adaptive-seed7"
REPORT_DIGESTS = {
    "congestion_report":
        "aa395dd4cc933c97ed55cffce8b174ffa52a3911f056b9ccc29320750c222d16",
    "link_utilisation":
        "c8dc3e1ce99870276e39a5c463fc7e70f4bee985258a6098861af0ffacf1acc8",
}


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


def _simulate(name):
    kernel, cores, size, overrides = CASES[name]
    if kernel is None:
        workload = stream_triad(length=size, num_cores=cores)
    else:
        workload = instantiate(kernel, num_cores=cores, size=size)
    config = SimulationConfig.for_cores(cores, **overrides)
    if name == "mesh-fault-plan":
        FaultPlan.load(_FAULT_PLAN).apply(config.resilience)
    simulation = Simulation(config, workload.program)
    results = simulation.run()
    assert results.succeeded()
    assert workload.verify(simulation.memory)
    return simulation, results


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def _reports(noc):
    return {
        "congestion_report": noc.congestion_report(),
        "link_utilisation": sorted(
            [list(map(list, link)), count]
            for link, count in noc.link_utilisation().items()),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_results_digest_is_pinned(name):
    _simulation, results = _simulate(name)
    assert _digest(_stats(results)) == DIGESTS[name]


def test_reports_are_pinned():
    simulation, _results = _simulate("mesh-adaptive-seed7")
    reports = _reports(simulation.orchestrator.hierarchy.noc)
    assert {key: _digest(value) for key, value in reports.items()} \
        == REPORT_DIGESTS
    report = reports["congestion_report"]
    assert sum(report["links"].values()) == report["hops"]
    assert sum(report["routers"].values()) \
        == report["hops"] + report["delivered"]


def test_congested_mesh_snapshot_has_a_live_backlog():
    """Paused at cycle 400 a two-column mesh has links granted into the
    future; an empty ``busy_links`` would mean the frontier is not read
    (or not kept)."""
    workload = instantiate("scalar-matmul", num_cores=4, size=8)
    config = SimulationConfig.for_cores(
        4, **{"noc.kind": "mesh", "noc.columns": 2,
              "noc.link_capacity": 1})
    simulation = Simulation(config, workload.program)
    assert simulation.run(pause_at=400) is None
    busy = build_snapshot(simulation.orchestrator, "probe")["noc"][
        "busy_links"]
    assert busy
    for depth in busy.values():
        assert depth["backlog_cycles"] > 0
        assert depth["slots_used"] >= 1


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'    "{case}": "{_digest(_stats(_simulate(case)[1]))}",')
    sim, _ = _simulate("mesh-adaptive-seed7")
    for key, value in _reports(sim.orchestrator.hierarchy.noc).items():
        print(f'    "{key}": "{_digest(value)}",')
