"""Differential proofs for the contention-aware NoC models.

Three obligations from the interconnect redesign:

* **Baseline preservation** — the default crossbar is untouched: full
  runs stay digest-identical to hex digests captured on the pre-NoC
  tree (any counter added to or removed from the crossbar path would
  change them).
* **Determinism under load** — mesh/torus runs are load-dependent but
  bit-reproducible: repeat runs, checkpoint/resume mid-contention, and
  serial-vs-parallel sweeps all agree digest for digest.
* **Load dependence** — a congested run's mean end-to-end latency
  exceeds the closed-form zero-load hop formula (the idealisation the
  paper's crossbar keeps), proving the contention model actually
  models contention.
"""

import hashlib
import json

import pytest

from repro.api import (
    FaultSpec,
    ResilienceConfig,
    Simulation,
    SimulationConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.coyote.sweep import Sweep
from repro.kernels import instantiate, vector_axpy
from repro.resilience.introspect import in_network_messages

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")

# sha256 digests of full (host-fields-stripped) results captured on the
# tree *before* the NocConfig redesign: the crossbar fast path must
# keep producing exactly these.
BASELINE_CROSSBAR_DIGESTS = {
    ("scalar-matmul", 4, 6, ()):
        "fddd0e71851824f22d85d8618386200fe31b3269b69a7980e9acad5c872f9c32",
    ("scalar-spmv", 8, 8, ()):
        "ea531f2aceb34ecee03ced42dd5f77300c025c069fd394512b9f6ee1891d9e26",
    ("vector-axpy", 1, 16, ()):
        "85829aeb12aa40efcb519ea874807aeee5f2f887771e8de6bd72d7ed8bcc1df2",
    ("stream-triad", 2, 16, (("l2_mode", "private"),)):
        "e1b3e93a21f09a2091ec137e6782a8e2c48eddc5af5d169b7bc590cd8602fae9",
    ("histogram", 8, 16, (("noc.latency", 2),)):
        "733f859cdf687418375854e60a0ee9e787cc9024a243e278d100dd7036d858d6",
}


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


def _run(kernel, cores, size, overrides):
    workload = instantiate(kernel, num_cores=cores, size=size)
    config = SimulationConfig.for_cores(workload.num_cores,
                                        **dict(overrides))
    return _stats(Simulation(config, workload.program).run())


# The topology x routing matrix (routing is crossbar-irrelevant).
TOPOLOGY_MATRIX = [("crossbar", "xy")] + [
    (kind, routing)
    for kind in ("mesh", "torus")
    for routing in ("xy", "yx", "adaptive")
]


class TestRepeatRunDeterminism:
    @pytest.mark.parametrize("cores", [1, 4, 8])
    @pytest.mark.parametrize("kind,routing", TOPOLOGY_MATRIX,
                             ids=[f"{k}-{r}" for k, r in TOPOLOGY_MATRIX])
    def test_identical_digests_across_repeat_runs(self, kind, routing,
                                                  cores):
        overrides = {"noc.kind": kind, "noc.routing": routing}
        first = _run("vector-axpy", cores, 16, overrides.items())
        second = _run("vector-axpy", cores, 16, overrides.items())
        assert _digest(first) == _digest(second)
        assert first == second


class TestCrossbarBaseline:
    @pytest.mark.parametrize(
        "kernel,cores,size,overrides",
        sorted(BASELINE_CROSSBAR_DIGESTS),
        ids=[kernel for kernel, _c, _s, _o
             in sorted(BASELINE_CROSSBAR_DIGESTS)])
    def test_digest_identical_to_pre_redesign_tree(self, kernel, cores,
                                                   size, overrides):
        expected = BASELINE_CROSSBAR_DIGESTS[(kernel, cores, size,
                                              overrides)]
        assert _digest(_run(kernel, cores, size, overrides)) == expected


class TestLoadDependence:
    def test_congested_mean_latency_exceeds_closed_form(self):
        # A narrow 2-column mesh under an 8-core kernel keeps links
        # busy; the contention model must charge for that.
        stats = _run("scalar-spmv", 8, 8,
                     {"noc.kind": "mesh", "noc.columns": 2}.items())
        hierarchy = stats["hierarchy"]
        delivered = hierarchy["memhier.noc.delivered"]
        hops = hierarchy["memhier.noc.hops"]
        total_latency = hierarchy["memhier.noc.total_latency"]
        assert delivered > 0
        # Closed form summed over the actual messages: every message
        # pays (hops+1) router cycles + hops link cycles at zero load.
        zero_load_total = (hops + delivered) * 1 + hops * 1
        assert total_latency > zero_load_total
        assert hierarchy["memhier.noc.queue_cycles"] \
            == total_latency - zero_load_total

    def test_wider_links_reduce_queueing(self):
        narrow = _run("scalar-spmv", 8, 8,
                      {"noc.kind": "mesh", "noc.columns": 2}.items())
        wide = _run("scalar-spmv", 8, 8,
                    {"noc.kind": "mesh", "noc.columns": 2,
                     "noc.link_capacity": 4}.items())
        assert wide["hierarchy"]["memhier.noc.queue_cycles"] \
            < narrow["hierarchy"]["memhier.noc.queue_cycles"]

    def test_torus_wrap_cuts_hops(self):
        mesh = _run("scalar-spmv", 8, 8,
                    {"noc.kind": "mesh", "noc.columns": 2}.items())
        torus = _run("scalar-spmv", 8, 8,
                     {"noc.kind": "torus", "noc.columns": 2}.items())
        assert torus["hierarchy"]["memhier.noc.hops"] \
            < mesh["hierarchy"]["memhier.noc.hops"]


def _contended_simulation(faults=()):
    workload = instantiate("scalar-spmv", num_cores=8, size=8)
    overrides = {"noc.kind": "torus", "noc.routing": "adaptive",
                 "noc.columns": 2}
    config = SimulationConfig.for_cores(8, **overrides)
    if faults:
        config.resilience = ResilienceConfig(faults=list(faults),
                                             fault_seed=42)
    return Simulation(config, workload.program), workload


class TestCheckpointMidContention:
    def test_resume_matches_straight_run(self, tmp_path):
        straight, _ = _contended_simulation()
        reference = _stats(straight.run())
        assert reference["hierarchy"]["memhier.noc.queue_cycles"] > 0

        # Find a pause point with traffic physically in the network, so
        # the checkpoint really pickles in-flight link state.
        total = reference["cycles"]
        paused = None
        for fraction in (0.3, 0.4, 0.5, 0.6, 0.7):
            candidate, _ = _contended_simulation()
            assert candidate.run(
                pause_at=max(1, int(total * fraction))) is None
            if in_network_messages(candidate.orchestrator) > 0:
                paused = candidate
                break
        assert paused is not None, "no pause point caught messages " \
                                   "mid-network"

        path = save_checkpoint(paused, tmp_path / "noc.ckpt", {})
        resumed, _metadata = load_checkpoint(path)
        assert _stats(resumed.run()) == reference

    def test_resume_matches_under_link_faults(self, tmp_path):
        faults = (FaultSpec(target="noc", kind="delay", extra=7,
                            start=0, end=10_000, probability=0.2),
                  FaultSpec(target="noc", kind="duplicate",
                            start=0, end=10_000, probability=0.05),)
        straight, workload = _contended_simulation(faults)
        reference = _stats(straight.run())

        paused, _ = _contended_simulation(faults)
        assert paused.run(
            pause_at=max(1, reference["cycles"] // 2)) is None
        path = save_checkpoint(paused, tmp_path / "faulty.ckpt", {})
        resumed, _metadata = load_checkpoint(path)
        results = resumed.run()
        assert _stats(results) == reference
        assert workload.verify(resumed.memory)


class TestSweepDeterminism:
    AXES = {"noc.kind": ["crossbar", "mesh", "torus"],
            "noc.routing": ["xy", "adaptive"]}

    @staticmethod
    def _make_axpy():
        return vector_axpy(length=32, num_cores=2)

    def test_serial_and_parallel_tables_identical(self):
        serial = Sweep(base_cores=2, axes=self.AXES).run(self._make_axpy)
        parallel = Sweep(base_cores=2, axes=self.AXES).run(
            self._make_axpy, workers=2)
        serial_dict = serial.to_dict()
        parallel_dict = parallel.to_dict()
        serial_dict.pop("workers", None)
        parallel_dict.pop("workers", None)
        for table in (serial_dict, parallel_dict):
            for point in table["points"]:
                for field in _HOST_FIELDS:
                    point.get("results", {}).pop(field, None)
        assert _digest(serial_dict) == _digest(parallel_dict)
