"""Unit tests for the mesh/torus contention model.

Covers the structured :class:`NocConfig`, link arbitration (capacity,
queueing), routing policies, stations, conservation checks, and the
observability hooks — all at the unit level with hand-placed endpoints,
so each behaviour is pinned to exact cycle numbers.  The last section
drives whole 16-router networks with seeded random traffic and pins each
topology's saturation curve (simulated cycles: deterministic, so a test
and not a benchmark).
"""

import functools
import pickle
import random

import pytest

from repro.coyote.config import SimulationConfig
from repro.memhier.noc import (
    NocConfig,
    RoutingPolicy,
    make_noc,
)
from repro.sparta.scheduler import Scheduler
from repro.sparta.unit import Unit


@pytest.fixture
def root():
    return Unit("top", scheduler=Scheduler())


def make_mesh(root, endpoints, name="noc", **config_kwargs):
    """A MeshNoC with ``endpoints`` attached in order and every
    delivery recorded as ``(cycle, endpoint, payload)``."""
    noc = make_noc(NocConfig(kind=config_kwargs.pop("kind", "mesh"),
                             **config_kwargs), name, root)
    deliveries = []

    def handler_for(name):
        return lambda payload: deliveries.append(
            (root.scheduler.current_cycle, name, payload))

    for name in endpoints:
        noc.attach(name, handler_for(name))
    return noc, deliveries


class TestNocConfig:
    def test_defaults_are_valid(self):
        NocConfig().validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            NocConfig(kind="hypercube")

    def test_unknown_routing(self):
        with pytest.raises(ValueError):
            NocConfig(routing="zigzag")

    def test_routing_enum_normalised_to_string(self):
        config = NocConfig(routing=RoutingPolicy.ADAPTIVE)
        assert config.routing == "adaptive"
        assert isinstance(config.routing, str)

    def test_torus_forces_wrap(self):
        assert NocConfig(kind="torus").wrap
        assert NocConfig(kind="torus", wrap=False).wrap

    def test_bad_numbers(self):
        for bad in (dict(latency=-1), dict(columns=0),
                    dict(router_latency=-1), dict(link_latency=-1),
                    dict(link_capacity=0)):
            with pytest.raises(ValueError):
                NocConfig(**bad)

    def test_a_section_value_builds_through_for_cores(self):
        # None is the default, an instance passes through, a dict (the
        # config-file spelling) is built into one.
        assert SimulationConfig.for_cores(2, noc=None).noc == NocConfig()
        config = NocConfig(kind="mesh")
        assert SimulationConfig.for_cores(2, noc=config).noc is config
        assert SimulationConfig.for_cores(
            2, noc={"kind": "mesh", "columns": 2}).noc \
            == NocConfig(kind="mesh", columns=2)

    def test_a_section_value_refuses_an_unknown_key(self):
        with pytest.raises(ValueError, match=r"noc\.bogus"):
            SimulationConfig.for_cores(2, noc={"bogus": 1})
        document = SimulationConfig.for_cores(2).to_dict()
        document["memhier"]["noc"]["bogus"] = 1
        with pytest.raises(ValueError, match=r"noc\.bogus"):
            SimulationConfig.from_dict(document)


class TestLinkContention:
    def test_second_message_queues_on_busy_link(self, root):
        # Two same-cycle messages over the single (0,0)->(1,0) link:
        # the first departs its router at cycle 1 and is delivered at
        # cycle 3 (the closed form); the second finds the link slot
        # taken, departs at 2, and lands at 4.
        noc, deliveries = make_mesh(root, ["a", "b"], columns=2)
        noc.route("a", "b", "first")
        noc.route("a", "b", "second")
        root.scheduler.run_until_idle()
        assert deliveries == [(3, "b", "first"), (4, "b", "second")]
        assert noc.stats._counters["queue_cycles"].value == 1

    def test_link_capacity_two_admits_both(self, root):
        noc, deliveries = make_mesh(root, ["a", "b"], columns=2,
                                    link_capacity=2)
        noc.route("a", "b", "first")
        noc.route("a", "b", "second")
        root.scheduler.run_until_idle()
        assert deliveries == [(3, "b", "first"), (3, "b", "second")]
        assert noc.stats._counters["queue_cycles"].value == 0

    def test_zero_load_latency_matches_closed_form(self, root):
        noc, deliveries = make_mesh(root, [f"e{i}" for i in range(8)],
                                    columns=4)
        expected = noc.route_latency("e0", "e7")  # (0,0) -> (3,1)
        noc.route("e0", "e7", "x")
        root.scheduler.run_until_idle()
        assert deliveries == [(expected, "e7", "x")]

    def test_contended_latency_exceeds_closed_form(self, root):
        noc, deliveries = make_mesh(root, ["a", "b"], columns=2)
        for index in range(8):
            noc.route("a", "b", index)
        root.scheduler.run_until_idle()
        closed_form = noc.route_latency("a", "b")
        mean = (sum(cycle for cycle, _e, _p in deliveries)
                / len(deliveries))
        assert mean > closed_form
        # But the *first* message still sees the zero-load number.
        assert deliveries[0][0] == closed_form

    def test_disjoint_links_do_not_interfere(self, root):
        # a->b uses (0,0)->(1,0); c->d uses (0,1)->(1,1).
        noc, deliveries = make_mesh(root, ["a", "b", "c", "d"],
                                    columns=2)
        noc.route("a", "b", "row0")
        noc.route("c", "d", "row1")
        root.scheduler.run_until_idle()
        assert sorted(deliveries) == [(3, "b", "row0"), (3, "d", "row1")]


class TestTopologyAndRouting:
    def test_torus_wrap_shortens_path(self, root):
        endpoints = [f"e{i}" for i in range(4)]
        mesh, _ = make_mesh(root, endpoints, name="mesh", columns=4)
        torus, _ = make_mesh(root, endpoints, name="torus",
                             kind="torus", columns=4)
        assert mesh.route_latency("e0", "e3") == 3 * 2 + 1  # 3 hops
        assert torus.route_latency("e0", "e3") == 1 * 2 + 1  # wraps
        assert torus.wrap and not mesh.wrap

    def test_torus_delivery_uses_wrap_link(self, root):
        noc, deliveries = make_mesh(root, [f"e{i}" for i in range(4)],
                                    kind="torus", columns=4)
        noc.route("e0", "e3", "x")
        root.scheduler.run_until_idle()
        assert deliveries[0][0] == noc.route_latency("e0", "e3")
        assert ((0, 0), (3, 0)) in noc.link_utilisation()

    def test_xy_and_yx_take_different_corners(self, root):
        for routing, corner in (("xy", ((1, 0), (1, 1))),
                                ("yx", ((0, 1), (1, 1)))):
            scheduler = Scheduler()
            local_root = Unit("top", scheduler=scheduler)
            noc, deliveries = make_mesh(local_root,
                                        ["e0", "e1", "e2", "e3"],
                                        columns=2, routing=routing)
            noc.route("e0", "e3", "x")  # (0,0) -> (1,1)
            scheduler.run_until_idle()
            assert deliveries[0][0] == 5  # 2 hops either way
            assert corner in noc.link_utilisation(), routing

    def test_adaptive_is_deterministic_across_runs(self, root):
        def run_once():
            scheduler = Scheduler()
            local_root = Unit("top", scheduler=scheduler)
            noc, deliveries = make_mesh(
                local_root, [f"e{i}" for i in range(4)], columns=2,
                routing="adaptive", adaptive_seed=11)
            for index in range(12):
                noc.route("e0", "e3", index)
                noc.route("e3", "e0", -index)
            scheduler.run_until_idle()
            return deliveries, noc.link_utilisation()

        assert run_once() == run_once()

    def test_adaptive_avoids_congested_dimension(self, root):
        # Pre-load the x-link out of (0,0); the adaptive probe must
        # route the next (0,0)->(1,1) message via the y-link first.
        noc, _deliveries = make_mesh(root, ["e0", "e1", "e2", "e3"],
                                     columns=2, routing="adaptive")
        noc.route("e0", "e1", "congest-x")
        noc.route("e0", "e3", "probe")
        root.scheduler.run_until_idle()
        assert ((0, 0), (0, 1)) in noc.link_utilisation()

    def test_stations_share_a_router(self, root):
        noc = make_noc(NocConfig(kind="mesh", columns=2), "noc", root)
        received = []
        noc.attach("bank0", lambda p: None)
        noc.attach("bank0.fill", received.append, station="bank0")
        assert noc._coordinates["bank0"] == noc._coordinates["bank0.fill"]
        assert noc.route_latency("bank0", "bank0.fill") \
            == noc.router_latency  # zero hops
        noc.route("bank0", "bank0.fill", "fill")
        root.scheduler.run_until_idle()
        assert received == ["fill"]


class TestAccounting:
    def test_conservation_clean_after_drain(self, root):
        noc, _deliveries = make_mesh(root, ["a", "b"], columns=2)
        for index in range(5):
            noc.route("a", "b", index)
        root.scheduler.run_until_idle()
        assert noc.check_conservation(0) == []
        report = noc.congestion_report()
        assert report["injected"] == report["delivered"] == 5
        assert report["in_network"] == 0

    def test_conservation_flags_mismatch(self, root):
        noc, _deliveries = make_mesh(root, ["a", "b"], columns=2)
        noc.route("a", "b", "x")
        root.scheduler.run_until_idle()
        violations = noc.check_conservation(1)  # lie: one still inside
        names = {entry["invariant"] for entry in violations}
        assert names == {"noc_flit_conservation", "noc_occupancy_gauge"}

    def test_queue_observer_sees_waits(self, root):
        noc, _deliveries = make_mesh(root, ["a", "b"], columns=2)
        waits = []
        noc.queue_observer = waits.append
        noc.route("a", "b", "first")
        noc.route("a", "b", "second")
        root.scheduler.run_until_idle()
        assert waits == [0, 1]  # one observation per link traversal

    def test_occupancy_sink_tracks_gauge(self, root):
        noc, _deliveries = make_mesh(root, ["a", "b"], columns=2)
        samples = []
        noc.occupancy_sink = lambda cycle, count: samples.append(count)
        noc.route("a", "b", "first")
        noc.route("a", "b", "second")
        root.scheduler.run_until_idle()
        assert samples == [1, 2, 1, 0]  # two injects, two delivers

    def test_congestion_report_is_json_safe(self, root):
        import json
        noc, _deliveries = make_mesh(root, ["a", "b", "c", "d"],
                                     columns=2)
        noc.route("a", "d", "x")
        root.scheduler.run_until_idle()
        report = noc.congestion_report()
        json.dumps(report)
        assert sum(report["links"].values()) == report["hops"]

    def test_mesh_link_utilisation_keyed_by_coordinates(self, root):
        noc, _deliveries = make_mesh(root, ["a", "b"], columns=2)
        noc.route("a", "b", "x")
        root.scheduler.run_until_idle()
        assert noc.link_utilisation() == {((0, 0), (1, 0)): 1}


def _drop(payload):
    """Module-level no-op delivery handler (picklable)."""


class TestMidFlightPickle:
    def test_network_state_survives_a_pickle(self, root):
        noc = make_noc(NocConfig(kind="mesh", columns=2,
                                 routing="adaptive"), "noc", root)
        noc.attach("a", _drop)
        noc.attach("b", _drop)
        for index in range(6):
            noc.route("a", "b", index)
        root.scheduler.advance_to(2)  # messages still in flight
        assert noc.stats._counters["in_network"].value > 0
        blob = pickle.dumps((root, noc), protocol=2)
        clone_root, clone = pickle.loads(blob)
        clone_root.scheduler.run_until_idle()
        root.scheduler.run_until_idle()
        assert clone.congestion_report() == noc.congestion_report()


# -- saturation curves --------------------------------------------------------

_RATES = (1, 2, 4, 8, 16)      # messages injected per cycle
# Mean end-to-end latency at each rate, 16 routers, 2000 cycles of
# injection (the last recorded entry of the retired BENCH_noc.json).
_SATURATION = {
    "crossbar": (NocConfig(), (6.0, 6.0, 6.0, 6.0, 6.0)),
    "mesh-xy": (NocConfig(kind="mesh", routing="xy"),
                (6.293, 6.434, 6.604, 7.199, 68.764)),
    "mesh-adaptive": (NocConfig(kind="mesh", routing="adaptive"),
                      (6.296, 6.421, 6.541, 6.912, 83.662)),
    "torus-xy": (NocConfig(kind="torus", routing="xy"),
                 (5.317, 5.351, 5.449, 5.721, 7.955)),
    "torus-adaptive": (NocConfig(kind="torus", routing="adaptive"),
                       (5.316, 5.343, 5.403, 5.583, 6.802)),
}


@functools.cache
def _curve(label: str) -> tuple:
    """Mean latency at each of ``_RATES``: sources and destinations are
    uniform-random under a dedicated seeded PRNG, so every topology sees
    the same offered traffic and repeat runs are bit-identical."""
    means = []
    for rate in _RATES:
        scheduler = Scheduler()
        noc = make_noc(_SATURATION[label][0], "noc",
                       Unit("top", scheduler=scheduler))
        endpoints = [f"e{i}" for i in range(16)]
        for name in endpoints:
            noc.attach(name, _drop)
        rng = random.Random(1234)
        latencies = []
        noc.latency_observer = latencies.append
        for cycle in range(2000):
            scheduler.advance_to(cycle + 1)
            for _ in range(rate):
                source, destination = rng.sample(endpoints, 2)
                noc.route(source, destination, None)
        scheduler.run_until_idle()
        assert len(latencies) == rate * 2000, "traffic lost in the network"
        means.append(round(sum(latencies) / len(latencies), 3))
    return tuple(means)


@pytest.mark.parametrize("label", sorted(_SATURATION))
def test_saturation_curve(label):
    """The crossbar is contention-free by construction; mesh and torus
    bend upward as links saturate, the torus (wrap links halve the mean
    path) and — up to the knee — the adaptive policy later."""
    curve = _curve(label)
    assert curve == _SATURATION[label][1]
    if label == "crossbar":
        assert set(curve) == {6.0}
        return
    assert list(curve) == sorted(curve) and curve[-1] > curve[0]
    kind, routing = label.split("-")
    assert all(torus <= mesh for torus, mesh in
               zip(_curve(f"torus-{routing}"), _curve(f"mesh-{routing}")))
    # At the knee (8 a cycle) adaptive routing queues less than XY.  Past
    # it the torus still gains; the saturated mesh does not (83.7 against
    # 68.8 at 16 a cycle), which the pinned values record.
    assert _curve(f"{kind}-adaptive")[3] <= _curve(f"{kind}-xy")[3]
    assert _curve("torus-adaptive")[4] <= _curve("torus-xy")[4]
