"""An executable specification of the mesh/torus NoC, and a
differential that holds :class:`MeshNoC` to it.

``ReferenceMesh`` says what a correct delivery is without a scheduler
and without link frontiers: time advances one cycle at a time, every
message sitting at a router that cycle is handled in the order it got
there, and a link is a count of messages granted per cycle.  A message
at a router either is home (delivered ``router_latency`` later) or asks
for the first cycle at or after ``now + router_latency`` in which its
next link still has a free slot, and reaches the next router
``link_latency`` after that.  XY, YX and adaptive routing pick the next
router; adaptive probes both productive links and breaks ties with its
own ``random.Random(adaptive_seed)``.

The differential drives both with the same generated injection streams
(bursts included, so links saturate) over kind x routing x wrap x
capacity x columns x latencies and compares each message's delivery
cycle, the per-link and per-router traversal counts, and every hop's
queueing delay.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memhier.noc import MeshNoC, NocConfig
from repro.sparta.scheduler import Scheduler
from repro.sparta.unit import Unit


class ReferenceMesh:
    """Per-cycle model of a mesh/torus of routers with slotted links."""

    def __init__(self, config: NocConfig, stations: list[list[str]]):
        self.config = config
        self.at = {}
        for index, names in enumerate(stations):
            for name in names:
                self.at[name] = (index % config.columns,
                                 index // config.columns)
        self.rows = 1 + max(y for _x, y in self.at.values())
        self.rng = random.Random(config.adaptive_seed)
        self.granted = Counter()     # (link, cycle) -> messages granted
        self.links = Counter()       # link -> traversals
        self.routers = Counter()     # (x, y) -> messages handled
        self.waits = []              # queueing delay of every hop
        self.delivered = {}          # payload -> delivery cycle

    def _toward(self, here: int, there: int, size: int) -> int:
        if self.config.wrap:
            forward = (there - here) % size
            return (here + 1) % size if forward <= size - forward \
                else (here - 1) % size
        return here + 1 if there > here else here - 1

    def _first_free(self, link, ready: int) -> int:
        cycle = ready
        while self.granted[(link, cycle)] >= self.config.link_capacity:
            cycle += 1
        return cycle

    def _next_router(self, here, home, ready):
        (x, y), (hx, hy) = here, home
        along_x = (self._toward(x, hx, self.config.columns), y)
        along_y = (x, self._toward(y, hy, self.rows))
        if x == hx:
            return along_y
        if y == hy or self.config.routing == "xy":
            return along_x
        if self.config.routing == "yx":
            return along_y
        free_x = self._first_free((here, along_x), ready)
        free_y = self._first_free((here, along_y), ready)
        if free_x != free_y:
            return along_x if free_x < free_y else along_y
        return along_x if self.rng.random() < 0.5 else along_y

    def run(self, injections: list[tuple[int, str, str]]) -> None:
        """Inject ``(cycle, source, destination)`` number ``i`` as
        payload ``i``; run until every message is delivered."""
        config = self.config
        present: dict[int, list] = {}
        for payload, (cycle, source, destination) in enumerate(injections):
            present.setdefault(cycle, []).append(
                (payload, self.at[source], self.at[destination]))
        cycle = 0
        while present:
            here_now = present.setdefault(cycle, [])
            for payload, here, home in here_now:   # grows at zero latency
                self.routers[here] += 1
                ready = cycle + config.router_latency
                if here == home:
                    self.delivered[payload] = ready
                    continue
                there = self._next_router(here, home, ready)
                link = (here, there)
                depart = self._first_free(link, ready)
                self.granted[(link, depart)] += 1
                self.links[link] += 1
                self.waits.append(depart - ready)
                present.setdefault(depart + config.link_latency, []).append(
                    (payload, there, home))
            del present[cycle]
            cycle += 1


def run_mesh(config: NocConfig, stations, injections):
    """The same stream through a scheduled :class:`MeshNoC`."""
    scheduler = Scheduler()
    noc = MeshNoC("noc", Unit("top", scheduler=scheduler), config=config)
    delivered = {}

    def arrive(payload):
        delivered[payload] = scheduler.current_cycle

    for names in stations:
        for name in names:
            noc.attach(name, arrive, station=names[0])
    waits = []
    noc.queue_observer = waits.append
    for payload, (cycle, source, destination) in enumerate(injections):
        scheduler.schedule(noc.route, cycle, (source, destination, payload))
    scheduler.run_until_idle()
    return noc, delivered, waits


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["mesh", "torus"]))
    config = NocConfig(
        kind=kind,
        routing=draw(st.sampled_from(["xy", "yx", "adaptive"])),
        wrap=kind == "torus" or draw(st.booleans()),
        link_capacity=draw(st.integers(1, 3)),
        columns=draw(st.integers(1, 4)),
        router_latency=draw(st.integers(0, 2)),
        link_latency=draw(st.integers(0, 2)),
        adaptive_seed=draw(st.integers(0, 5)))
    stations = [[f"s{index}"] + draw(st.sampled_from(
                    [[], [f"s{index}.fill"]]))
                for index in range(draw(st.integers(1, 9)))]
    names = [name for names in stations for name in names]
    bursts = draw(st.lists(st.tuples(
        st.integers(0, 24), st.sampled_from(names), st.sampled_from(names),
        st.integers(1, 6)), min_size=1, max_size=12))
    injections = [(cycle, source, destination)
                  for cycle, source, destination, count in bursts
                  for _ in range(count)]
    return config, stations, injections


@settings(deadline=None)
@given(scenarios())
def test_mesh_matches_the_reference(scenario):
    config, stations, injections = scenario
    reference = ReferenceMesh(config, stations)
    reference.run(injections)
    noc, delivered, waits = run_mesh(config, stations, injections)
    assert delivered == reference.delivered
    assert noc.link_utilisation() == dict(reference.links)
    report = noc.congestion_report()
    assert report["routers"] == {f"({x},{y})": count for (x, y), count
                                 in sorted(reference.routers.items())}
    assert waits == reference.waits
    assert report["queue_cycles"] == sum(reference.waits)
    assert report["delivered"] == len(injections)


def test_a_saturated_link_queues_one_message_per_cycle():
    """Twelve messages over one capacity-1 link at once: the spec and the
    model both spread them over twelve departure cycles."""
    config = NocConfig(kind="mesh", columns=2)
    stations = [["a"], ["b"]]
    injections = [(0, "a", "b")] * 12
    reference = ReferenceMesh(config, stations)
    reference.run(injections)
    assert reference.waits == list(range(12))
    _noc, delivered, waits = run_mesh(config, stations, injections)
    assert (delivered, waits) == (reference.delivered, reference.waits)
