"""Network-on-chip models.

The paper models the NoC "as a highly idealized crossbar, that uses fixed,
configurable latencies" and lists more realistic NoC modelling as work in
progress.  We provide both ends of that spectrum:

* :class:`CrossbarNoC` — the paper's model: every route costs the same
  fixed latency, with unlimited bandwidth.
* :class:`MeshNoC` — the "work in progress" extension made real: a 2D
  mesh (or torus, with wrap-around links) of routers with per-hop
  pipelines and **link contention** — a directed router-to-router link
  carries ``link_capacity`` flit-bursts per cycle, and conflicting
  messages queue, so latency is load-dependent instead of the
  closed-form Manhattan formula.  Routing is XY, YX, or a
  deterministically-seeded adaptive policy.

Every knob lives in the frozen :class:`NocConfig` carried by
``MemHierConfig.noc`` and sweepable through ``SimulationConfig.for_cores``
as dotted ``noc.*`` overrides.

Endpoints register a handler; units send by endpoint name.  Endpoints can
share a router ("station") so that e.g. a bank's request and fill ports
sit on one mesh node.

Determinism: link slots are allocated in scheduler event order, the
adaptive policy draws from one ``random.Random(adaptive_seed)`` consumed
in that same order, and all state (including in-flight messages) pickles,
so runs are bit-identical across repeats, checkpoint/restore, and
serial-vs-parallel sweep execution.  ``tests/memhier/test_mesh_spec.py``
holds a per-cycle reference of the mesh that the model must match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from repro.sparta.unit import Unit

NOC_KINDS = ("crossbar", "mesh", "torus")


class NocError(Exception):
    """Raised for routing mistakes (unknown endpoints, rebinding)."""


class RoutingPolicy(str, Enum):
    """Mesh/torus routing policies (``NocConfig.routing``).

    ``XY`` resolves the X dimension first, ``YX`` the Y dimension first
    (both dimension-ordered, hence deadlock-free on a mesh), and
    ``ADAPTIVE`` picks the less-congested productive dimension per hop,
    breaking ties with a deterministically-seeded PRNG.
    """

    XY = "xy"
    YX = "yx"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class NocConfig:
    """Every interconnect parameter, as one frozen value object.

    ``kind`` selects the model: ``"crossbar"`` (the paper's idealised
    default, fixed ``latency`` per message), ``"mesh"`` or ``"torus"``
    (the contention model; a torus is a mesh whose rows and columns wrap).
    The remaining fields only matter for mesh/torus, except ``latency``
    which only matters for the crossbar.
    """

    kind: str = "crossbar"
    latency: int = 6           # crossbar: fixed traversal latency
    columns: int = 4           # mesh/torus: grid width in routers
    router_latency: int = 1    # cycles through each router pipeline
    link_latency: int = 1      # cycles on each router-to-router link
    link_capacity: int = 1     # flit-bursts one link carries per cycle
    routing: str = "xy"        # "xy" | "yx" | "adaptive"
    wrap: bool = False         # wrap-around links (forced for torus)
    adaptive_seed: int = 0     # PRNG seed for adaptive tie-breaks

    def __post_init__(self) -> None:
        if isinstance(self.routing, RoutingPolicy):
            object.__setattr__(self, "routing", self.routing.value)
        if self.kind == "torus" and not self.wrap:
            object.__setattr__(self, "wrap", True)
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent parameters."""
        if self.kind not in NOC_KINDS:
            raise ValueError(f"noc kind must be one of {NOC_KINDS}, "
                             f"got {self.kind!r}")
        if self.routing not in tuple(p.value for p in RoutingPolicy):
            raise ValueError(f"noc routing must be xy|yx|adaptive, "
                             f"got {self.routing!r}")
        if self.latency < 0:
            raise ValueError(f"negative NoC latency {self.latency}")
        if self.columns < 1:
            raise ValueError(f"mesh needs >= 1 column, "
                             f"got {self.columns}")
        if self.router_latency < 0 or self.link_latency < 0:
            raise ValueError("router/link latencies must be >= 0")
        if self.link_capacity < 1:
            raise ValueError(f"link capacity must be >= 1, "
                             f"got {self.link_capacity}")
        if not isinstance(self.adaptive_seed, int) \
                or self.adaptive_seed < 0:
            raise ValueError(f"adaptive seed must be a non-negative "
                             f"integer, got {self.adaptive_seed!r}")


class CrossbarNoC(Unit):
    """Idealised full crossbar with a single fixed traversal latency."""

    def __init__(self, name: str, parent: Unit, latency: int = 6):
        super().__init__(name, parent)
        if latency < 0:
            raise ValueError(f"negative NoC latency {latency}")
        self.latency = latency
        self._endpoints: dict[str, Callable[[Any], None]] = {}
        self._messages = self.stats.counter(
            "messages", "payloads routed through the NoC")
        # Physical-link counters: a crossbar has one ingress and one
        # egress port wire per endpoint, keyed ``(endpoint, "tx"|"rx")``
        # (messages the endpoint sent into / received from the fabric).
        self._link_counts: dict[tuple, int] = {}
        # Optional observability hook: called with each routed message's
        # traversal latency (telemetry histograms). None = no overhead.
        self.latency_observer: Callable[[int], None] | None = None
        # Optional fault-injection hook (resilience layer): maps one
        # routed message to the deliveries to actually perform, each a
        # ``(latency, payload)`` pair — one for a delayed message, two
        # for a duplicate, zero for a drop.  None = no overhead.
        self.fault_hook: Callable[
            [str, str, Any, int], list[tuple[int, Any]]] | None = None

    def attach(self, endpoint: str, handler: Callable[[Any], None],
               station: str | None = None) -> None:
        """Register a named endpoint (``station`` is a placement hint
        used by the mesh; the crossbar ignores it)."""
        if endpoint in self._endpoints:
            raise NocError(f"endpoint {endpoint!r} already attached")
        self._endpoints[endpoint] = handler

    def route_latency(self, source: str, destination: str) -> int:
        """Zero-load cycles to traverse from ``source`` to
        ``destination``."""
        return self.latency

    def route(self, source: str, destination: str, payload: Any) -> None:
        """Send ``payload``; it arrives after :meth:`route_latency`."""
        endpoints = self._endpoints
        handler = endpoints.get(destination)
        if handler is None:
            raise NocError(f"unknown NoC endpoint {destination!r}")
        if source not in endpoints:
            raise NocError(f"unknown NoC endpoint {source!r}")
        self._messages.value += 1
        link_counts = self._link_counts
        tx = (source, "tx")
        rx = (destination, "rx")
        link_counts[tx] = link_counts.get(tx, 0) + 1
        link_counts[rx] = link_counts.get(rx, 0) + 1
        latency = self.route_latency(source, destination)
        hook = self.fault_hook
        deliveries = ((latency, payload),) if hook is None \
            else hook(source, destination, payload, latency)
        observer = self.latency_observer
        for delay, item in deliveries:
            if observer is not None:
                observer(delay)
            self.scheduler.schedule(handler, delay, (item,))

    def link_utilisation(self) -> dict[tuple, int]:
        """Messages per physical link.

        For the crossbar the physical links are the per-endpoint port
        wires: ``(endpoint, "tx")`` counts messages the endpoint
        injected, ``(endpoint, "rx")`` messages delivered to it.  The
        mesh/torus override keys by directed router-to-router link
        instead — under a mesh one wire serves many endpoint pairs, so
        only link-level counts can show congestion.
        """
        return dict(self._link_counts)


class NocMessage:
    """One payload in flight inside the contention-modelled network.

    A plain module-level class (not a closure or namedtuple) so
    scheduler events holding one pickle for checkpoint/restore.
    ``router`` (where it is) and ``home`` are router ids; ``route`` is
    its XY or YX route in link ids (empty when adaptive) and ``hops``
    the links taken along it.
    """

    __slots__ = ("payload", "destination", "router", "home", "route",
                 "hops", "inject_cycle")

    def __init__(self, payload: Any, destination: str, router: int,
                 home: int, route: tuple, inject_cycle: int):
        self.payload = payload
        self.destination = destination
        self.router = router
        self.home = home
        self.route = route
        self.inject_cycle = inject_cycle
        self.hops = 0


class MeshNoC(CrossbarNoC):
    """2D mesh/torus with router pipelines and link contention.

    Endpoints are grouped into *stations* (one router each), assigned
    coordinates on a ``columns``-wide grid in attachment order
    (row-major).  A message traverses one router pipeline
    (``router_latency`` cycles) per node visited and one link
    (``link_latency`` cycles) per hop; a directed link carries at most
    ``link_capacity`` messages per cycle, and later arrivals queue, so
    observed latency grows with load.  At zero load the end-to-end
    latency is exactly the closed form
    ``(hops + 1) * router_latency + hops * link_latency`` that
    :meth:`route_latency` still reports (``hops`` = Manhattan distance,
    wrap-aware on a torus), which is what the differential tests compare
    congested runs against.

    Routers and links get integer ids on first use; a hop indexes flat
    lists (a link's ``(next free cycle, slots used)`` frontier and
    count, a router's count) and follows a route memoised per router
    pair as link ids, or, adaptive, picks between the XY and YX routes'
    first links.  Hops claim slots in ``(cycle, insertion)`` order, so
    grants are bit-reproducible; all state pickles.
    """

    def __init__(self, name: str, parent: Unit, columns: int = 4,
                 router_latency: int = 1, link_latency: int = 1, *,
                 config: NocConfig | None = None):
        if config is None:
            config = NocConfig(kind="mesh", columns=columns,
                               router_latency=router_latency,
                               link_latency=link_latency)
        super().__init__(name, parent, latency=0)
        self.noc_config = config
        self.columns = config.columns
        self.router_latency = config.router_latency
        self.link_latency = config.link_latency
        self.link_capacity = config.link_capacity
        self.routing = config.routing
        self.wrap = config.wrap
        self._rng = random.Random(config.adaptive_seed)
        self._coordinates: dict[str, tuple[int, int]] = {}
        self._stations: dict[str, tuple[int, int]] = {}
        self._grid_rows = 1
        self._adaptive = self.routing == "adaptive"
        self._x_first = self.routing != "yx"
        # Routers and links are list indices: an id is its position.
        self._router_of: dict[str, int] = {}          # endpoint -> id
        self._router_ids: dict[tuple[int, int], int] = {}
        self._routers: list[tuple[int, int]] = []     # id -> coordinate
        self._router_counts: list[int] = []
        self._link_ids: dict[tuple, int] = {}  # ((x, y), (nx, ny)) -> id
        self._link_to: list[int] = []
        self._link_counts: list[int] = []
        self._frontier_cycle: list[int] = []
        self._frontier_used: list[int] = []
        # (from router, to router, x first) -> route
        self._routes: dict[tuple[int, int, bool], tuple[int, ...]] = {}
        # Optional observability hooks (telemetry; None = no overhead):
        # per-hop queueing delay, and network occupancy after each
        # inject/deliver (Chrome trace counter track).
        self.queue_observer: Callable[[int], None] | None = None
        self.occupancy_sink: Callable[[int, int], None] | None = None
        stats = self.stats
        self._injected = stats.counter(
            "injected", "messages that entered the network")
        self._delivered = stats.counter(
            "delivered", "messages handed to their endpoint")
        self._hops = stats.counter(
            "hops", "router-to-router link traversals")
        self._queue_cycles = stats.counter(
            "queue_cycles", "cycles messages waited for busy links")
        self._in_network = stats.counter(
            "in_network", "messages currently inside the network (gauge)")
        self._total_latency = stats.counter(
            "total_latency", "sum of end-to-end traversal latencies")

    def _router_id(self, coordinate: tuple[int, int]) -> int:
        router = self._router_ids.get(coordinate)
        if router is None:
            router = self._router_ids[coordinate] = len(self._routers)
            self._routers.append(coordinate)
            self._router_counts.append(0)
        return router

    def _link_id(self, here: tuple[int, int],
                 there: tuple[int, int]) -> int:
        link = self._link_ids.get((here, there))
        if link is None:
            link = self._link_ids[(here, there)] = len(self._link_to)
            self._link_to.append(self._router_id(there))
            self._link_counts.append(0)
            self._frontier_cycle.append(-1)
            self._frontier_used.append(0)
        return link

    # -- topology ----------------------------------------------------------

    def attach(self, endpoint: str, handler: Callable[[Any], None],
               station: str | None = None) -> None:
        """Register an endpoint; endpoints naming the same ``station``
        share one router (default: one station per endpoint)."""
        super().attach(endpoint, handler)
        station = station if station is not None else endpoint
        coordinate = self._stations.get(station)
        if coordinate is None:
            index = len(self._stations)
            coordinate = (index % self.columns, index // self.columns)
            self._stations[station] = coordinate
            self._grid_rows = max(self._grid_rows, coordinate[1] + 1)
        self._coordinates[endpoint] = coordinate
        self._router_of[endpoint] = self._router_id(coordinate)
        self._routes.clear()

    def place(self, endpoint: str, x: int, y: int) -> None:
        """Override the automatic placement of an endpoint."""
        if endpoint not in self._coordinates:
            raise NocError(f"unknown NoC endpoint {endpoint!r}")
        self._coordinates[endpoint] = (x, y)
        self._router_of[endpoint] = self._router_id((x, y))
        self._grid_rows = max(self._grid_rows, y + 1)
        self._routes.clear()

    def rows(self) -> int:
        """Current number of occupied mesh rows."""
        if not self._coordinates:
            return 0
        return 1 + max(y for _x, y in self._coordinates.values())

    def _distance(self, a: int, b: int, size: int) -> int:
        direct = abs(a - b)
        if self.wrap and size > 1 and a < size and b < size:
            return min(direct, size - direct)
        return direct

    def route_latency(self, source: str, destination: str) -> int:
        """Closed-form zero-load latency (the paper's idealisation;
        the contention model reduces to it on an empty network)."""
        sx, sy = self._coordinates[source]
        dx, dy = self._coordinates[destination]
        hops = (self._distance(sx, dx, self.columns)
                + self._distance(sy, dy, self._grid_rows))
        return (hops + 1) * self.router_latency + hops * self.link_latency

    # -- the event-driven routing core -------------------------------------

    def route(self, source: str, destination: str, payload: Any) -> None:
        """Inject ``payload`` at ``source``'s router; it traverses the
        network hop by hop, queueing on busy links."""
        try:
            home, start = self._router_of[destination], \
                self._router_of[source]
        except KeyError as unknown:
            raise NocError(f"unknown NoC endpoint {unknown.args[0]!r}") \
                from None
        self._messages.value += 1
        hook = self.fault_hook
        if hook is None:
            self._inject(destination, payload, start, home, 0)
            return
        # The hook sees the same ``(source, destination, payload,
        # zero-load latency)`` contract as on the crossbar; each
        # delivery's extra delay over that latency is served as an
        # injection delay at the source NIC (a blacked-out or delayed
        # message sits at the source, then pays normal network latency).
        latency = self.route_latency(source, destination)
        for delay, item in hook(source, destination, payload, latency):
            self._inject(destination, item, start, home,
                         max(0, delay - latency))

    def _inject(self, destination: str, payload: Any, start: int,
                home: int, entry_delay: int) -> None:
        now = self.scheduler.current_cycle
        x_first = self._x_first
        route = () if self._adaptive else (
            self._routes.get((start, home, x_first))
            or self._route(start, home, x_first))
        message = NocMessage(payload, destination, start, home, route, now)
        self._injected.value += 1
        in_network = self._in_network
        in_network.value += 1
        sink = self.occupancy_sink
        if sink is not None:
            sink(now, in_network.value)
        if entry_delay:
            self.scheduler.schedule(self._hop, entry_delay, (message,))
        else:
            self._hop(message)

    def _hop(self, message: NocMessage) -> None:
        """Pass through one router: deliver, or claim the next link's
        earliest free slot at or after ``now + router_latency`` and move
        one hop.  The one hop handler for every routing policy."""
        scheduler = self.scheduler
        now = scheduler.current_cycle
        router = message.router
        self._router_counts[router] += 1
        if router == message.home:
            scheduler.schedule(self._deliver, self.router_latency,
                               (message,))
            return
        ready = now + self.router_latency
        if self._adaptive:
            link = self._adapt(router, message.home, ready)
        else:
            link = message.route[message.hops]
        frontier = self._frontier_cycle
        depart = frontier[link]
        if depart < ready:
            depart, used = ready, 1
        else:
            used = self._frontier_used[link] + 1
            if used > self.link_capacity:
                depart, used = depart + 1, 1
        frontier[link] = depart
        self._frontier_used[link] = used
        wait = depart - ready
        if wait:
            self._queue_cycles.value += wait
        observer = self.queue_observer
        if observer is not None:
            observer(wait)
        message.hops += 1
        self._hops.value += 1
        self._link_counts[link] += 1
        message.router = self._link_to[link]
        scheduler.schedule(self._hop, depart + self.link_latency - now,
                           (message,))

    def _deliver(self, message: NocMessage) -> None:
        now = self.scheduler.current_cycle
        self._delivered.value += 1
        self._in_network.value -= 1
        latency = now - message.inject_cycle
        self._total_latency.value += latency
        observer = self.latency_observer
        if observer is not None:
            observer(latency)
        sink = self.occupancy_sink
        if sink is not None:
            sink(now, self._in_network.value)
        self._endpoints[message.destination](message.payload)

    # -- routing policies --------------------------------------------------

    def _step_coord(self, current: int, target: int, size: int) -> int:
        """Next coordinate moving one hop toward ``target`` (wrap-aware:
        a torus takes the shorter way round, ties going positive)."""
        if not self.wrap or size <= 1 or current >= size or target >= size:
            return current + (1 if target > current else -1)
        forward = (target - current) % size
        if forward <= size - forward:
            return (current + 1) % size
        return (current - 1) % size

    def _route(self, start: int, home: int, x_first: bool) -> tuple:
        """The XY (``x_first``) or YX route between two routers in link
        ids, memoised until the next ``attach``/``place``."""
        route = self._routes.get((start, home, x_first))
        if route is None:
            (tx, ty), here, links = self._routers[home], \
                self._routers[start], []
            while here != (tx, ty):
                x, y = here
                there = ((self._step_coord(x, tx, self.columns), y)
                         if x != tx and (x_first or y == ty)
                         else (x, self._step_coord(y, ty, self._grid_rows)))
                links.append(self._link_id(here, there))
                here = there
            route = self._routes[(start, home, x_first)] = tuple(links)
        return route

    def _adapt(self, router: int, home: int, ready: int) -> int:
        """Adaptive routing's next link: the first link of the XY or the
        YX route from here, whichever departs sooner (ties broken by the
        seeded PRNG, consumed in event order)."""
        along_x = self._route(router, home, True)[0]
        along_y = self._route(router, home, False)[0]
        if along_x == along_y:  # only one dimension is productive
            return along_x
        depart_x = self._estimate(along_x, ready)
        depart_y = self._estimate(along_y, ready)
        if depart_x != depart_y:
            return along_x if depart_x < depart_y else along_y
        return along_x if self._rng.random() < 0.5 else along_y

    def _estimate(self, link: int, ready: int) -> int:
        """Departure cycle :meth:`_hop` would grant on ``link``, without
        claiming the slot (the adaptive policy's congestion probe)."""
        depart = self._frontier_cycle[link]
        if depart < ready:
            return ready
        if self._frontier_used[link] < self.link_capacity:
            return depart
        return depart + 1

    # -- reporting ---------------------------------------------------------

    def link_utilisation(self) -> dict[tuple, int]:
        """Messages per directed router-to-router link, keyed
        ``((x, y), (nx, ny))``."""
        counts = self._link_counts
        return {key: counts[link] for key, link in self._link_ids.items()
                if counts[link]}

    def busy_links(self, now: int) -> dict[str, dict]:
        """The live backlog: each link whose next free slot lies after
        ``now``, with the cycles already granted ahead and the slots
        used in its frontier cycle (keyed like the report's links)."""
        cycles, used = self._frontier_cycle, self._frontier_used
        return {f"({fx},{fy})->({tx},{ty})": {
                    "backlog_cycles": cycles[link] - now,
                    "slots_used": used[link]}
                for ((fx, fy), (tx, ty)), link
                in sorted(self._link_ids.items()) if cycles[link] > now}

    def congestion_report(self) -> dict:
        """JSON-safe congestion summary (per-link and per-router counts
        plus the aggregate queueing totals)."""
        routers = sorted((self._routers[router], count) for router, count
                         in enumerate(self._router_counts) if count)
        return {
            "links": {f"({fx},{fy})->({tx},{ty})": count
                      for ((fx, fy), (tx, ty)), count
                      in sorted(self.link_utilisation().items())},
            "routers": {f"({x},{y})": count for (x, y), count in routers},
            "injected": self._injected.value,
            "delivered": self._delivered.value,
            "hops": self._hops.value,
            "queue_cycles": self._queue_cycles.value,
            "in_network": self._in_network.value,
        }

    def check_conservation(self, physically_in_network: int) -> list[dict]:
        """Flit-conservation violations, given an independent count of
        the :class:`NocMessage` objects physically in the scheduler.

        The contention queues must neither lose nor duplicate messages:
        every injection is eventually a delivery, and the occupancy
        gauge must agree with the event queue's ground truth.
        """
        violations: list[dict] = []
        injected = self._injected.value
        delivered = self._delivered.value
        if injected != delivered + physically_in_network:
            violations.append({
                "invariant": "noc_flit_conservation",
                "component": self.path,
                "detail": f"{self.path}: {injected} injected != "
                          f"{delivered} delivered + "
                          f"{physically_in_network} in the network",
            })
        gauge = self._in_network.value
        if gauge != physically_in_network:
            violations.append({
                "invariant": "noc_occupancy_gauge",
                "component": self.path,
                "detail": f"{self.path}: occupancy gauge says {gauge} "
                          f"but {physically_in_network} messages are "
                          f"physically in flight",
            })
        return violations


def make_noc(config: NocConfig, name: str, parent: Unit) -> CrossbarNoC:
    """NoC factory from a :class:`NocConfig`."""
    if config.kind == "crossbar":
        return CrossbarNoC(name, parent, latency=config.latency)
    return MeshNoC(name, parent, config=config)
