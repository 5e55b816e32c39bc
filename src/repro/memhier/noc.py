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
serial-vs-parallel sweep execution.
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
    """

    __slots__ = ("payload", "destination", "x", "y", "dest_x", "dest_y",
                 "inject_cycle", "hops", "queue_cycles")

    def __init__(self, payload: Any, destination: str, x: int, y: int,
                 dest_x: int, dest_y: int, inject_cycle: int):
        self.payload = payload
        self.destination = destination
        self.x = x
        self.y = y
        self.dest_x = dest_x
        self.dest_y = dest_y
        self.inject_cycle = inject_cycle
        self.hops = 0
        self.queue_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NocMessage to {self.destination!r} at "
                f"({self.x},{self.y}) dest ({self.dest_x},{self.dest_y}) "
                f"hops={self.hops} queued={self.queue_cycles}>")


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

    Link arbitration keeps a per-link frontier ``(next_free_cycle,
    slots_used)`` — events allocate slots in deterministic scheduler
    order, so contention resolution is bit-reproducible and the whole
    network state (frontiers, in-flight :class:`NocMessage` objects, the
    adaptive PRNG) survives a checkpoint pickle unchanged.
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
        # Directed link -> (next free cycle, slots used in that cycle).
        self._link_next: dict[tuple, tuple[int, int]] = {}
        # Traversals through each router, keyed by coordinate.
        self._router_counts: dict[tuple[int, int], int] = {}
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

    def place(self, endpoint: str, x: int, y: int) -> None:
        """Override the automatic placement of an endpoint."""
        if endpoint not in self._coordinates:
            raise NocError(f"unknown NoC endpoint {endpoint!r}")
        self._coordinates[endpoint] = (x, y)
        self._grid_rows = max(self._grid_rows, y + 1)

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
        endpoints = self._endpoints
        if destination not in endpoints:
            raise NocError(f"unknown NoC endpoint {destination!r}")
        if source not in endpoints:
            raise NocError(f"unknown NoC endpoint {source!r}")
        self._messages.value += 1
        sx, sy = self._coordinates[source]
        dx, dy = self._coordinates[destination]
        hook = self.fault_hook
        if hook is None:
            self._inject(destination, payload, sx, sy, dx, dy, 0)
            return
        # The hook sees the same ``(source, destination, payload,
        # zero-load latency)`` contract as on the crossbar; each
        # delivery's extra delay over that latency is served as an
        # injection delay at the source NIC (a blacked-out or delayed
        # message sits at the source, then pays normal network latency).
        latency = self.route_latency(source, destination)
        for delay, item in hook(source, destination, payload, latency):
            self._inject(destination, item, sx, sy, dx, dy,
                         max(0, delay - latency))

    def _inject(self, destination: str, payload: Any, sx: int, sy: int,
                dx: int, dy: int, entry_delay: int) -> None:
        now = self.scheduler.current_cycle
        message = NocMessage(payload, destination, sx, sy, dx, dy, now)
        self._injected.value += 1
        self._in_network.value += 1
        sink = self.occupancy_sink
        if sink is not None:
            sink(now, self._in_network.value)
        if entry_delay:
            self.scheduler.schedule(self._route_step, entry_delay,
                                    (message,))
        else:
            self._route_step(message)

    def _route_step(self, message: NocMessage) -> None:
        """Pass through one router: deliver, or arbitrate for the next
        link and move one hop."""
        now = self.scheduler.current_cycle
        x, y = message.x, message.y
        router_counts = self._router_counts
        router = (x, y)
        router_counts[router] = router_counts.get(router, 0) + 1
        if x == message.dest_x and y == message.dest_y:
            self.scheduler.schedule(self._deliver, self.router_latency,
                                    (message,))
            return
        nx, ny = self._next_hop(message)
        ready = now + self.router_latency
        link = ((x, y), (nx, ny))
        depart = self._allocate(link, ready)
        wait = depart - ready
        if wait:
            message.queue_cycles += wait
            self._queue_cycles.value += wait
        observer = self.queue_observer
        if observer is not None:
            observer(wait)
        message.hops += 1
        self._hops.value += 1
        link_counts = self._link_counts
        link_counts[link] = link_counts.get(link, 0) + 1
        message.x, message.y = nx, ny
        self.scheduler.schedule(self._route_step,
                                depart + self.link_latency - now,
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

    # -- link arbitration --------------------------------------------------

    def _allocate(self, link: tuple, ready: int) -> int:
        """Claim the earliest slot on ``link`` at or after ``ready``.

        The frontier only moves forward and is advanced in scheduler
        event order, so allocation is deterministic; a full slot pushes
        the message to the next cycle (load-dependent queueing).
        """
        entry = self._link_next.get(link)
        if entry is None or entry[0] < ready:
            slot = (ready, 1)
        else:
            depart, used = entry
            slot = ((depart, used + 1) if used < self.link_capacity
                    else (depart + 1, 1))
        self._link_next[link] = slot
        return slot[0]

    def _estimate(self, link: tuple, ready: int) -> int:
        """Departure cycle :meth:`_allocate` would grant, without
        claiming the slot (the adaptive policy's congestion probe)."""
        entry = self._link_next.get(link)
        if entry is None or entry[0] < ready:
            return ready
        depart, used = entry
        return depart if used < self.link_capacity else depart + 1

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

    def _next_hop(self, message: NocMessage) -> tuple[int, int]:
        x, y = message.x, message.y
        move_x = x != message.dest_x
        move_y = y != message.dest_y
        routing = self.routing
        if routing == "xy":
            axis_x = move_x
        elif routing == "yx":
            axis_x = not move_y
        elif move_x and move_y:
            # Adaptive: both dimensions are productive; probe each
            # candidate link's frontier and take the less congested,
            # breaking ties with the seeded PRNG (consumed in
            # deterministic event order).
            ready = self.scheduler.current_cycle + self.router_latency
            cx = self._step_coord(x, message.dest_x, self.columns)
            cy = self._step_coord(y, message.dest_y, self._grid_rows)
            est_x = self._estimate(((x, y), (cx, y)), ready)
            est_y = self._estimate(((x, y), (x, cy)), ready)
            if est_x != est_y:
                axis_x = est_x < est_y
            else:
                axis_x = self._rng.random() < 0.5
        else:
            axis_x = move_x
        if axis_x:
            return self._step_coord(x, message.dest_x, self.columns), y
        return x, self._step_coord(y, message.dest_y, self._grid_rows)

    # -- reporting ---------------------------------------------------------

    def link_utilisation(self) -> dict[tuple, int]:
        """Messages per directed router-to-router link, keyed
        ``((x, y), (nx, ny))``."""
        return dict(self._link_counts)

    def congestion_report(self) -> dict:
        """JSON-safe congestion summary (per-link and per-router counts
        plus the aggregate queueing totals)."""
        return {
            "links": {f"({fx},{fy})->({tx},{ty})": count
                      for ((fx, fy), (tx, ty)), count
                      in sorted(self._link_counts.items())},
            "routers": {f"({x},{y})": count for (x, y), count
                        in sorted(self._router_counts.items())},
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
