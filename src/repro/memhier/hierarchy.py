"""Assembly of the full Sparta-side memory hierarchy.

``MemoryHierarchy`` builds the tiled system the paper describes: VAS-like
tiles holding L2 banks, an interconnect (idealised crossbar by default, a
mesh as an extension), and memory controllers.  The L2 can be fully shared
across the system or private to each tile's cores, and the address-to-bank
mapping policy is selectable (page-to-bank / set-interleaving) — all the
input parameters §III-A enumerates.

The orchestrator interacts through two methods:

* :meth:`submit` — inject one L1-miss request;
* :attr:`on_complete` — callback fired (with the finished
  :class:`~repro.memhier.request.MemRequest`) when a request's response
  reaches the tile side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.memhier.l2bank import L2Bank, check_bank
from repro.memhier.mapping import (
    MappingPolicy,
    check_granules,
    make_policy,
    policy_names,
)
from repro.memhier.memctrl import MemoryController, check_channel
from repro.memhier.noc import CrossbarNoC, NocConfig, make_noc
from repro.memhier.request import MemRequest, RequestKind
from repro.sparta.scheduler import Scheduler
from repro.sparta.statistics import StatSample
from repro.sparta.unit import Unit
from repro.utils.bitops import clog2, is_power_of_two
from repro.utils.tagarray import check_geometry

_TILESIDE = "tileside"
L2_MODES = ("shared", "private")


@dataclass
class MemHierConfig:
    """All modelled-hierarchy parameters (paper §III-A)."""

    num_tiles: int = 1
    cores_per_tile: int = 8
    banks_per_tile: int = 2
    l2_mode: str = "shared"              # one of L2_MODES
    l2_bank_bytes: int = 256 * 1024
    l2_associativity: int = 16
    line_bytes: int = 64
    l2_hit_latency: int = 10
    l2_miss_latency: int = 4
    l2_max_in_flight: int = 16
    # 0 = idealised bank throughput (the paper's model); N > 0 models a
    # single bank port accepting one request every N cycles.
    l2_cycles_per_request: int = 0
    mapping_policy: str = "set-interleaving"
    page_bytes: int = 4096
    # Optional L3 level between the L2 banks and memory (the "deeper
    # memory hierarchies" §III-A says can be modelled).
    l3_enable: bool = False
    l3_banks: int = 1
    l3_bank_bytes: int = 2 * 1024 * 1024
    l3_associativity: int = 16
    l3_hit_latency: int = 24
    l3_miss_latency: int = 6
    l3_max_in_flight: int = 32
    # The interconnect, as a structured value object ("crossbar" by
    # default; "mesh"/"torus" enable the contention model).  Sweepable
    # through ``SimulationConfig.for_cores`` as dotted ``noc.*`` keys.
    noc: NocConfig = field(default_factory=NocConfig)
    num_memory_controllers: int = 2
    mem_latency: int = 100
    mem_cycles_per_request: int = 2
    prefetch_depth: int = 0              # extension; 0 = off (paper model)
    # MCPU-style vector aggregation (extension, after ACME §I-A): the
    # misses of one vector instruction travel as a single NoC message
    # handled at the memory controller, instead of per-line L2 requests.
    mcpu_aggregation: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent parameters, including
        any the units built from them would refuse."""
        self.noc.validate()
        if self.num_tiles < 1 or self.cores_per_tile < 1 \
                or self.banks_per_tile < 1:
            raise ValueError("tiles, cores/tile and banks/tile must be >= 1")
        if self.l2_mode not in L2_MODES:
            raise ValueError(f"l2_mode must be shared|private, "
                             f"got {self.l2_mode!r}")
        if self.mapping_policy not in policy_names():
            raise ValueError(f"unknown mapping policy "
                             f"{self.mapping_policy!r}")
        if not is_power_of_two(self.num_memory_controllers):
            raise ValueError("number of memory controllers must be a "
                             "power of two")
        total_banks = self.num_tiles * self.banks_per_tile
        if not is_power_of_two(total_banks):
            raise ValueError(f"total bank count must be a power of two, "
                             f"got {total_banks}")
        if self.l2_mode == "private" \
                and not is_power_of_two(self.banks_per_tile):
            raise ValueError("banks per tile must be a power of two for "
                             "private mode")
        check_granules(self.line_bytes, self.page_bytes)
        check_geometry(self.l2_bank_bytes, self.l2_associativity,
                       self.line_bytes)
        check_bank(self.l2_hit_latency, self.l2_miss_latency,
                   self.l2_max_in_flight, self.l2_cycles_per_request)
        check_channel(self.mem_latency, self.mem_cycles_per_request,
                      self.prefetch_depth)
        if self.l3_enable:
            if not is_power_of_two(self.l3_banks):
                raise ValueError(f"L3 bank count must be a power of two, "
                                 f"got {self.l3_banks}")
            check_geometry(self.l3_bank_bytes, self.l3_associativity,
                           self.line_bytes)
            check_bank(self.l3_hit_latency, self.l3_miss_latency,
                       self.l3_max_in_flight)

    @property
    def num_cores(self) -> int:
        return self.num_tiles * self.cores_per_tile

    @property
    def num_banks(self) -> int:
        return self.num_tiles * self.banks_per_tile


class MemoryHierarchy:
    """The modelled L2 + NoC + memory-controller system."""

    def __init__(self, config: MemHierConfig, scheduler: Scheduler):
        config.validate()
        self.config = config
        self.scheduler = scheduler
        self.root = Unit("memhier", scheduler=scheduler)
        self.on_complete: Callable[[MemRequest], None] | None = None
        self.trace_sink: Callable[[MemRequest], None] | None = None
        # Optional observability hook (latency histograms, Chrome trace):
        # fired with each completed request, after trace_sink.
        self.telemetry_sink: Callable[[MemRequest], None] | None = None

        self.noc: CrossbarNoC = make_noc(config.noc, "noc", self.root)
        self.noc.attach(_TILESIDE, self._handle_response)

        # Bank-mapping policy: over all banks (shared) or per tile
        # (private).
        policy_banks = (config.num_banks if config.l2_mode == "shared"
                        else config.banks_per_tile)
        self.policy: MappingPolicy = make_policy(
            config.mapping_policy, policy_banks, config.line_bytes,
            config.page_bytes)

        # Memory controllers, interleaved by line address.
        self._mc_shift = clog2(config.line_bytes)
        self._mc_mask = config.num_memory_controllers - 1
        self.memory_controllers: list[MemoryController] = []
        for index in range(config.num_memory_controllers):
            mc = MemoryController(
                f"mc{index}", self.root, latency=config.mem_latency,
                cycles_per_request=config.mem_cycles_per_request,
                send=self.noc.route, prefetch_depth=config.prefetch_depth,
                line_bytes=config.line_bytes)
            self.noc.attach(mc.endpoint, mc.handle_request)
            self.memory_controllers.append(mc)

        # Optional L3 level between L2 and memory.
        self.l3_banks: list[L2Bank] = []
        if config.l3_enable:
            self._l3_mask = config.l3_banks - 1
            for index in range(config.l3_banks):
                l3_bank = L2Bank(
                    f"l3bank{index}", self.root,
                    size_bytes=config.l3_bank_bytes,
                    associativity=config.l3_associativity,
                    line_bytes=config.line_bytes,
                    hit_latency=config.l3_hit_latency,
                    miss_latency=config.l3_miss_latency,
                    max_in_flight=config.l3_max_in_flight,
                    send=self.noc.route,
                    next_level_of=self._mc_endpoint_of, bank_id=None)
                # Request and fill ports share the bank's router.
                self.noc.attach(l3_bank.endpoint, l3_bank.handle_request)
                self.noc.attach(l3_bank.fill_endpoint,
                                l3_bank.handle_fill,
                                station=l3_bank.endpoint)
                self.l3_banks.append(l3_bank)
            l2_next_level = self._l3_endpoint_of
        else:
            l2_next_level = self._mc_endpoint_of

        # Tiles and their L2 banks.
        self.banks: list[L2Bank] = []
        self.tiles: list[Unit] = []
        for tile_index in range(config.num_tiles):
            tile = Unit(f"tile{tile_index}", self.root)
            self.tiles.append(tile)
            for bank_index in range(config.banks_per_tile):
                global_index = (tile_index * config.banks_per_tile
                                + bank_index)
                bank = L2Bank(
                    f"bank{global_index}", tile,
                    size_bytes=config.l2_bank_bytes,
                    associativity=config.l2_associativity,
                    line_bytes=config.line_bytes,
                    hit_latency=config.l2_hit_latency,
                    miss_latency=config.l2_miss_latency,
                    max_in_flight=config.l2_max_in_flight,
                    send=self.noc.route,
                    next_level_of=l2_next_level, bank_id=global_index,
                    cycles_per_request=config.l2_cycles_per_request)
                self.noc.attach(bank.endpoint, bank.handle_request)
                self.noc.attach(bank.fill_endpoint, bank.handle_fill,
                                station=bank.endpoint)
                self.banks.append(bank)

        stats = self.root.stats
        self._stat_submitted = stats.counter(
            "requests_submitted", "L1 misses injected (needing a response)")
        self._stat_aggregated = stats.counter(
            "aggregated_requests",
            "MCPU-aggregated vector requests injected (extension)")
        self._stat_wb_submitted = stats.counter(
            "writebacks_submitted", "fire-and-forget writebacks injected")
        self._stat_completed = stats.counter("requests_completed",
                                             "responses delivered")
        self._stat_total_latency = stats.counter(
            "total_latency", "sum of end-to-end request latencies")

    # -- wiring helpers -------------------------------------------------------

    def _mc_endpoint_of(self, line_address: int) -> str:
        index = (line_address >> self._mc_shift) & self._mc_mask
        return self.memory_controllers[index].endpoint

    def _l3_endpoint_of(self, line_address: int) -> str:
        index = (line_address >> self._mc_shift) & self._l3_mask
        return self.l3_banks[index].endpoint

    def bank_for(self, core_id: int, line_address: int) -> L2Bank:
        """Target bank under the configured sharing mode and policy."""
        local = self.policy.bank_of(line_address)
        if self.config.l2_mode == "shared":
            return self.banks[local]
        tile_id = core_id // self.config.cores_per_tile
        return self.banks[tile_id * self.config.banks_per_tile + local]

    # -- orchestrator API ------------------------------------------------------

    def submit(self, request_id: int, core_id: int, line_address: int,
               kind: RequestKind) -> MemRequest:
        """Inject one L1 miss; returns the in-flight request object."""
        config = self.config
        request = MemRequest(request_id, core_id,
                             core_id // config.cores_per_tile, line_address,
                             kind, self.scheduler.current_cycle,
                             fill_target=_TILESIDE)
        if kind is RequestKind.WRITEBACK:
            self._stat_wb_submitted.value += 1
        else:
            self._stat_submitted.value += 1
        if config.l2_mode == "shared":
            bank = self.banks[self.policy.bank_of(line_address)]
        else:
            bank = self.bank_for(core_id, line_address)
        self.noc.route(_TILESIDE, bank.endpoint, request)
        return request

    def submit_aggregate(self, member_ids: tuple, core_id: int,
                         line_addresses: list[int],
                         kind: RequestKind) -> MemRequest:
        """Inject one MCPU-aggregated vector request (extension).

        The whole group travels as a single NoC message straight to the
        memory controller owning the first line (the MCPU), which
        transfers every member line back-to-back; one response releases
        all member scoreboard entries.  Requires
        ``config.mcpu_aggregation``.
        """
        if not self.config.mcpu_aggregation:
            raise RuntimeError("mcpu_aggregation is disabled")
        if len(member_ids) != len(line_addresses) or not member_ids:
            raise ValueError("member_ids/line_addresses mismatch")
        tile_id = core_id // self.config.cores_per_tile
        request = MemRequest(
            request_id=member_ids[0], core_id=core_id, tile_id=tile_id,
            line_address=line_addresses[0], kind=kind,
            issue_cycle=self.scheduler.current_cycle,
            member_ids=tuple(member_ids),
            num_lines=len(line_addresses))
        request.fill_target = _TILESIDE
        self._stat_aggregated.increment()
        self._stat_submitted.increment()
        self.noc.route(_TILESIDE,
                       self._mc_endpoint_of(line_addresses[0]), request)
        return request

    def _handle_response(self, request: MemRequest) -> None:
        request.complete_cycle = now = self.scheduler.current_cycle
        self._stat_completed.value += 1
        self._stat_total_latency.value += now - request.issue_cycle
        if self.trace_sink is not None:
            self.trace_sink(request)
        if self.telemetry_sink is not None:
            self.telemetry_sink(request)
        if self.on_complete is None:
            raise RuntimeError("MemoryHierarchy.on_complete is not wired")
        self.on_complete(request)

    # -- reporting ---------------------------------------------------------------

    def all_cache_banks(self) -> list[L2Bank]:
        """Every modelled cache bank: the L2 level plus the optional L3
        (the resilience layer iterates these for fault hardening,
        deadlock snapshots and invariant checks)."""
        return self.banks + self.l3_banks

    def collect_stats(self) -> list[StatSample]:
        """Statistics of every unit in the hierarchy."""
        return self.root.collect_stats()

    def collect_values(self) -> dict[str, float]:
        """Statistics as a flat ``full_name -> value`` mapping (cheap)."""
        return self.root.collect_values()

    def outstanding(self) -> int:
        """Response-needing requests still inside the hierarchy."""
        return self._stat_submitted.value - self._stat_completed.value
