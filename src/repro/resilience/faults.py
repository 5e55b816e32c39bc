"""Deterministic fault injection for the modelled memory hierarchy.

Every message between the tile side, the L2/L3 banks and the memory
controllers crosses the NoC, so the NoC's routing step is the single
choke point where faults are applied.  The injector installs itself as
:attr:`~repro.memhier.noc.CrossbarNoC.fault_hook`; for each routed
message it returns the list of ``(latency, payload)`` deliveries to
perform — one (possibly delayed) delivery normally, two for a
duplicate, zero for a drop.

Determinism: fault decisions draw from one ``random.Random(seed)``
instance, and route calls happen in a deterministic order, so a
campaign replays bit-identically for a given (plan, seed) pair.

The functional-correctness contract: ``delay``, ``duplicate`` and
``blackout`` faults perturb *timing only*.  The memory model must
tolerate arbitrary response reordering and spurious hierarchy-internal
fills, so every injected-fault run must still pass workload
verification — a campaign that corrupts architectural state has found a
real model bug, which is the point.  ``drop`` faults are the deliberate
exception: they violate the delivery guarantee to prove the watchdog
and invariant checker catch lost messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.memhier.request import MemRequest, RequestKind
from repro.resilience.config import FaultSpec, PlanDocument, \
    ResilienceConfig
from repro.sparta.unit import Unit

# Extra delay of the duplicate copy when a duplicate spec leaves
# ``extra`` at zero (a zero-cycle duplicate would be indistinguishable
# from the original at the receiving endpoint).
DEFAULT_DUPLICATE_DELAY = 1


@dataclass
class FaultPlan(PlanDocument):
    """A named, replayable fault-injection campaign: specs plus seed.

    The blessed object form of the JSON plan files the CLI's
    ``--inject`` consumes (:class:`~repro.resilience.config.PlanDocument`
    is their lifecycle).  ``apply`` folds the plan into a
    :class:`~repro.resilience.config.ResilienceConfig`, preserving the
    config's own seed when the plan does not pin one.
    """

    faults: list[FaultSpec] = field(default_factory=list)

    def apply(self, resilience: ResilienceConfig) -> ResilienceConfig:
        """Install the plan's faults (and seed, when set) in-place."""
        resilience.faults = list(self.faults)
        if self.seed is not None:
            resilience.fault_seed = self.seed
        return resilience


def _duplicable(payload) -> bool:
    """Only hierarchy-internal traffic may be duplicated.

    Fills (request_id == -2, both directions) and writebacks carry no
    exactly-once completion obligation: banks drop spurious fills (the
    hardening this fault class exercises) and memory absorbs repeated
    writebacks.  Anything that would complete a scoreboard entry at the
    tile side must be delivered exactly once.
    """
    if not isinstance(payload, MemRequest):
        return False
    return (payload.kind is RequestKind.WRITEBACK
            or payload.request_id == -2)


class FaultInjector(Unit):
    """The live fault-injection layer of one simulation.

    A :class:`~repro.sparta.unit.Unit` so its counters appear in the
    hierarchy statistics report, the telemetry interval samples, and
    exported metrics alongside every other modelled component.
    """

    def __init__(self, name: str, parent: Unit, config: ResilienceConfig,
                 hierarchy):
        super().__init__(name, parent)
        config.validate()
        self.config = config
        self.hierarchy = hierarchy
        self._rng = random.Random(config.fault_seed)
        # Optional observability hook (the Chrome trace's ``instant``):
        # called as ``event_sink(kind, cycle, args)`` for each applied
        # fault so injections are visible on the trace timeline.
        self.event_sink = None

        # endpoint -> (target_class, instance_index), covering both the
        # request and fill endpoints of every bank.
        endpoint_targets: dict[str, tuple[str, int]] = {}
        for index, bank in enumerate(hierarchy.banks):
            endpoint_targets[bank.endpoint] = ("l2bank", index)
            endpoint_targets[bank.fill_endpoint] = ("l2bank", index)
        for index, mc in enumerate(hierarchy.memory_controllers):
            endpoint_targets[mc.endpoint] = ("memctrl", index)
        self._endpoint_targets = endpoint_targets
        self._specs = list(config.faults)

        stats = self.stats
        self._stat_delayed = stats.counter(
            "faults_delayed", "messages given extra injected latency")
        self._stat_delay_cycles = stats.counter(
            "fault_delay_cycles", "total injected extra latency")
        self._stat_duplicated = stats.counter(
            "faults_duplicated", "messages delivered twice")
        self._stat_blacked_out = stats.counter(
            "faults_blacked_out", "messages deferred past a blackout")
        self._stat_dropped = stats.counter(
            "faults_dropped", "messages destroyed (drop faults)")

    # -- wiring ---------------------------------------------------------------

    def install(self) -> None:
        """Hook the NoC and harden the banks for spurious fills."""
        noc = self.hierarchy.noc
        if noc.fault_hook is not None:
            raise RuntimeError("a fault hook is already installed")
        noc.fault_hook = self.intercept
        for bank in self.hierarchy.all_cache_banks():
            bank.tolerate_spurious_fills = True

    # -- the interception point ----------------------------------------------

    def _matches(self, spec: FaultSpec, source: str,
                 destination: str) -> bool:
        if spec.target == "noc":
            return True
        for endpoint in (source, destination):
            found = self._endpoint_targets.get(endpoint)
            if found is not None and found[0] == spec.target \
                    and (spec.index == -1 or found[1] == spec.index):
                return True
        return False

    def intercept(self, source: str, destination: str, payload,
                  latency: int) -> list[tuple[int, object]]:
        """The NoC fault hook: deliveries for one routed message."""
        now = self.scheduler.current_cycle
        rng = self._rng
        sink = self.event_sink
        deliveries = [(latency, payload)]
        for spec in self._specs:
            if not spec.start <= now < spec.end:
                continue
            if not self._matches(spec, source, destination):
                continue
            if spec.probability < 1.0 \
                    and rng.random() >= spec.probability:
                continue
            kind = spec.kind
            applied = False
            if kind == "delay":
                extra = spec.extra
                if spec.jitter:
                    extra += rng.randrange(spec.jitter + 1)
                if extra:
                    base, item = deliveries[0]
                    deliveries[0] = (base + extra, item)
                    self._stat_delayed.increment()
                    self._stat_delay_cycles.increment(extra)
                    applied = True
            elif kind == "blackout":
                # The target is unavailable until the window closes; the
                # message waits it out and then pays normal latency.
                base, item = deliveries[0]
                deferred = (spec.end - now) + latency
                if deferred > base:
                    deliveries[0] = (deferred, item)
                    self._stat_blacked_out.increment()
                    applied = True
            elif kind == "duplicate":
                if _duplicable(payload):
                    copy = replace(payload, duplicate=True)
                    extra = spec.extra or DEFAULT_DUPLICATE_DELAY
                    deliveries.append((deliveries[0][0] + extra, copy))
                    self._stat_duplicated.increment()
                    applied = True
            elif kind == "drop":
                self._stat_dropped.increment()
                if sink is not None:
                    sink("fault:drop", now,
                         {"source": source, "destination": destination})
                return []
            if applied and sink is not None:
                sink(f"fault:{kind}", now,
                     {"source": source, "destination": destination})
        return deliveries
