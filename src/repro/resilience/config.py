"""Configuration of the resilience subsystem, and the fault-plan file
lifecycle the simulator's and the service tier's plans share.

Kept free of simulator imports so :mod:`repro.coyote.config` can embed a
:class:`ResilienceConfig` without an import cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.schema import build, plain

FAULT_TARGETS = ("l2bank", "memctrl", "noc")
FAULT_KINDS = ("delay", "duplicate", "blackout", "drop")

# Effectively-unbounded window end ("for the rest of the run").
FOREVER = 1 << 62


@dataclass
class FaultSpec:
    """One fault to inject into the modelled hierarchy.

    ``target`` selects the component class; ``index`` the instance
    (``-1`` = every instance, and the only valid index for ``noc``).
    The fault is live for messages routed in cycles
    ``[start, end)``.  Kinds:

    * ``delay`` — add ``extra`` (+ seeded ``jitter``) cycles of latency;
    * ``duplicate`` — deliver hierarchy-internal traffic (fills and
      writebacks) a second time after ``extra`` additional cycles.  The
      tile-side L1 interface is modelled as reliable, so messages whose
      completion must be exactly-once are never duplicated;
    * ``blackout`` — the target refuses service: affected messages are
      deferred until the window closes (timing-only, nothing is lost);
    * ``drop`` — the message disappears.  This intentionally violates
      the model's delivery guarantees; it exists to stress-test the
      watchdog and invariant checker, and is expected to wedge the run.

    ``probability`` < 1 applies the fault per-message via the campaign's
    seeded PRNG, so a campaign replays bit-identically for a given seed.
    """

    target: str = "noc"
    index: int = -1
    kind: str = "delay"
    start: int = 0
    end: int = FOREVER
    extra: int = 0
    jitter: int = 0
    probability: float = 1.0

    def validate(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ValueError(f"unknown fault target {self.target!r} "
                             f"(expected one of {FAULT_TARGETS})")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.target == "noc" and self.index != -1:
            raise ValueError("noc faults apply to every link; index must "
                             "be -1")
        if self.index < -1:
            raise ValueError(f"fault index must be >= -1, got {self.index}")
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid fault window [{self.start}, "
                             f"{self.end})")
        if self.extra < 0 or self.jitter < 0:
            raise ValueError("fault extra/jitter must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability must be in [0, 1], "
                             f"got {self.probability}")


@dataclass
class ResilienceConfig:
    """All resilience knobs of one simulation (everything off by default
    — a default-configured run pays nothing for this subsystem)."""

    faults: list[FaultSpec] = field(default_factory=list)
    fault_seed: int = 0
    # Forward-progress watchdog: raise DeadlockError when neither an
    # instruction retires nor an event fires for this many cycles
    # (0 = disabled).  A no-retire-but-events-still-firing wedge (e.g. a
    # pathological feedback loop) trips at 10x the window.
    watchdog_cycles: int = 0
    # Run the invariant checker every N cycles (0 = disabled).
    invariant_interval: int = 0

    @property
    def enabled(self) -> bool:
        return bool(self.faults or self.watchdog_cycles
                    or self.invariant_interval)

    def validate(self) -> None:
        if self.watchdog_cycles < 0:
            raise ValueError(f"watchdog_cycles must be >= 0, "
                             f"got {self.watchdog_cycles}")
        if self.invariant_interval < 0:
            raise ValueError(f"invariant_interval must be >= 0, "
                             f"got {self.invariant_interval}")
        if self.fault_seed < 0:
            raise ValueError(f"fault_seed must be >= 0, "
                             f"got {self.fault_seed}")
        for spec in self.faults:
            spec.validate()


@dataclass
class PlanDocument:
    """A named, replayable fault plan: specs plus seed, and its JSON
    document (``{"seed": <int, optional>, "faults": [<spec fields>,
    ...]}``).  A subclass names its spec type by annotating ``faults``;
    the spec type has a ``validate()``."""

    faults: list = field(default_factory=list)
    seed: int | None = None

    def validate(self) -> None:
        for spec in self.faults:
            spec.validate()
        if self.seed is not None and (not isinstance(self.seed, int)
                                      or self.seed < 0):
            raise ValueError(
                f"fault plan seed must be a non-negative integer, "
                f"got {self.seed!r}")

    @classmethod
    def load(cls, path: str | Path):
        """Read a plan file; a malformed one is a ``ValueError`` naming
        the file."""
        document = json.loads(Path(path).read_text())
        if not isinstance(document, dict) or "faults" not in document:
            raise ValueError(f"{path}: fault plan must be an object with "
                             f"a 'faults' list")
        try:
            plan = build(cls, document)
            plan.validate()
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        return plan

    def to_dict(self) -> dict:
        """The JSON-document form (round-trips through :meth:`load`)."""
        document = plain(self)
        if self.seed is None:
            del document["seed"]
        return document

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
