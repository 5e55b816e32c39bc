"""Hierarchical modelling units (Sparta's TreeNode/Unit pattern).

A :class:`Unit` is a named component in a device tree.  Each unit owns a
:class:`~repro.sparta.statistics.StatisticSet`; the
tree can be walked to collect statistics or locate components by path.
Encapsulating each modelled element (an L2 bank, the NoC, a memory
controller) as its own unit is what gives the memory model the paper's
"high flexibility and easy extensibility".
"""

from __future__ import annotations

from repro.sparta.scheduler import Scheduler
from repro.sparta.statistics import StatisticSet, StatSample


class Unit:
    """A named node in the simulation's component tree."""

    def __init__(self, name: str, parent: "Unit | None" = None,
                 scheduler: Scheduler | None = None):
        if not name or "." in name:
            raise ValueError(f"invalid unit name {name!r}")
        self.name = name
        self.parent = parent
        self.children: list[Unit] = []
        if parent is not None:
            if scheduler is not None and scheduler is not parent.scheduler:
                raise ValueError("child unit must share its parent scheduler")
            self.scheduler = parent.scheduler
            parent._adopt(self)
        else:
            if scheduler is None:
                raise ValueError("root unit requires a scheduler")
            self.scheduler = scheduler
        self.stats = StatisticSet(self.path)

    def _adopt(self, child: "Unit") -> None:
        if any(existing.name == child.name for existing in self.children):
            raise ValueError(
                f"duplicate child unit {child.name!r} under {self.path!r}")
        self.children.append(child)

    @property
    def path(self) -> str:
        """Dotted path from the tree root, e.g. ``top.tile0.l2bank1``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def find(self, path: str) -> "Unit":
        """Locate a descendant by relative dotted path."""
        node = self
        for part in path.split("."):
            for child in node.children:
                if child.name == part:
                    node = child
                    break
            else:
                raise KeyError(f"no unit {part!r} under {node.path!r}")
        return node

    def walk(self):
        """Yield this unit and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def collect_stats(self) -> list[StatSample]:
        """Collect statistics from this subtree."""
        samples: list[StatSample] = []
        for unit in self.walk():
            samples.extend(unit.stats.samples())
        return samples

    def collect_values(self) -> dict[str, float]:
        """Collect this subtree's statistics as ``full_name -> value``.

        Cheaper than :meth:`collect_stats` (no :class:`StatSample`
        objects); the telemetry sampler calls this once per interval.
        """
        values: dict[str, float] = {}
        for unit in self.walk():
            unit.stats.values_into(values)
        return values
