"""Top-level simulation configuration.

Composes the functional-side parameters (cores, VLEN, L1 geometry) with
the modelled-hierarchy parameters (:class:`~repro.memhier.hierarchy.
MemHierConfig`).  ``SimulationConfig.for_cores(n)`` builds the paper-style
tiled layout: VAS tiles of eight cores, two L2 banks per tile.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

from repro.memhier.hierarchy import MemHierConfig
from repro.memhier.noc import NocConfig
from repro.resilience.config import ResilienceConfig
from repro.spike.simulator import L1Config
from repro.telemetry.config import TelemetryConfig
from repro.utils.bitops import is_power_of_two
from repro.utils.schema import Slot, build, shape

DEFAULT_CORES_PER_TILE = 8   # one VAS tile holds eight cores (paper §I-A)
DEFAULT_BANKS_PER_TILE = 2

@functools.cache
def _config_table() -> MappingProxyType[str, tuple[tuple[str, ...], Slot]]:
    """Every override path -> its attribute trail and its field's
    :class:`~repro.utils.schema.Slot`: the walk over :func:`shape` that
    :func:`~repro.utils.schema.build` spells its messages by."""
    table = {}

    def walk(kind: type, trail: tuple[str, ...], prefix: str) -> None:
        for name, slot in shape(kind).items():
            here = (*trail, name)
            if slot.flat:
                walk(slot.kind, here, prefix)
                continue
            table[prefix + name] = (here, slot)
            if slot.kind is not None and not slot.many:
                walk(slot.kind, here, f"{prefix}{name}.")

    walk(SimulationConfig, (), "")
    return MappingProxyType(table)


@functools.cache
def config_paths() -> MappingProxyType[str, tuple[str, ...]]:
    """Every override path -> its attribute trail below a SimulationConfig.

    A path is a ``SimulationConfig`` field, else a ``MemHierConfig``
    field (the hierarchy is flattened into the top level), or
    ``section.field`` for any nested dataclass section; a section's own
    name is the whole object.  The one place a name maps to a field:
    ``for_cores``, :class:`ConfigBuilder`, sweep axes, service
    submissions and the CLI's flag table all resolve here.
    """
    return MappingProxyType({path: trail for path, (trail, _slot)
                             in _config_table().items()})


def config_trail(path: str, *values) -> tuple[str, ...]:
    """The attribute trail of one override path; an unknown path, or a
    malformed one of the ``values`` meant for it, is a ``ValueError``."""
    try:
        trail = config_paths()[path]
    except KeyError:
        raise ValueError(f"unknown configuration field {path!r}") from None
    for value in values:
        _built(path, value)
    return trail


def _built(path: str, value):
    """``value`` for the known override ``path``: a section given as a
    dict (or a list of dicts) built into its dataclass, a ``str`` or
    ``bool`` for a number refused."""
    section, _dot, name = path.rpartition(".")
    return _config_table()[path][1].coerce(value, section and section + ".",
                                           name)


def _replaced(node, changes: dict[tuple[str, ...], object]):
    """``node`` with the value at every trail in ``changes`` replaced:
    one ``dataclasses.replace`` per touched object (only final states
    are validated), a trail into a section layering on top of a
    whole-object override of that section."""
    own: dict[str, object] = {}
    nested: dict[str, dict] = {}
    for (name, *rest), value in changes.items():
        if rest:
            nested.setdefault(name, {})[tuple(rest)] = value
        else:
            own[name] = value
    for name, inner in nested.items():
        own[name] = _replaced(own.get(name, getattr(node, name)), inner)
    return replace(node, **own)


@dataclass
class SimulationConfig:
    """Everything needed to build a Coyote simulation."""

    memhier: MemHierConfig = field(default_factory=MemHierConfig,
                                   metadata={"flat": True})
    l1: L1Config = field(default_factory=L1Config)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    vlen_bits: int = 512
    max_cycles: int = 200_000_000
    trace_misses: bool = False
    # Trace-compiled ISS fast path (repro.spike.translate).  Bit-exact
    # with the interpreter by construction and proven so differentially;
    # ``translate=False`` opts out for debugging comparisons.
    translate: bool = True

    def __post_init__(self) -> None:
        self.validate()

    @property
    def num_cores(self) -> int:
        return self.memhier.num_cores

    @property
    def noc(self) -> NocConfig:
        """The interconnect configuration (``memhier.noc``)."""
        return self.memhier.noc

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        self.memhier.validate()
        self.telemetry.validate()
        self.resilience.validate()
        if self.vlen_bits % 64 or self.vlen_bits < 64:
            raise ValueError(f"VLEN must be a positive multiple of 64, "
                             f"got {self.vlen_bits}")
        if self.l1.line_bytes != self.memhier.line_bytes:
            raise ValueError(
                f"L1 and L2 line sizes must match "
                f"({self.l1.line_bytes} != {self.memhier.line_bytes})")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be positive")

    @classmethod
    def builder(cls, num_cores: int = 8) -> "ConfigBuilder":
        """Start a fluent builder: ``SimulationConfig.builder(8).
        l2_mode("private").noc("mesh").build()``."""
        return ConfigBuilder(num_cores)

    @classmethod
    def for_cores(cls, num_cores: int, **overrides) -> "SimulationConfig":
        """Build the default tiled layout for ``num_cores`` cores.

        Core counts of eight and above use full tiles of
        ``DEFAULT_CORES_PER_TILE`` cores; smaller (power-of-two) counts use
        a single partial tile.  Keyword overrides are
        :func:`config_paths` names: a ``SimulationConfig`` or
        ``MemHierConfig`` field, a dotted ``section.field`` of any
        nested section (``**{"noc.kind": "torus", "l1.dcache_bytes":
        65536}``) or a whole section (``noc=NocConfig(...)``), with
        dotted keys layering on top of it.
        """
        if num_cores < 1:
            raise ValueError(f"need at least one core, got {num_cores}")
        if num_cores >= DEFAULT_CORES_PER_TILE:
            if num_cores % DEFAULT_CORES_PER_TILE:
                raise ValueError(
                    f"{num_cores} cores is not a whole number of "
                    f"{DEFAULT_CORES_PER_TILE}-core tiles")
            num_tiles = num_cores // DEFAULT_CORES_PER_TILE
            if not is_power_of_two(num_tiles):
                raise ValueError(f"tile count must be a power of two, "
                                 f"got {num_tiles}")
            memhier = MemHierConfig(num_tiles=num_tiles,
                                    cores_per_tile=DEFAULT_CORES_PER_TILE,
                                    banks_per_tile=DEFAULT_BANKS_PER_TILE)
        else:
            memhier = MemHierConfig(num_tiles=1, cores_per_tile=num_cores,
                                    banks_per_tile=DEFAULT_BANKS_PER_TILE)
        return cls(memhier=memhier).with_overrides(**overrides)

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """A copy with each :func:`config_paths` name in ``overrides`` set."""
        return _replaced(self, {config_trail(path): _built(path, value)
                                for path, value in overrides.items()})

    def get(self, path: str):
        """The value at one :func:`config_paths` name."""
        return functools.reduce(getattr, config_trail(path), self)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serialisable view of the full configuration."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Unknown keys raise, so stale config files fail loudly.
        """
        return build(cls, data)

    def save(self, path: str | Path) -> Path:
        """Write the configuration as JSON."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SimulationConfig":
        """Read a configuration written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


class ConfigBuilder:
    """Fluent construction of a :class:`SimulationConfig`.

    Every setter returns the builder, and :meth:`build` routes through
    :meth:`SimulationConfig.for_cores`, so the builder accepts exactly
    the same names (:func:`config_paths`) with the same validation.
    Unknown names fail at :meth:`build` with ``for_cores``' error.

    >>> config = (SimulationConfig.builder(8)
    ...           .l2_mode("private").noc("mesh")
    ...           .max_cycles(1_000_000).build())
    """

    def __init__(self, num_cores: int = 8):
        self._num_cores = num_cores
        self._overrides: dict = {}

    def cores(self, num_cores: int) -> "ConfigBuilder":
        self._num_cores = num_cores
        return self

    def set(self, **overrides) -> "ConfigBuilder":
        """Set any ``for_cores`` override by keyword."""
        self._overrides.update(overrides)
        return self

    # Named setters for the knobs every design study touches.

    def l2_mode(self, mode: str) -> "ConfigBuilder":
        return self.set(l2_mode=mode)

    def mapping(self, policy: str) -> "ConfigBuilder":
        return self.set(mapping_policy=policy)

    def noc(self, kind: str | NocConfig | None = None,
            **options) -> "ConfigBuilder":
        """Configure the interconnect.

        Accepts a whole :class:`NocConfig`, a kind string
        (``"crossbar"``/``"mesh"``/``"torus"``), keyword options naming
        ``NocConfig`` fields (``routing=``, ``columns=``,
        ``link_capacity=``, ...), or any combination of kind and
        options: ``builder.noc("torus", routing="adaptive")``.
        """
        if isinstance(kind, NocConfig):
            self.set(noc=kind)
        elif kind is not None:
            self.set(**{"noc.kind": kind})
        return self.set(**{f"noc.{name}": value
                           for name, value in options.items()})

    def mem_latency(self, cycles: int) -> "ConfigBuilder":
        return self.set(mem_latency=cycles)

    def vlen(self, bits: int) -> "ConfigBuilder":
        return self.set(vlen_bits=bits)

    def max_cycles(self, cycles: int) -> "ConfigBuilder":
        return self.set(max_cycles=cycles)

    def trace_misses(self, enabled: bool = True) -> "ConfigBuilder":
        return self.set(trace_misses=enabled)

    def translate(self, enabled: bool = True) -> "ConfigBuilder":
        return self.set(translate=enabled)

    def telemetry(self, telemetry: TelemetryConfig) -> "ConfigBuilder":
        return self.set(telemetry=telemetry)

    def resilience(self, resilience: ResilienceConfig) -> "ConfigBuilder":
        return self.set(resilience=resilience)

    def build(self) -> SimulationConfig:
        return SimulationConfig.for_cores(self._num_cores,
                                          **self._overrides)
