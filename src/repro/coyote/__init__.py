"""Coyote: the execution-driven simulator (orchestrator + public API).

The canonical import surface is :mod:`repro.api`; this package
re-exports the blessed names from there (lazily, to stay cycle-free)
so historical ``from repro.coyote import Simulation`` imports keep
working, plus the internal-but-stable extras (:class:`Orchestrator`,
:class:`MissTraceRecorder`) that live below the facade.
"""

from repro.utils.reexport import lazy_exports

# Names served from the repro.api facade (the canonical path).
_API_NAMES = frozenset({
    "ConfigBuilder",
    "CoreStats",
    "NocConfig",
    "ParallelSweep",
    "RemoteError",
    "RoutingPolicy",
    "Simulation",
    "SimulationConfig",
    "SimulationError",
    "SimulationResults",
    "Sweep",
    "SweepError",
    "SweepPoint",
    "SweepTable",
    "TelemetryConfig",
    "WorkerCrash",
})

# Internal-but-stable names that stay below the facade.
_LOCAL_NAMES = {
    "MissTraceRecorder": "repro.coyote.trace",
    "Orchestrator": "repro.coyote.orchestrator",
}

__all__ = sorted(_API_NAMES | set(_LOCAL_NAMES))
__getattr__, __dir__ = lazy_exports(globals(), _API_NAMES, _LOCAL_NAMES)
