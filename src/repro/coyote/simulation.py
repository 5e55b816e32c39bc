"""The public simulation facade.

>>> from repro.api import Simulation, SimulationConfig
>>> from repro.kernels import scalar_matmul
>>> config = SimulationConfig.for_cores(4)
>>> workload = scalar_matmul(size=8, num_cores=4)
>>> results = Simulation(config, workload.program).run()
>>> results.succeeded()
True
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.assembler.program import Program
from repro.coyote.config import SimulationConfig
from repro.coyote.orchestrator import Orchestrator, SimulationError
from repro.coyote.stats import SimulationResults
from repro.coyote.trace import MissTraceRecorder
from repro.telemetry.guestprof import GuestProfile


class Simulation:
    """One configured Coyote simulation of one program."""

    def __init__(self, config: SimulationConfig, program: Program):
        self.config = config
        self.program = program
        self.orchestrator = Orchestrator(config, program)
        self.trace: MissTraceRecorder | None = None
        if config.trace_misses:
            self.trace = MissTraceRecorder()
            self.orchestrator.hierarchy.trace_sink = self.trace
        # The telemetry hub (None unless config.telemetry enables it).
        self.telemetry = self.orchestrator.telemetry
        self._results: SimulationResults | None = None

    def run(self, pause_at: int | None = None) -> SimulationResults | None:
        """Run to completion (idempotent; re-runs return cached results).

        With ``pause_at`` set, stop at the first cycle boundary at or
        after that cycle and return ``None`` instead; the paused
        simulation can be checkpointed
        (:func:`repro.resilience.save_checkpoint`) or continued with a
        later ``run()`` call — the combined run is bit-identical to an
        uninterrupted one.
        """
        if self._results is None:
            self._results = self.orchestrator.run(pause_at=pause_at)
        return self._results

    @property
    def paused(self) -> bool:
        """True when the last ``run`` stopped at a ``pause_at`` cycle."""
        return self.orchestrator.paused

    @property
    def results(self) -> SimulationResults:
        if self._results is None:
            raise SimulationError("simulation has not been run")
        return self._results

    @property
    def memory(self):
        """The shared functional memory (for checking kernel outputs)."""
        return self.orchestrator.machine.memory

    def write_trace(self, basepath: str | Path) -> tuple[Path, Path]:
        """Write the recorded miss trace as Paraver ``.prv``/``.pcf``."""
        if self.trace is None:
            raise SimulationError(
                "tracing was not enabled (SimulationConfig.trace_misses)")
        results = self.results
        return self.trace.write(basepath, self.config.num_cores,
                                results.cycles)

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the recorded Chrome trace-event JSON (Perfetto)."""
        if self.telemetry is None or self.telemetry.chrome is None:
            raise SimulationError(
                "Chrome tracing was not enabled "
                "(SimulationConfig.telemetry.chrome_trace)")
        if self._results is None:
            # The builder is only finalised at end-of-run.
            raise SimulationError("simulation has not been run")
        return self.telemetry.chrome.write(path)


@dataclass
class RunOutcome:
    """What :func:`run_workload` hands back.  ``results`` and
    ``verified`` are ``None`` for a paused run; ``verified`` also when
    there is no workload to check (a checkpoint without kernel metadata).
    """

    results: SimulationResults | None
    verified: bool | None
    simulation: Simulation
    workload: Any = None

    @property
    def succeeded(self) -> bool:
        """The one success rule: a finished run, clean exits and (when
        checkable) a verified output."""
        return bool(self.results is not None and self.results.succeeded()
                    and (self.verified is None or self.verified))

    @property
    def guest_profile(self) -> GuestProfile | None:
        """The guest-side profile (``run(..., profile=True)``), or
        ``None`` when profiling was off or the run paused."""
        return None if self.results is None else self.results.guest_profile


def run_workload(source: SimulationConfig | Simulation, workload, *,
                 pause_at: int | None = None,
                 on_simulation: Callable[[Simulation], Any] | None = None
                 ) -> RunOutcome:
    """The one run pipeline: build, run, verify.

    ``source`` is a config, built into a :class:`Simulation` of
    ``workload.program`` here, or a restored ``Simulation`` (whose
    ``workload`` may be ``None``: nothing to verify against).
    ``on_simulation`` receives the simulation before it runs; a run
    paused at ``pause_at`` is not verified.
    """
    simulation = (source if isinstance(source, Simulation)
                  else Simulation(source, workload.program))
    if on_simulation is not None:
        on_simulation(simulation)
    results = simulation.run(pause_at=pause_at)
    if simulation.paused or workload is None:
        return RunOutcome(results, None, simulation, workload)
    return RunOutcome(results, workload.verify(simulation.memory),
                      simulation, workload)
