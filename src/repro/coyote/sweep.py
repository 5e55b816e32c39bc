"""Design-space sweep utilities.

Coyote exists for "the fast comparison of different designs"; this module
makes that a one-call API: declare the axes (any
:func:`~repro.coyote.config.config_paths` name), a workload factory,
and get back a tidy result table.

>>> from repro.coyote.sweep import Sweep
>>> from repro.kernels import scalar_spmv
>>> sweep = Sweep(base_cores=8,
...               axes={"l2_mode": ["shared", "private"],
...                     "mapping_policy": ["set-interleaving",
...                                        "page-to-bank"]})
>>> table = sweep.run(lambda: scalar_spmv(num_rows=32, num_cores=8))
>>> len(table.points)
4

Campaign-scale execution lives in :mod:`repro.coyote.parallel`:
``sweep.run(...)`` submits the cartesian points as one job to the
campaign executor, and ``workers=4`` lets it keep four worker processes
busy while the resulting table stays bit-identical to a serial run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from repro.coyote.config import SimulationConfig, config_trail
from repro.coyote.errors import SimulationError
from repro.coyote.simulation import run_workload
from repro.coyote.stats import SimulationResults


class SweepError(ValueError):
    """A sweep-level usage error (empty table, resultless metric, ...).

    Subclasses ``ValueError`` so long-standing ``except ValueError``
    call sites keep working.
    """


@functools.cache
def scalar_metrics() -> frozenset[str]:
    """The scalar metrics of :class:`SimulationResults`: every field,
    property and argument-free method annotated as one number."""
    scalar = ("int", "float", "bool")
    names = {item.name for item in fields(SimulationResults)
             if item.type in scalar}
    for name, member in vars(SimulationResults).items():
        function = member.fget if isinstance(member, property) else member
        if (inspect.isfunction(function) and not name.startswith("_")
                and function.__annotations__.get("return") in scalar
                and len(inspect.signature(function).parameters) == 1):
            names.add(name)
    return frozenset(names)


def check_metric(name: str) -> None:
    """A :class:`SweepError` unless :meth:`SweepPoint.metric` can serve
    ``name`` — a scalar metric of ``SimulationResults`` or a dotted
    ``memhier.`` hierarchy counter; callable before anything is simulated."""
    if name in scalar_metrics() or name.startswith("memhier."):
        return
    raise SweepError(
        f"unknown metric {name!r} (expected one of "
        f"{', '.join(sorted(scalar_metrics()))}, or the dotted name of a "
        f"hierarchy counter such as memhier.noc.messages)")


def _canonical_value(value: Any):
    """A JSON-friendly, process-independent view of one axis value."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


@dataclass
class SweepPoint:
    """One configuration point and its outcome.

    A failed point (its simulation raised, or verification failed under
    ``on_error="skip"``) has ``error`` set; when the failure happened
    before completion ``results`` is ``None``, while a point that ran to
    the end but failed verification keeps its full ``results``.
    """

    settings: dict[str, Any]
    results: SimulationResults | None
    verified: bool
    error: Exception | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def error_kind(self) -> str | None:
        """The original exception type name (stable across processes).

        A worker-side exception that could not be pickled crosses the
        process boundary as a :class:`~repro.coyote.parallel.RemoteError`
        stand-in carrying the original type name; this property reports
        that original name so serial and parallel tables agree.
        """
        if self.error is None:
            return None
        kind = getattr(self.error, "kind", None)
        return kind if isinstance(kind, str) else type(self.error).__name__

    def failure_record(self) -> dict[str, str] | None:
        """``{"kind", "message"}`` of the failure, or None when healthy."""
        if self.error is None:
            return None
        return {"kind": self.error_kind, "message": str(self.error)}

    def metric(self, name: str) -> float:
        """Fetch a named metric: a scalar metric of the results
        (:func:`scalar_metrics`) or one hierarchy counter by its dotted
        ``memhier.`` name.

        Metrics are served whenever ``results`` exist — including
        verified-but-flagged points, so a verification failure still
        shows its cycle count in tables and ``best()`` comparisons.
        A name that is neither, a counter this point's hierarchy does
        not have and a truly resultless point (the simulation never
        completed) each raise a structured :class:`SweepError`.
        """
        check_metric(name)
        if self.results is None:
            raise SweepError(
                f"sweep point {self.settings} failed before producing "
                f"results: {self.error}")
        if name.startswith("memhier."):
            try:
                return self.results.hierarchy_value(name)
            except KeyError:
                raise SweepError(f"sweep point {self.settings} has no "
                                 f"hierarchy counter {name!r}") from None
        value = getattr(self.results, name)
        return value() if callable(value) else value


@dataclass
class SweepTable:
    """The full outcome of a sweep.

    ``workers`` and ``wall_seconds`` describe how the campaign was
    executed (host-side facts — deliberately excluded from
    :meth:`to_dict` so serial and parallel tables compare equal).
    """

    axes: dict[str, list]
    points: list[SweepPoint] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0
    # Pool-degradation steps taken by the campaign supervisor (a
    # host-side fact, like workers/wall_seconds — not in to_dict).
    degradations: list = field(default_factory=list)

    def failures(self) -> list[tuple[dict[str, Any], Exception]]:
        """The ``(settings, error)`` of every failed point."""
        return [(point.settings, point.error) for point in self.points
                if point.failed]

    def quarantined(self) -> list[SweepPoint]:
        """Points the campaign supervisor quarantined (retries
        exhausted); their ``error.attempts`` holds the full history."""
        return [point for point in self.points
                if point.error_kind == "QuarantinedPoint"]

    def best(self, metric: str = "cycles",
             minimise: bool = True) -> SweepPoint:
        """The best *successful* point under ``metric``."""
        if not self.points:
            raise SweepError("empty sweep")
        candidates = [point for point in self.points if not point.failed]
        if not candidates:
            raise SweepError(
                f"all {len(self.points)} sweep points failed; "
                f"see SweepTable.failures()")
        chooser = min if minimise else max
        return chooser(candidates, key=lambda point: point.metric(metric))

    def to_text(self, metrics: tuple[str, ...] = ("cycles",)) -> str:
        """Render an aligned text table (failed points are marked)."""
        axis_names = list(self.axes)
        headers = axis_names + list(metrics)
        rows = []
        for point in self.points:
            row = [str(point.settings[name]) for name in axis_names]
            if point.failed and point.results is None:
                row.append(f"FAILED({point.error_kind})")
                row.extend("-" for _ in metrics[1:])
                rows.append(row)
                continue
            for metric in metrics:
                value = point.metric(metric)
                cell = (f"{value:.4g}" if isinstance(value, float)
                        else str(value))
                row.append(cell)
            if point.failed:
                row[-1] += "  [FAILED]"
            rows.append(row)
        widths = [max(len(header), *(len(row[i]) for row in rows))
                  for i, header in enumerate(headers)]
        lines = ["  ".join(header.ljust(width)
                           for header, width in zip(headers, widths))]
        lines.append("  ".join("-" * width for width in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(width)
                                   for cell, width in zip(row, widths)))
        return "\n".join(lines)

    def to_dict(self, metrics: tuple[str, ...] = ("cycles",)) -> dict:
        """A canonical, JSON-serialisable view of the campaign.

        Deterministic by construction: only simulated quantities appear
        (host wall time, worker count and exception identities are
        excluded), so a ``workers=1`` and a ``workers=N`` run of the
        same sweep produce byte-identical documents — the differential
        guarantee the parallel engine is tested against.
        """
        return {
            "axes": {name: [_canonical_value(value) for value in values]
                     for name, values in self.axes.items()},
            "points": [
                {
                    "settings": {name: _canonical_value(value)
                                 for name, value in point.settings.items()},
                    "verified": point.verified,
                    "failed": point.failed,
                    "metrics": {name: (point.metric(name)
                                       if point.results is not None
                                       else None)
                                for name in metrics},
                    "error": point.failure_record(),
                }
                for point in self.points],
        }

    def aggregate(self, metrics: tuple[str, ...] = ("cycles",
                                                    "instructions")) -> dict:
        """Campaign-level rollup of per-point metrics and outcomes."""
        completed = [point for point in self.points
                     if point.results is not None]
        summary: dict[str, Any] = {
            "points": len(self.points),
            "succeeded": sum(1 for point in self.points if not point.failed),
            "failed": sum(1 for point in self.points if point.failed),
            "quarantined": len(self.quarantined()),
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "metrics": {},
        }
        for name in metrics:
            values = [point.metric(name) for point in completed]
            if not values:
                summary["metrics"][name] = None
                continue
            summary["metrics"][name] = {
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
                "total": sum(values),
            }
        return summary


def factory_takes_settings(make_workload: Callable) -> bool:
    """Whether a workload factory's signature binds one positional
    argument — the point's settings dict."""
    try:
        inspect.signature(make_workload).bind({})
    except (TypeError, ValueError):
        return False
    return True


def call_workload_factory(make_workload: Callable,
                          settings: dict[str, Any]):
    """Call a workload factory, passing the point's settings when the
    factory accepts them.

    A zero-argument factory (the classic API) is called as-is; a factory
    whose signature binds one positional argument receives the full
    settings dict, so workload shape can itself be swept (problem size
    axes, kernel-variant axes) alongside configuration axes.
    """
    if factory_takes_settings(make_workload):
        return make_workload(settings)
    return make_workload()


def run_point(settings: dict[str, Any], base_cores: int,
              base_overrides: dict[str, Any], make_workload: Callable,
              require_verified: bool = True,
              on_simulation: Callable | None = None) -> SweepPoint:
    """Execute one sweep point, never raising: a thin wrapper over the
    one run pipeline (:func:`~repro.coyote.simulation.run_workload`).

    In-process execution and every pool worker call it; both build the
    point's full configuration (seeded fault and telemetry setup
    included) from the same ``base + settings`` recipe, which is what
    makes a parallel table bit-identical to a serial one.
    ``on_simulation`` is the supervised worker's heartbeat hook: it
    gets the ``Simulation`` before it runs, to report cycles simulated.
    """
    try:
        config = SimulationConfig.for_cores(
            base_cores, **{**base_overrides, **settings})
        workload = call_workload_factory(make_workload, settings)
        outcome = run_workload(config, workload, on_simulation=on_simulation)
    except Exception as exc:
        return SweepPoint(settings, None, False, exc)
    error = None
    if require_verified and not outcome.succeeded:
        error = SimulationError(f"sweep point {settings} failed verification")
    return SweepPoint(settings, outcome.results, outcome.verified, error)


class Sweep:
    """A cartesian design-space sweep over configuration axes.

    Any extra keyword (``**base_overrides``) is applied to every point's
    configuration — including ``telemetry=TelemetryConfig(...)``, so an
    ablation study collects interval time series and latency histograms
    at each point for free (``point.results.timeseries`` /
    ``point.results.latency``).
    """

    def __init__(self, base_cores: int, axes: dict[str, list],
                 **base_overrides):
        if not axes:
            raise SweepError("a sweep needs at least one axis")
        try:
            # Every setting reaches for_cores, so a name that is not a
            # configuration path, or a value of the wrong type for it,
            # fails here instead of at each point.
            for name, values in axes.items():
                config_trail(name, *values)
            for name, value in base_overrides.items():
                config_trail(name, value)
        except ValueError as exc:
            raise SweepError(str(exc)) from None
        self.base_cores = base_cores
        self.axes = dict(axes)
        self.base_overrides = base_overrides

    def points(self) -> list[dict[str, Any]]:
        """Every settings dict of the sweep, in cartesian axis order."""
        names = list(self.axes)
        return [dict(zip(names, values))
                for values in itertools.product(*self.axes.values())]

    def run(self, make_workload: Callable, *,
            require_verified: bool = True,
            on_error: str = "raise",
            workers: int = 1,
            progress: bool = False,
            campaign_path=None,
            policy=None) -> SweepTable:
        """Run every point; ``make_workload`` is called per point.

        ``on_error`` controls failure isolation: ``"raise"`` (the
        default) aborts the whole sweep at the first failing point;
        ``"skip"`` records the failure on that point and carries on —
        one deadlocking configuration no longer destroys an overnight
        campaign.  Failed points are marked in :meth:`SweepTable.to_text`
        and listed by :meth:`SweepTable.failures`.

        ``workers`` selects the execution engine: ``1`` runs in-process;
        ``N > 1`` fans points out to ``N`` worker processes
        (:class:`~repro.coyote.parallel.ParallelSweep`) with per-point
        crash isolation, while the returned table stays bit-identical
        (deterministic axis order, same metrics, same failure records).
        ``progress`` streams ``k/n points, ETA`` through the
        ``repro.telemetry`` logger; ``campaign_path`` names a directory
        that keeps every settled point, so an interrupted or repeated
        campaign serves them from there instead of recomputing.

        ``policy`` (a
        :class:`~repro.resilience.supervisor.SupervisorPolicy`) runs
        every point under the supervised lifecycle: heartbeats,
        per-point timeout, RSS ceiling, bounded retries with seeded
        backoff, and quarantine of points that exhaust them — see
        docs/RESILIENCE.md.
        """
        from repro.coyote.parallel import ParallelSweep
        return ParallelSweep(
            self, workers=workers, on_error=on_error,
            require_verified=require_verified, progress=progress,
            campaign_path=campaign_path, policy=policy).run(make_workload)
