"""An event-driven modelling framework in the style of SiFive's Sparta.

Provides the substrate the memory-hierarchy model is built from: a
deterministic cycle-quantised :class:`Scheduler`, hierarchical
:class:`Unit` components and counters/statistics.  Units call each
other's handlers (and ``noc.route``) directly through the scheduler.
"""

from repro.sparta.scheduler import Scheduler, SchedulerError
from repro.sparta.statistics import (
    Counter,
    Gauge,
    StatisticSet,
    StatSample,
    format_report,
)
from repro.sparta.unit import Unit

__all__ = [
    "Counter",
    "Gauge",
    "Scheduler",
    "SchedulerError",
    "StatSample",
    "StatisticSet",
    "Unit",
    "format_report",
]
