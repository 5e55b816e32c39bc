"""Time base and statistics of the benchmark (standard library only).

Host speed on the sandboxes this runs in drifts by tens of percent over
seconds (README, "Noise study"), so raw wall seconds cannot be compared
between two runs.  Every timed operation is bracketed by a fixed
pure-Python calibration spin that touches no repository code, and its
wall time is scaled to *reference seconds*: the time it would have
taken on a host where the spin takes exactly ``SPIN_REF_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

# Fixed, never calibrated per run: the spin's duration is the
# measurement of host speed, so its length must not adapt to the host.
SPIN_N = 1_400_000
SPIN_REF_S = 0.050

# Percentiles a tail may be reported at, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def spin(n: int = SPIN_N) -> float:
    """Run the calibration loop; returns its wall seconds."""
    start = time.perf_counter()
    x = 0
    for i in range(n):
        x += i & 3
    return time.perf_counter() - start


def ref_seconds(wall_s: float, spin_before: float,
                spin_after: float) -> float:
    """``wall_s`` scaled to a host whose spin takes ``SPIN_REF_S``."""
    return wall_s * SPIN_REF_S / ((spin_before + spin_after) / 2)


def timed(function):
    """Call ``function()`` between two spins.

    Garbage is collected before the clock starts and the collector stays
    enabled inside the timed region.  Returns ``(result, sample)`` with
    ``sample = {"wall", "spin", "ref"}`` (seconds).
    """
    gc.collect()
    before = spin()
    start = time.perf_counter()
    result = function()
    wall = time.perf_counter() - start
    after = spin()
    return result, {"wall": wall, "spin": (before + after) / 2,
                    "ref": ref_seconds(wall, before, after)}


def combine(samples: list[dict]) -> dict:
    """The sample of an operation made of separately timed steps."""
    return {"wall": sum(sample["wall"] for sample in samples),
            "spin": statistics.fmean(sample["spin"] for sample in samples),
            "ref": sum(sample["ref"] for sample in samples)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def iqr_frac(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``None`` when even the lowest
    rung of the ladder leaves fewer than ten samples above it.
    """
    count = len(values)
    for percentile in _TAIL_LADDER:
        beyond = int(count * (100.0 - percentile) / 100.0 + 1e-9)
        if beyond >= 10:
            ordered = sorted(values)
            return percentile, ordered[count - beyond - 1]
    return None


def summarise(values: list[float], unit: str) -> dict:
    """One metric's record: median, quartiles, tail and sample count."""
    q1, median, q3 = quartiles(values)
    record = {"value": median, "unit": unit, "n": len(values),
              "q1": q1, "q3": q3}
    tail = tail_percentile(values)
    if tail is not None:
        record["tail"] = {"percentile": tail[0], "value": tail[1]}
    return record
