"""Pinned trace bytes and the trace writers' memory budget.

The Chrome trace-event JSON and the Paraver ``.prv``/``.pcf``/``.row``
triple are the run's outputs; however the builder stores what it
records, the files it writes must not change by a byte.  Three runs pin
them, each reaching a different event mix:

* ``spmv``: 16-core gather SpMV on a mesh (NoC occupancy counter
  samples, request pairs, core spans: the mix of a traced CLI run);
* ``profiled``: vector-matmul under the guest profiler (multi-key
  stall-cycle counter tracks);
* ``faulted``: scalar-matmul under the example fault plan (resilience
  ``instant`` markers carrying ``args``).

Run the file as a script to print fresh digests.

The budget tests measure, with tracemalloc, what the builder keeps per
recorded event and what ``write_chrome_trace`` allocates on top of it.
"""

import hashlib
import pickle
import tracemalloc
from pathlib import Path

import pytest

from repro import api
from repro.api import FaultPlan, ResilienceConfig

_FAULT_PLAN = Path(__file__).parents[2] / "examples" / "fault_plan.json"
_OUTPUTS = ("chrome.json", "trace.prv", "trace.pcf", "trace.row")


def _spmv(rows: int = 256):
    return api.run("spmv-csr-gather-reduce", 16, size=rows, **{
        "noc.kind": "mesh", "mem_latency": 100, "trace_misses": True,
        "telemetry.chrome_trace": True})


def _profiled():
    return api.run("vector-matmul", 4, size=16, profile=True, **{
        "trace_misses": True, "telemetry.chrome_trace": True})


def _faulted():
    resilience = ResilienceConfig()
    FaultPlan.load(_FAULT_PLAN).apply(resilience)
    return api.run("scalar-matmul", 4, size=8, resilience=resilience, **{
        "trace_misses": True, "telemetry.chrome_trace": True})


RUNS = {"spmv": _spmv, "profiled": _profiled, "faulted": _faulted}

# What each run is pinned for: an event only it reaches.
REACHES = {
    "spmv": lambda event: event["name"] == "noc-in-flight",
    "profiled": lambda event: event["ph"] == "C" and len(event["args"]) > 1,
    "faulted": lambda event: event.get("cat") == "resilience"
    and "args" in event,
}

PINNED = {
    "faulted": {
        "chrome.json":
            "5ac780ed6a32f3a8a594aa2d0a69b459692a7b3dbc6b1e15cde44fa08814caaa",
        "trace.prv":
            "795bf3ec9a3217dab4c7c8f11a4cdaa6ce57b0c3a8ba38513e8d5fe8a8de2f60",
        "trace.pcf":
            "ceab0363b59266ccff808ab329c58a7746fac830f08d5bb3a3a727e7fbe7e452",
        "trace.row":
            "4b938f58c78da4a30c757bdde7e1769a0199d068491928d223f56cfdb5d411c8",
    },
    "profiled": {
        "chrome.json":
            "f194d5a3a47eb6159d7e6a1247352884aae15805815bc10e0ea6d4b872f6d6d7",
        "trace.prv":
            "000916f77aef625ef27853842cf71580c0073f453ace449b488695ab822b9793",
        "trace.pcf":
            "ceab0363b59266ccff808ab329c58a7746fac830f08d5bb3a3a727e7fbe7e452",
        "trace.row":
            "4b938f58c78da4a30c757bdde7e1769a0199d068491928d223f56cfdb5d411c8",
    },
    "spmv": {
        "chrome.json":
            "e2fca61018de8f4f9860de3ba1fdea1855e3613ce58d23dc22a98d90717e29b6",
        "trace.prv":
            "90fb9bdf15ebccc86eb2390ccd911ac886ab119c5c3b86cffabc5286d451daa9",
        "trace.pcf":
            "ceab0363b59266ccff808ab329c58a7746fac830f08d5bb3a3a727e7fbe7e452",
        "trace.row":
            "4a0275abfb6b2901f704d7531442b648ef060352f846fe5f46a9694601d440f8",
    },
}


def _write_outputs(simulation, directory: Path) -> dict[str, str]:
    simulation.write_chrome_trace(directory / "chrome.json")
    simulation.write_trace(directory / "trace")
    return {name: hashlib.sha256((directory / name).read_bytes())
            .hexdigest() for name in _OUTPUTS}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_trace_bytes_are_pinned(run, tmp_path):
    outcome = RUNS[run]()
    assert outcome.verified
    assert any(map(REACHES[run], outcome.simulation.telemetry.chrome.events))
    assert _write_outputs(outcome.simulation, tmp_path) == PINNED[run]


# -- memory budget -----------------------------------------------------------

RETAINED_BYTES_PER_EVENT = 200
WRITE_TRANSIENT_BYTES = 512 * 1024


def _retained_bytes(builder) -> int:
    """Bytes held by a copy of ``builder``: everything it keeps alive."""
    state = pickle.dumps(builder)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = pickle.loads(state)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del copy
    return retained


def _write_transient(simulation, path: Path) -> int:
    """Peak bytes ``write_chrome_trace`` allocates above what it holds."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simulation.write_chrome_trace(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture(scope="module")
def spmv():
    return _spmv().simulation


def test_builder_retains_at_most_200_bytes_per_event(spmv):
    builder = spmv.telemetry.chrome
    events = sum(1 for _event in builder.events)
    assert events > 10_000
    assert _retained_bytes(builder) / events <= RETAINED_BYTES_PER_EVENT


@pytest.mark.parametrize("rows", [256, 1024])
def test_write_streams_in_bounded_memory(spmv, rows, tmp_path):
    simulation = spmv if rows == 256 else _spmv(rows).simulation
    assert _write_transient(simulation, tmp_path / "chrome.json") \
        <= WRITE_TRANSIENT_BYTES


if __name__ == "__main__":
    import tempfile

    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as scratch:
            digests = _write_outputs(RUNS[name]().simulation, Path(scratch))
        print(f'    "{name}": {{')
        for output, digest in digests.items():
            print(f'        "{output}":\n            "{digest}",')
        print("    },")
