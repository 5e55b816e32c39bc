"""One point, every entry point, one result.

``api.run``, ``coyote-sim``, a sweep point (in-process and on a worker
process) and a paused-then-replayed run all build, run and verify a
simulation; the same point must come back with the same simulated
``results.to_dict()`` from each, verified.  The telemetry is the one
``--metrics-out`` switches on, so the CLI's document compares as is.
"""

import json

from repro import api
from repro.coyote import cli
from repro.coyote.config import SimulationConfig

KERNEL, CORES, SIZE = "scalar-matmul", 4, 8
# What ``--metrics-out`` turns on (cli.DEFAULT_SAMPLE_INTERVAL).
TELEMETRY = dict(histograms=True, host_profile=True, sample_interval=1000)
# A one-point axis at the default: the point is the plain run.
DEFAULT_LATENCY = SimulationConfig().get("mem_latency")
HOST_KEYS = ("wall_seconds", "host_mips", "host_profile")


def simulated(document: dict) -> dict:
    return {key: value for key, value in document.items()
            if key not in HOST_KEYS}


def through_run():
    outcome = api.run(KERNEL, CORES, size=SIZE,
                      telemetry=api.TelemetryConfig(**TELEMETRY))
    return outcome.verified, outcome.results.to_dict()


def through_the_cli(tmp_path):
    path = tmp_path / "metrics.json"
    code = cli.main(["--kernel", KERNEL, "--cores", str(CORES), "--size",
                     str(SIZE), "--metrics-out", str(path)])
    return code == cli.EXIT_OK, json.loads(path.read_text())


def through_a_sweep(workers):
    table = api.sweep(KERNEL, CORES, size=SIZE, workers=workers,
                      axes={"mem_latency": [DEFAULT_LATENCY]},
                      telemetry=api.TelemetryConfig(**TELEMETRY))
    (point,) = table.points
    assert point.error is None, point.error
    return point.verified, point.results.to_dict()


def through_a_replay(tmp_path):
    paused = api.run(KERNEL, CORES, size=SIZE, pause_at=1300,
                     telemetry=api.TelemetryConfig(**TELEMETRY))
    assert paused.results is None and paused.verified is None
    path = api.save_checkpoint(paused.simulation, tmp_path / "m.ckpt", {
        "kernel": KERNEL, "cores": CORES, "size": SIZE})
    outcome = api.replay(path)
    return outcome.verified, outcome.results.to_dict()


def test_one_point_reads_the_same_through_every_entry_point(tmp_path):
    runs = {
        "api.run": through_run(),
        "coyote-sim": through_the_cli(tmp_path),
        "sweep-1": through_a_sweep(workers=1),
        "sweep-2": through_a_sweep(workers=2),
        "replay": through_a_replay(tmp_path),
    }
    reference = simulated(runs["api.run"][1])
    assert reference["cycles"] > 0 and reference["timeseries"]
    for entry, (verified, document) in runs.items():
        assert verified is True, entry
        assert simulated(document) == reference, entry


def test_a_named_kernel_is_built_for_the_configs_cores():
    outcome = api.run(KERNEL, config=SimulationConfig.for_cores(CORES),
                      size=SIZE)
    assert outcome.workload.num_cores == CORES
    assert outcome.verified is True
    assert sorted(outcome.results.exit_codes) == list(range(CORES))
    assert outcome.succeeded
