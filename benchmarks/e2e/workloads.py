"""The benchmark's workloads: what one operation is and how it is checked.

Every workload is a closed loop with one client: the harness asks for
one operation, waits for its result, asks for the next.  Each operation
starts from nothing the previous one left behind — kernels are rebuilt
and re-assembled, simulations are new objects (so every modelled cache
starts empty), campaigns get a fresh service root — because that is the
path a user pays from ``api.run`` / ``coyote-sim`` / ``api.submit`` to
results on disk.

An operation times itself (``timebase.timed``: set-up and clean-up of
its scratch directory stay outside the clock) and returns ``{"ok",
"why", "instructions", "points", "sample", "fingerprint"}``.  ``ok`` is
false on a non-zero exit, an unverified output, any failed, quarantined
or cancelled point, tables that differ between two ways of computing
them, or — at the pinned seed — a simulated fingerprint that differs
from ``fingerprints.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import api
from repro.kernels import (
    instantiate,
    scalar_matmul,
    spmv_csr_gather_reduce,
    vector_matmul,
)

from spans import SpanRecorder, maybe_span
from timebase import combine, timed

HERE = Path(__file__).resolve().parent
# The seed the committed fingerprints were recorded at.
PINNED_SEED = 1


def load_fingerprints() -> dict:
    return json.loads((HERE / "fingerprints.json").read_text())


def fingerprint(data: dict) -> list:
    """The simulated outcome of one run, from ``results.to_dict()``.

    A short list of simulated quantities rather than a digest of the
    whole document, so adding a result field does not invalidate it.
    """
    cores = data["cores"]
    return [
        data["cycles"], data["instructions"],
        [data["exit_codes"][core]
         for core in sorted(data["exit_codes"], key=int)],
        sum(core["l1d"]["read_misses"] + core["l1d"]["write_misses"]
            for core in cores),
        sum(core["l1i"]["read_misses"] + core["l1i"]["write_misses"]
            for core in cores),
        data["raw_stall_cycles"],
    ]


def table_fingerprint(table) -> str:
    """Digest of a sweep table's simulated content (host facts are not
    in ``to_dict``, so every way of computing a table must agree)."""
    document = table.to_dict(metrics=("cycles", "instructions"))
    payload = json.dumps(document, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SimPoint:
    """One simulation: a kernel factory plus ``for_cores`` overrides."""

    factory: Callable
    cores: int
    overrides: dict = field(default_factory=dict)


def run_point(point: SimPoint, outdir: Path,
              recorder: SpanRecorder | None = None,
              **extra) -> dict:
    """Simulate ``point`` from kernel construction to results on disk.

    Untraced, this is ``api.run`` followed by writing what the point
    asked for.  Traced, the same public calls ``api.run`` makes are
    made one by one with a span around each, the host profiler and the
    miss trace are switched on, and the Paraver trace is always
    written — that extra work *is* the tracing overhead the harness
    reports.
    """
    overrides = {**point.overrides, **extra}
    if recorder is None:
        outcome = api.run(point.factory, point.cores, **overrides)
        simulation, results = outcome.simulation, outcome.results
        verified = outcome.verified
        data = results.to_dict()
        with open(outdir / "results.json", "w") as handle:
            json.dump(data, handle)
        if overrides.get("trace_misses"):
            simulation.write_trace(outdir / "trace")
        return {"verified": bool(verified and results.succeeded()),
                "data": data}
    overrides["trace_misses"] = True
    overrides.setdefault(
        "telemetry", api.TelemetryConfig(host_profile=True))
    with recorder.span("kernels.build"):
        workload = point.factory()
    config = api.SimulationConfig.for_cores(point.cores, **overrides)
    with recorder.span("coyote.build"):
        simulation = api.Simulation(config, workload.program)
    with recorder.span("coyote.run"):
        results = simulation.run()
    with recorder.span("coyote.verify"):
        verified = workload.verify(simulation.memory)
    with recorder.span("coyote.emit"):
        data = results.to_dict()
        with open(outdir / "results.json", "w") as handle:
            json.dump(data, handle)
    with recorder.span("paraver.write"):
        prv, pcf = simulation.write_trace(outdir / "trace")
    return {"verified": bool(verified and results.succeeded()),
            "data": data, "trace_records": len(simulation.trace),
            "trace_bytes": prv.stat().st_size + pcf.stat().st_size}


class Workload:
    """Base class: a seeded set of inputs and one operation on them."""

    name = ""   # as declared, with its reason, in BENCHMARK.json

    def __init__(self, seed: int, tmp: Path, smoke: bool):
        self.seed = seed
        self.tmp = tmp
        self.smoke = smoke
        self.rng = random.Random(seed)
        self.pinned = (load_fingerprints().get(self.name)
                       if seed == PINNED_SEED and not smoke else None)
        self._ops = 0

    def fresh_dir(self) -> Path:
        """An empty directory for one operation's outputs."""
        self._ops += 1
        path = self.tmp / f"{self.name}-{self._ops}"
        path.mkdir(parents=True)
        return path

    def check_pin(self, observed) -> str:
        """'' when ``observed`` matches the pinned fingerprint (or
        nothing is pinned at this seed), else the reason."""
        if self.pinned is not None and observed != self.pinned:
            return (f"fingerprint {observed} differs from pinned "
                    f"{self.pinned}")
        return ""

    def timed_op(self, recorder: SpanRecorder | None, body: Callable):
        """``timed(body)``, under an ``op`` span when traced."""
        def call():
            with maybe_span(recorder, "op"):
                return body()
        return timed(call)

    def points(self) -> list[SimPoint]:
        """The simulation points whose layer anatomy stands for this
        workload in the traced run."""
        raise NotImplementedError

    def op(self, recorder: SpanRecorder | None) -> dict:
        raise NotImplementedError


class SimWorkload(Workload):
    """One in-process simulation per operation."""

    def point(self) -> SimPoint:
        raise NotImplementedError

    def points(self) -> list[SimPoint]:
        return [self.point()]

    def op(self, recorder):
        outdir = self.fresh_dir()
        try:
            outcome, sample = self.timed_op(
                recorder,
                lambda: run_point(self.point(), outdir, recorder))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        observed = fingerprint(outcome["data"])
        why = ("" if outcome["verified"] else "output not verified") \
            or self.check_pin(observed)
        return {"ok": not why, "why": why, "points": 1, "sample": sample,
                "fingerprint": observed,
                "instructions": outcome["data"]["instructions"]}


class ScalarCompute(SimWorkload):
    """8-core scalar matmul at size 48: the per-core working set stays
    in L1D (the legacy ``BENCH_hotloop`` ``matmul-8core`` point)."""

    name = "scalar_compute"

    def point(self):
        size, seed = (8 if self.smoke else 48), self.seed
        return SimPoint(
            lambda: scalar_matmul(size=size, num_cores=8, seed=seed), 8)


class VectorCompute(SimWorkload):
    """4-core RVV matmul.  Size 48 (0.8 s) rather than 64 (2.6 s) so
    that a ten-second run holds ten operations, not four."""

    name = "vector_compute"

    def point(self):
        size, seed = (8 if self.smoke else 48), self.seed
        return SimPoint(
            lambda: vector_matmul(size=size, num_cores=4, seed=seed), 4)


class SparseMesh(SimWorkload):
    """16-core gather SpMV, 1024 rows x 16 non-zeros, on a mesh NoC
    with the miss trace written (~1 s; 2048 rows would take 2.1 s)."""

    name = "sparse_mesh"

    def point(self):
        rows, seed = (64 if self.smoke else 1024), self.seed
        return SimPoint(
            lambda: spmv_csr_gather_reduce(
                num_rows=rows, nnz_per_row=16, num_cores=16, seed=seed),
            16, {"noc.kind": "mesh", "trace_misses": True})


class CliColdSmall(Workload):
    """Three cold ``coyote-sim`` processes per operation."""

    name = "cli_cold_small"

    def __init__(self, seed, tmp, smoke):
        super().__init__(seed, tmp, smoke)
        # The CLI builds kernels by name at their default data seed, so
        # the seeded input here is the modelled memory latency.
        specs = [
            ("scalar-matmul", 4, 8, {}),
            ("spmv-csr-gather-reduce", 16, 64 if smoke else 256,
             {"noc.kind": "mesh"}),
            ("vector-stencil", 8, 256 if smoke else 2048, {}),
        ]
        self.lines = []
        for kernel, cores, size, noc in specs:
            latency = self.rng.randrange(80, 144, 4)
            line = ["--kernel", kernel, "--cores", str(cores),
                    "--size", str(size), "--mem-latency", str(latency)]
            if noc:
                line += ["--noc-topology", noc["noc.kind"]]
            # ``instantiate`` is how the CLI itself builds the kernel.
            point = SimPoint(
                lambda kernel=kernel, cores=cores, size=size:
                instantiate(kernel, cores, size),
                cores, {"mem_latency": latency, **noc})
            self.lines.append((line, point))

    def points(self):
        return [point for _line, point in self.lines]

    def op(self, recorder):
        # Each process is timed between its own spins: host speed
        # drifts within the ~2 s the three take together.
        outdir = self.fresh_dir()
        prints, samples, instructions, why = [], [], 0, ""
        try:
            with maybe_span(recorder, "op"):
                for index, (line, _point) in enumerate(self.lines):
                    metrics = outdir / f"metrics{index}.json"
                    command = [
                        sys.executable, "-m", "repro.coyote.cli", *line,
                        "--trace", str(outdir / f"trace{index}"),
                        "--metrics-out", str(metrics),
                        "--chrome-trace",
                        str(outdir / f"chrome{index}.json")]

                    def call():
                        with maybe_span(recorder, "coyote.cli"):
                            return subprocess.run(
                                command, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)

                    done, sample = timed(call)
                    samples.append(sample)
                    if done.returncode != 0:
                        why = (f"{' '.join(line)} exited "
                               f"{done.returncode}: {done.stderr[-300:]}")
                        break
                    data = json.loads(metrics.read_text())
                    if not data["succeeded"]:
                        why = f"{' '.join(line)}: non-zero guest exit"
                        break
                    prints.append(fingerprint(data))
                    instructions += data["instructions"]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        why = why or self.check_pin(prints)
        return {"ok": not why, "why": why, "points": len(self.lines),
                "sample": combine(samples), "fingerprint": prints,
                "instructions": instructions}


def check_table(table, expected_points: int) -> str:
    """'' when every point of a sweep table completed and verified."""
    if len(table.points) != expected_points:
        return f"{len(table.points)} points, expected {expected_points}"
    bad = [point.settings for point in table.points
           if point.failed or not point.verified
           or point.results is None]
    if bad:
        return f"{len(bad)} point(s) failed or unverified, first {bad[0]}"
    return ""


def check_status(status) -> str:
    """'' when a service job finished with nothing lost."""
    if (status.failed or status.quarantined or status.cancelled
            or status.done != status.total):
        return f"job did not complete cleanly: {status.to_dict()}"
    return ""


def table_instructions(table) -> int:
    """Instructions simulated across a table's completed points."""
    return sum(point.results.instructions for point in table.points
               if point.results is not None)


class Campaign(Workload):
    """Shared inputs of the two journaled-service workloads."""

    kernel, cores, size = "scalar-matmul", 4, 8

    def __init__(self, seed, tmp, smoke):
        super().__init__(seed, tmp, smoke)
        latencies = sorted(self.rng.sample(range(60, 200, 4), 2))
        self.axes = {"l2_mode": ["shared", "private"],
                     "noc.latency": [4, 8] if smoke else [4, 6, 8, 10],
                     "mem_latency": latencies,
                     "mapping_policy": ["set-interleaving"] if smoke
                     else ["set-interleaving", "page-to-bank"]}
        self.num_points = 1
        for values in self.axes.values():
            self.num_points *= len(values)

    def points(self):
        return [SimPoint(
            lambda: scalar_matmul(size=self.size, num_cores=self.cores),
            self.cores, {"mem_latency": self.axes["mem_latency"][0]})]

    def submit_and_wait(self, root: Path, recorder):
        """Submit the grid and run the queue in this process until it
        is done; returns ``(job_id, table)``."""
        with maybe_span(recorder, "service.submit"):
            job_id = api.submit(self.kernel, root=root, axes=self.axes,
                                cores=self.cores, size=self.size)
        with maybe_span(recorder, "service.result"):
            table = api.result(job_id, root=root, wait=True, workers=1)
        return job_id, table

    def check(self, root: Path, job_id: str, table) -> str:
        """'' when the job finished cleanly and every point verified —
        a mistyped axis yields a job whose points are all done *and*
        failed, which ``api.result`` returns without complaint."""
        return (check_status(api.status(job_id, root=root))
                or check_table(table, self.num_points))


class CampaignCold(Campaign):
    name = "campaign_cold"

    def op(self, recorder):
        root = self.fresh_dir()
        try:
            (job_id, table), sample = self.timed_op(
                recorder, lambda: self.submit_and_wait(root, recorder))
            why = self.check(root, job_id, table)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        observed = table_fingerprint(table)
        why = why or self.check_pin(observed)
        return {"ok": not why, "why": why, "points": self.num_points,
                "sample": sample, "fingerprint": observed,
                "instructions": table_instructions(table)}


class CampaignWarm(Campaign):
    """Resubmits of a campaign whose results are already cached.

    Every operation starts from a copy of the same root — one completed
    job — because the service replays and rewrites its whole history on
    each open: resubmitting against one ever-growing root made the
    operation time grow with the number of operations before it.
    """

    name = "campaign_warm"
    RESUBMITS = 5

    def __init__(self, seed, tmp, smoke):
        super().__init__(seed, tmp, smoke)
        self.pristine = tmp / "campaign_warm-pristine"
        job_id, self.cold_table = self.submit_and_wait(self.pristine, None)
        why = self.check(self.pristine, job_id, self.cold_table)
        if why:
            raise RuntimeError(f"campaign_warm set-up failed: {why}")
        self.cold_print = table_fingerprint(self.cold_table)

    def op(self, recorder):
        root = self.fresh_dir()
        shutil.copytree(self.pristine, root, dirs_exist_ok=True)
        why = ""
        try:
            jobs, sample = self.timed_op(recorder, lambda: [
                self.submit_and_wait(root, recorder)
                for _ in range(self.RESUBMITS)])
            for job_id, table in jobs:
                hits = api.status(job_id, root=root).cache_hits
                why = why or self.check(root, job_id, table)
                if not why and hits != self.num_points:
                    why = (f"{hits} cache hits, expected "
                           f"{self.num_points}")
                if not why and table_fingerprint(table) != self.cold_print:
                    why = "warm table differs from the cold table"
        finally:
            shutil.rmtree(root, ignore_errors=True)
        why = why or self.check_pin(self.cold_print)
        return {"ok": not why, "why": why, "sample": sample,
                "fingerprint": self.cold_print,
                "points": self.RESUBMITS * self.num_points,
                "instructions": (table_instructions(self.cold_table)
                                 * self.RESUBMITS)}


class SweepPool2(Workload):
    """One table through a two-worker pool.

    The same table through one worker is computed once, in set-up, and
    every operation's table must equal it.
    """

    name = "sweep_pool2"
    cores = 8

    def __init__(self, seed, tmp, smoke):
        super().__init__(seed, tmp, smoke)
        self.size = 8 if smoke else 24
        latencies = sorted(self.rng.sample(range(60, 200, 4), 2))
        self.axes = {"mem_latency": latencies,
                     "noc.latency": [4, 8] if smoke else [4, 6, 8, 10]}
        self.num_points = 2 * len(self.axes["noc.latency"])
        serial = self.sweep(workers=1)
        why = check_table(serial, self.num_points)
        if why:
            raise RuntimeError(f"sweep_pool2 set-up failed: {why}")
        self.serial_print = table_fingerprint(serial)

    def factory(self):
        return scalar_matmul(size=self.size, num_cores=self.cores,
                             seed=self.seed)

    def points(self):
        return [SimPoint(self.factory, self.cores,
                         {"mem_latency": self.axes["mem_latency"][0]})]

    def sweep(self, workers: int):
        return api.sweep(self.factory, self.cores, axes=self.axes,
                         workers=workers, on_error="skip")

    def op(self, recorder):
        table, sample = self.timed_op(recorder,
                                      lambda: self.sweep(workers=2))
        observed = table_fingerprint(table)
        why = check_table(table, self.num_points)
        if not why and observed != self.serial_print:
            why = "workers=2 table differs from the workers=1 table"
        why = why or self.check_pin(observed)
        return {"ok": not why, "why": why, "points": self.num_points,
                "sample": sample, "fingerprint": observed,
                "instructions": table_instructions(table)}


WORKLOADS = {cls.name: cls for cls in (
    ScalarCompute, VectorCompute, SparseMesh, CliColdSmall,
    CampaignCold, CampaignWarm, SweepPool2)}
