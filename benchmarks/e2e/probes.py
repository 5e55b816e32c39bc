"""Per-layer measurements of the traced run.

Two kinds, both taken from outside through public functions:

* :func:`anatomy` runs a workload's representative simulation points
  with a span around each call ``api.run`` makes, and again with the
  translator off, the guest profiler on and the host profiler on, and
  reports each layer's self time and the simulated counts.
* The ``probe_*`` functions drive one layer each with a seeded,
  workload-independent input and report its rate.  They run only in the
  traced pass, so the untraced pass is exactly the workloads.

Every time is in reference seconds (``timebase``).  A layer is a module
under ``src/repro/``; the metric name starts with it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

from repro import api
from repro.assembler import assemble
from repro.isa.decoder import decode
from repro.kernels import scalar_matmul, spmv_csr_gather_reduce
from repro.memhier.hierarchy import MemoryHierarchy
from repro.memhier.request import RequestKind
from repro.service.cache import ResultCache
from repro.service.journal import Journal
from repro.service.service import readonly_store
from repro.service.store import JobStore
from repro.sparta.scheduler import Scheduler
from repro.spike.l1cache import L1Cache
from repro.spike.simulator import SpikeSimulator

from spans import SpanRecorder, self_time_by_name
from timebase import SPIN_REF_S, timed
from workloads import (
    check_status,
    check_table,
    run_point,
    table_fingerprint,
)


class ProbeError(RuntimeError):
    """A probe's own output check failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProbeError(message)


# -- anatomy of a workload's representative points ---------------------------

_SPAN_METRICS = {
    "kernels.build": "kernels.build_ref_s",
    "coyote.build": "coyote.build_ref_s",
    "coyote.run": "coyote.run_ref_s",
    "coyote.verify": "coyote.verify_ref_s",
    "coyote.emit": "coyote.emit_ref_s",
    "paraver.write": "paraver.write_ref_s",
}


def anatomy(workload, recorder: SpanRecorder) -> dict[str, float]:
    """Layer self times and simulated counts of ``workload.points()``.

    Sums over the points.  The variant runs (translator off, guest
    profiler, host profiler) must reproduce the plain run's simulated
    fingerprint — observing must never steer.
    """
    totals = dict.fromkeys(_SPAN_METRICS.values(), 0.0)
    counts = dict.fromkeys((
        "coyote.cycles", "coyote.instructions", "sparta.events_fired",
        "memhier.requests", "memhier.noc_messages", "paraver.records",
        "paraver.trace_bytes"), 0)
    bank_requests = bank_misses = 0
    host = {"wall_seconds": 0.0, "spike_seconds": 0.0,
            "sparta_seconds": 0.0}
    # Simulation.run's own wall time per variant; "plain" comes first
    # and is what the others must reproduce.
    variants = {"plain": {}, "interp": {"translate": False},
                "guest": {"telemetry": api.TelemetryConfig(
                    guest_profile=True)},
                "hostprof": {"telemetry": api.TelemetryConfig(
                    host_profile=True)}}
    run_ref = dict.fromkeys(variants, 0.0)
    for point in workload.points():
        outdir = workload.fresh_dir()
        try:
            first = len(recorder.spans)
            traced, sample = timed(
                lambda: run_point(point, outdir, recorder))
            scale = SPIN_REF_S / sample["spin"]
            by_name = self_time_by_name(recorder.spans[first:])
            for span_name, metric in _SPAN_METRICS.items():
                totals[metric] += by_name[span_name] * scale
            base = None
            for label, extra in variants.items():
                outcome, sample = timed(
                    lambda: run_point(point, outdir, **extra))
                run_ref[label] += (outcome["data"]["wall_seconds"]
                                   * SPIN_REF_S / sample["spin"])
                base = base or outcome
                _require(outcome["verified"], f"{label} run unverified")
                _require(
                    outcome["data"]["cycles"] == base["data"]["cycles"]
                    and outcome["data"]["instructions"]
                    == base["data"]["instructions"],
                    f"{label} run diverged from the plain run")
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        _require(traced["verified"], "traced run unverified")
        data = traced["data"]
        hierarchy = data["hierarchy"]
        counts["coyote.cycles"] += data["cycles"]
        counts["coyote.instructions"] += data["instructions"]
        counts["sparta.events_fired"] += data["events_fired"]
        counts["memhier.requests"] += int(
            hierarchy["memhier.requests_submitted"]
            + hierarchy["memhier.writebacks_submitted"])
        counts["memhier.noc_messages"] += int(
            hierarchy["memhier.noc.messages"])
        counts["paraver.records"] += traced["trace_records"]
        counts["paraver.trace_bytes"] += traced["trace_bytes"]
        for name, value in hierarchy.items():
            # L2 banks only: tileN.bankM, not the optional l3bankN.
            if ".tile" in name and name.endswith(".requests"):
                bank_requests += value
            elif ".tile" in name and name.endswith(".misses"):
                bank_misses += value
        for key in host:
            host[key] += data["host_profile"][key]
    metrics = {**totals, **counts}
    metrics["coyote.ref_cycles_per_s"] = (
        counts["coyote.cycles"] / totals["coyote.run_ref_s"])
    metrics["memhier.l2_miss_frac"] = (
        bank_misses / bank_requests if bank_requests else 0.0)
    metrics["spike.host_share"] = (host["spike_seconds"]
                                   / host["wall_seconds"])
    metrics["sparta.host_share"] = (host["sparta_seconds"]
                                    / host["wall_seconds"])
    plain = run_ref["plain"]
    metrics["spike.interp_run_ref_s"] = run_ref["interp"]
    metrics["spike.translate_speedup"] = run_ref["interp"] / plain
    metrics["telemetry.guestprof_overhead_frac"] = \
        run_ref["guest"] / plain - 1.0
    metrics["telemetry.hostprof_overhead_frac"] = \
        run_ref["hostprof"] / plain - 1.0
    return metrics


# -- workload-independent layer probes ---------------------------------------

def _text_words(program) -> list[int]:
    for segment in program.segments:
        if segment.base <= program.entry < segment.end:
            data = bytes(segment.data)
            return list(struct.unpack(f"<{len(data) // 4}I",
                                      data[:len(data) // 4 * 4]))
    raise ProbeError("program has no text segment")


def probe_assembler(rng: random.Random, scale: float) -> dict:
    """``assemble`` on a synthetic source: 20k seeded instruction
    lines, a label every 16, 2k data words."""
    lines = [".text", "main:"]
    count = int(20_000 * scale)
    templates = (
        "    add  t0, t1, t2", "    addi t3, t3, {imm}",
        "    ld   t4, {imm}(sp)", "    sd   t4, {imm}(sp)",
        "    fmadd.d fa0, fa1, fa2, fa0", "    slli t5, t5, 3",
        "    bne  t0, t1, label_{target}", "    li   t6, {big}")
    for index in range(count):
        block = index // 16
        if index % 16 == 0:
            lines.append(f"label_{block}:")
        # Branches reach back at most two 16-line blocks: in range.
        lines.append(rng.choice(templates).format(
            imm=rng.randrange(0, 256, 8), big=rng.randrange(1 << 30),
            target=max(0, block - rng.randrange(3))))
    lines += ["    ret", ".data", "table:"]
    lines += [f"    .dword {rng.randrange(1 << 40)}"
              for _ in range(count // 10)]
    source = "\n".join(lines) + "\n"
    program, sample = timed(lambda: assemble(source))
    _require(program.total_bytes() > 4 * count, "assembly too small")
    return {"assembler.lines_per_ref_s": len(lines) / sample["ref"]}


def probe_isa(seed: int, scale: float) -> dict:
    """The public decoder over the gather SpMV kernel's text words."""
    words = _text_words(spmv_csr_gather_reduce(
        num_rows=64, nnz_per_row=16, num_cores=16, seed=seed).program)
    repeats = max(1, int(60_000 * scale) // len(words))

    def run():
        decoded = 0
        for _ in range(repeats):
            for word in words:
                decode(word)
                decoded += 1
        return decoded

    decoded, sample = timed(run)
    return {"isa.decodes_per_ref_s": decoded / sample["ref"]}


def probe_spike(rng: random.Random, seed: int, scale: float) -> dict:
    """The bare ISS (no L1, no timing) and the L1 tag cache alone."""
    size = 24 if scale >= 1 else 8
    program = scalar_matmul(size=size, num_cores=1, seed=seed).program
    simulator = SpikeSimulator(program, num_cores=1)
    instructions, iss = timed(simulator.run)
    _require(instructions > size ** 3, "ISS retired too few instructions")

    count = int(200_000 * scale)
    # 85 % of accesses fall in a 16 KiB hot region (half the cache),
    # the rest anywhere in 1 MiB; 30 % are writes.
    stream = [((rng.randrange(1 << 14) if rng.random() < 0.85
                else rng.randrange(1 << 20)) & ~7, rng.random() < 0.3)
              for _ in range(count)]
    cache = L1Cache()

    def run():
        access = cache.access_fast
        for address, is_write in stream:
            access(address, is_write)

    _none, l1 = timed(run)
    _require(cache.stats.accesses == count, "L1 lost accesses")
    return {
        "spike.iss_only_ref_mips": instructions / iss["ref"] / 1e6,
        "spike.l1_accesses_per_ref_s": count / l1["ref"],
        "spike.l1_hit_frac": 1.0 - cache.stats.miss_rate,
    }


def _noop() -> None:
    pass


def probe_sparta(rng: random.Random, scale: float) -> dict:
    """``Scheduler.schedule`` + ``advance_to`` over no-op events."""
    delays = [rng.randrange(1, 64) for _ in range(1000)]
    batches = int(200 * scale)
    scheduler = Scheduler()

    def run():
        for _ in range(batches):
            for delay in delays:
                scheduler.schedule(_noop, delay)
            scheduler.advance_to(scheduler.current_cycle + 64)

    _none, sample = timed(run)
    expected = batches * len(delays)
    _require(scheduler.events_fired == expected,
             f"{scheduler.events_fired} events fired, not {expected}")
    return {"sparta.events_per_ref_s": expected / sample["ref"]}


def probe_memhier(rng: random.Random, kind: str, scale: float) -> dict:
    """A seeded miss stream through ``MemoryHierarchy.submit``.

    Sixteen cores, lines drawn from twice the total L2 capacity, 70 %
    loads / 20 % stores / 10 % writebacks, four requests injected per
    cycle, then the scheduler drained.
    """
    config = api.SimulationConfig.for_cores(
        16, **{"noc.kind": kind}).memhier
    lines = 2 * config.num_banks * config.l2_bank_bytes \
        // config.line_bytes
    count = int(20_000 * scale)
    kinds = ([RequestKind.LOAD] * 7 + [RequestKind.STORE] * 2
             + [RequestKind.WRITEBACK])
    stream = [(rng.randrange(16),
               rng.randrange(lines) * config.line_bytes,
               rng.choice(kinds)) for _ in range(count)]
    scheduler = Scheduler()
    hierarchy = MemoryHierarchy(config, scheduler)
    completed = []
    hierarchy.on_complete = completed.append

    def run():
        submit = hierarchy.submit
        for request_id, (core, line, request_kind) in enumerate(stream):
            submit(request_id, core, line, request_kind)
            if request_id & 3 == 3:
                scheduler.advance_cycle()
        scheduler.run_until_idle()

    _none, sample = timed(run)
    expected = sum(1 for _c, _l, request_kind in stream
                   if request_kind.needs_response)
    _require(len(completed) == expected and hierarchy.outstanding() == 0,
             f"{len(completed)} of {expected} requests completed")
    return {f"memhier.requests_per_ref_s.{kind}": count / sample["ref"]}


def probe_cli() -> dict:
    """Interpreter start + import (``--help``) and the CLI's cost over
    the same run made in-process."""
    base = [sys.executable, "-m", "repro.coyote.cli"]
    line = ["--kernel", "scalar-matmul", "--cores", "4", "--size", "8"]

    def call(arguments):
        done = subprocess.run(base + arguments, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        _require(done.returncode == 0,
                 f"coyote-sim {arguments} exited {done.returncode}: "
                 f"{done.stderr[-300:]}")

    _none, help_sample = timed(lambda: call(["--help"]))
    _none, cli_sample = timed(lambda: call(line))
    outcome, inproc_sample = timed(
        lambda: api.run("scalar-matmul", 4, size=8))
    _require(outcome.succeeded, "in-process reference run failed")
    return {
        "coyote.cli_import_ref_s": help_sample["ref"],
        "coyote.cli_overhead_ref_s": (cli_sample["ref"]
                                      - inproc_sample["ref"]),
    }


def probe_pool(scale: float) -> dict:
    """The ``sweep_pool2`` table (8 points of scalar-matmul 8c/24)
    through one worker, two workers, and two supervised workers
    (heartbeats + timeout, as the legacy ``sweep_scaling`` measured
    it)."""
    axes = {"mem_latency": [80, 120],
            "noc.latency": [4, 8] if scale < 1 else [4, 6, 8, 10]}
    points = 2 * len(axes["noc.latency"])
    policy = api.SupervisorPolicy(point_timeout_seconds=3600.0,
                                  heartbeat_interval_seconds=0.2)
    variants = {"one": {"workers": 1}, "two": {"workers": 2},
                "supervised": {"workers": 2, "policy": policy}}
    refs = {label: [] for label in variants}
    prints = set()
    # Three interleaved rounds, median per variant: a single pooled
    # sweep is too noisy to put a ratio on.
    for _ in range(1 if scale < 1 else 3):
        for label, kwargs in variants.items():
            table, sample = timed(lambda: api.sweep(
                "scalar-matmul", 8, size=8 if scale < 1 else 24,
                axes=axes, on_error="skip", **kwargs))
            _require(not check_table(table, points),
                     check_table(table, points))
            prints.add(table_fingerprint(table))
            refs[label].append(sample["ref"])
    _require(len(prints) == 1, "pool tables differ")
    t1, t2, supervised = (statistics.median(refs[label])
                          for label in variants)
    return {
        "coyote.sweep_serial_point_ref_ms": t1 / points * 1e3,
        "coyote.pool_point_fixed_ref_ms": (2 * t2 - t1) / points * 1e3,
        "coyote.pool_efficiency": t1 / (2 * t2),
        "coyote.pool_speedup": t1 / t2,
        "resilience.supervised_overhead_frac": supervised / t2 - 1,
    }


def probe_service_parts(tmp: Path, point, scale: float) -> dict:
    """Journal, job store and result cache, one at a time."""
    appends = int(2000 * scale)
    journal = Journal(tmp / "probe-journal.jsonl")
    journal.load()

    def append_all(target, count):
        for index in range(count):
            target.append("probe", job="probe", index=index,
                          payload="x" * 64)

    _none, plain = timed(lambda: append_all(journal, appends))
    journal.close()
    synced = Journal(tmp / "probe-journal-fsync.jsonl", fsync=True)
    synced.load()
    _none, fsync = timed(lambda: append_all(synced, appends // 10))
    synced.close()
    _require(journal.appends == appends
             and synced.appends == appends // 10, "journal lost appends")

    jobs = int(500 * scale)
    store = JobStore(Journal(tmp / "probe-store.jsonl")).open()

    def lifecycle():
        store.submit("probe", {"axes": {}},
                     [{"mem_latency": index} for index in range(jobs)])
        now = time.time()
        while (claim := store.claim("probe-worker", now, 30.0)):
            store.complete(claim[0], claim[1]["index"], cache_key=None,
                           verified=True, failure=None)

    _none, stored = timed(lifecycle)
    done = store.status("probe").done
    store.close()
    _require(done == jobs, f"store completed {done} of {jobs}")

    entries = int(300 * scale)
    cache = ResultCache(tmp / "probe-cache")
    keys = [hashlib.sha256(str(index).encode()).hexdigest()
            for index in range(entries)]
    _none, put = timed(lambda: [cache.put(key, point) for key in keys])
    got, get = timed(lambda: [cache.get(key) for key in keys])
    _require(cache.writes == entries and cache.hits == entries
             and all(item is not None for item in got),
             "cache lost entries")
    return {
        "service.journal_appends_per_ref_s": appends / plain["ref"],
        "service.journal_fsync_appends_per_ref_s":
            (appends // 10) / fsync["ref"],
        "service.store_ops_per_ref_s": (1 + 2 * jobs) / stored["ref"],
        "service.cache_put_per_ref_s": entries / put["ref"],
        "service.cache_get_per_ref_s": entries / get["ref"],
    }


def probe_service_campaign(tmp: Path, scale: float) -> tuple[dict, object]:
    """A 16-point campaign: submit, cold drain, the same points as a
    serial sweep, a warm resubmit and a lock-free result read.

    Returns the metrics and one completed ``SweepPoint`` (the cache
    probe's payload).
    """
    axes = {"l2_mode": ["shared", "private"],
            "noc.latency": [4, 8] if scale < 1 else [4, 6, 8, 10],
            "mapping_policy": ["set-interleaving", "page-to-bank"]}
    points = 4 * len(axes["noc.latency"])
    root = tmp / "probe-campaign"
    kernel = dict(cores=4, size=8)

    def submit():
        return api.submit("scalar-matmul", root=root, axes=axes, **kernel)

    def drain(job_id):
        table = api.result(job_id, root=root, wait=True, workers=1)
        why = (check_status(api.status(job_id, root=root))
               or check_table(table, points))
        _require(not why, why)
        return table

    job_id, submitted = timed(submit)
    cold_table, cold = timed(lambda: drain(job_id))
    # The service compacts on close, so the journal file is empty by
    # now: count events by sequence number, bytes as what is durable
    # (snapshot + journal tail).
    journal = readonly_store(root).journal
    journal_records = journal.seq
    journal_bytes = (journal.path.stat().st_size
                     + journal.snapshot_path.stat().st_size)
    cache_bytes = sum(path.stat().st_size for path
                      in (root / "cache" / "objects").rglob("*.res"))
    serial_table, serial = timed(lambda: api.sweep(
        "scalar-matmul", axes=axes, **kernel))
    warm_job = submit()
    warm_table, warm = timed(lambda: drain(warm_job))
    warm_hits = api.status(warm_job, root=root).cache_hits
    read_table, read = timed(lambda: api.result(job_id, root=root))
    prints = {table_fingerprint(table) for table in (
        cold_table, serial_table, warm_table, read_table)}
    _require(len(prints) == 1, "campaign tables differ")
    metrics = {
        "service.submit_ref_ms": submitted["ref"] * 1e3,
        "service.point_fixed_ref_ms":
            (cold["ref"] - serial["ref"]) / points * 1e3,
        "service.result_assemble_ref_ms": read["ref"] * 1e3,
        "service.journal_records_per_point": journal_records / points,
        "service.journal_bytes_per_point": journal_bytes / points,
        "service.cache_bytes_per_point": cache_bytes / points,
        "service.warm_hit_frac": warm_hits / points,
        "service.warm_points_per_ref_s": points / warm["ref"],
    }
    return metrics, cold_table.points[0]


def run_probes(seed: int, tmp: Path, smoke: bool) -> dict[str, float]:
    """Every workload-independent probe, once."""
    scale = 0.1 if smoke else 1.0
    rng = random.Random(seed)
    metrics = {}
    metrics.update(probe_assembler(rng, scale))
    metrics.update(probe_isa(seed, scale))
    metrics.update(probe_spike(rng, seed, scale))
    metrics.update(probe_sparta(rng, scale))
    metrics.update(probe_memhier(rng, "crossbar", scale))
    metrics.update(probe_memhier(rng, "mesh", scale))
    metrics.update(probe_cli())
    metrics.update(probe_pool(scale))
    campaign, point = probe_service_campaign(tmp, scale)
    metrics.update(campaign)
    metrics.update(probe_service_parts(tmp, point, scale))
    return metrics
