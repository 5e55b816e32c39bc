"""Command-line front end: ``coyote-sim``.

Run a named kernel under the full Coyote model and print the statistics
the paper lists as simulation outputs.  Example::

    coyote-sim --kernel scalar-spmv --cores 8 --l2-mode private \\
               --mapping page-to-bank --trace /tmp/spmv

Design-space campaigns run through the ``sweep`` subcommand, fanning
the cartesian points out to a worker pool::

    coyote-sim sweep --kernel scalar-matmul --cores 2 --size 8 \\
               --axes l2_mode=shared,private --axes noc.latency=2,6 \\
               --workers 4 --on-error skip

Exit codes follow a fixed taxonomy so campaign scripts can triage
without parsing stderr: 0 success, 1 generic simulation failure,
2 configuration error, 3 verification failure, 4 deadlock (watchdog or
provable wedge), 130 interrupted (with a partial-progress dump).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import subprocess
import sys
import time

from repro.coyote.config import SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.simulation import Simulation
from repro.coyote.sweep import Sweep
from repro import kernels
from repro.kernels import KERNELS
from repro.memhier.mapping import policy_names
from repro.resilience import (
    DeadlockError,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.spike.translate import translator_totals
from repro.telemetry import TelemetryConfig

DEFAULT_SAMPLE_INTERVAL = 1000

# The exit-code taxonomy (also documented in docs/RESILIENCE.md).
EXIT_OK = 0
EXIT_FAILURE = 1          # simulation raised / did not complete cleanly
EXIT_CONFIG = 2           # bad flags, config file, or fault plan
EXIT_VERIFY = 3           # ran to completion but the output is wrong
EXIT_DEADLOCK = 4         # watchdog trip or provable forward-progress loss
EXIT_INTERRUPT = 130      # SIGINT (the shell convention: 128 + 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim",
        description="Coyote (DATE 2021 reproduction): execution-driven "
                    "RISC-V HPC simulation with a data-movement focus.")
    parser.add_argument("--kernel", choices=sorted(KERNELS),
                        default="scalar-spmv", help="workload to simulate")
    parser.add_argument("--cores", type=int, default=8,
                        help="number of simulated cores")
    parser.add_argument("--size", type=int, default=None,
                        help="problem size (kernel-specific default)")
    parser.add_argument("--l2-mode", choices=("shared", "private"),
                        default="shared", help="L2 sharing mode")
    parser.add_argument("--mapping", choices=policy_names(),
                        default="set-interleaving",
                        help="address-to-bank mapping policy")
    noc = parser.add_argument_group("interconnect")
    noc.add_argument("--noc-topology", choices=("crossbar", "mesh",
                                                "torus"),
                     default="crossbar", dest="noc_topology",
                     help="interconnect model (mesh/torus enable the "
                          "contention model)")
    noc.add_argument("--noc-routing", choices=("xy", "yx", "adaptive"),
                     default="xy",
                     help="mesh/torus routing policy")
    noc.add_argument("--noc-columns", type=int, default=4,
                     help="mesh/torus grid width in routers")
    noc.add_argument("--noc-router-latency", type=int, default=1,
                     help="cycles through each mesh/torus router")
    noc.add_argument("--noc-link-latency", type=int, default=1,
                     help="cycles on each router-to-router link")
    noc.add_argument("--noc-link-capacity", type=int, default=1,
                     help="flit-bursts one link carries per cycle")
    noc.add_argument("--noc-wrap", action="store_true",
                     help="wrap-around links on a mesh (implied by "
                          "--noc-topology torus)")
    noc.add_argument("--noc-crossbar-latency", type=int, default=6,
                     dest="noc_crossbar_latency",
                     help="crossbar NoC latency in cycles")
    parser.add_argument("--mem-latency", type=int, default=100,
                        help="memory access latency in cycles")
    parser.add_argument("--vlen", type=int, default=512,
                        help="vector register length in bits")
    parser.add_argument("--no-translate", action="store_true",
                        help="disable the trace-compiled ISS fast path "
                             "and run the plain interpreter (simulated "
                             "outcomes are identical either way; this "
                             "only trades host speed for debuggability)")
    parser.add_argument("--trace", metavar="BASEPATH", default=None,
                        help="write a Paraver .prv/.pcf/.row miss trace")
    parser.add_argument("--hierarchy-stats", action="store_true",
                        help="also print every modelled-hierarchy counter")
    parser.add_argument("--config", metavar="JSON", default=None,
                        help="load a full SimulationConfig from a JSON "
                             "file (overrides the other config flags)")
    parser.add_argument("--save-config", metavar="JSON", default=None,
                        help="write the effective configuration to a "
                             "JSON file and continue")
    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument("--metrics-out", metavar="JSON", default=None,
                           help="write the full results (counters, "
                                "time series, latency histograms, host "
                                "profile) as a JSON document")
    telemetry.add_argument("--chrome-trace", metavar="JSON", default=None,
                           help="write a Chrome trace-event JSON file "
                                "(open in Perfetto / chrome://tracing)")
    telemetry.add_argument("--sample-interval", type=int, default=0,
                           metavar="CYCLES",
                           help="cycles between interval samples "
                                "(default: %(default)s = off; "
                                f"--metrics-out implies "
                                f"{DEFAULT_SAMPLE_INTERVAL})")
    telemetry.add_argument("--progress", action="store_true",
                           help="log a periodic progress heartbeat and "
                                "print the host wall-time breakdown")
    telemetry.add_argument("--log-level", default=None,
                           choices=("debug", "info", "warning", "error"),
                           help="logging verbosity (--progress implies "
                                "info)")
    resilience = parser.add_argument_group("resilience")
    resilience.add_argument("--inject", metavar="PLAN.json", default=None,
                            help="inject faults from a JSON fault plan "
                                 "(see docs/RESILIENCE.md)")
    resilience.add_argument("--fault-seed", type=int, default=None,
                            metavar="N",
                            help="fault-injection PRNG seed (overrides "
                                 "the plan's seed)")
    resilience.add_argument("--watchdog", type=int, default=None,
                            metavar="CYCLES",
                            help="enable the forward-progress watchdog "
                                 "with this window")
    resilience.add_argument("--check-invariants", type=int, default=None,
                            metavar="CYCLES",
                            help="run conservation checks every N cycles")
    resilience.add_argument("--pause-at", type=int, default=None,
                            metavar="CYCLE", dest="pause_at",
                            help="pause at this cycle, write a "
                                 "checkpoint (--checkpoint-out) and exit "
                                 "(mirrors Simulation.run(pause_at=))")
    resilience.add_argument("--checkpoint-out", metavar="PATH",
                            default=None,
                            help="where --pause-at writes the "
                                 "checkpoint")
    resilience.add_argument("--resume", metavar="PATH", default=None,
                            help="resume a checkpoint written by "
                                 "--pause-at (kernel/config flags "
                                 "are taken from the checkpoint)")
    return parser


def telemetry_from_args(args: argparse.Namespace,
                        base: TelemetryConfig | None = None,
                        ) -> TelemetryConfig:
    """Fold the CLI telemetry flags into a TelemetryConfig.

    Flags layer on top of ``base`` (the telemetry section of a loaded
    ``--config`` file), so an explicit ``--sample-interval`` in either
    place survives and ``--metrics-out`` only implies the default grid
    when neither specified one.
    """
    base = base or TelemetryConfig()
    sample_interval = args.sample_interval or base.sample_interval
    if args.metrics_out is not None and not sample_interval:
        sample_interval = DEFAULT_SAMPLE_INTERVAL
    return TelemetryConfig(
        sample_interval=sample_interval,
        histograms=base.histograms or args.metrics_out is not None,
        chrome_trace=base.chrome_trace or args.chrome_trace is not None,
        progress=base.progress or args.progress,
        progress_cycles=base.progress_cycles,
        host_profile=(base.host_profile or args.progress
                      or args.metrics_out is not None))


def make_workload(kernel: str, cores: int, size: int | None):
    """Instantiate a kernel with a sensible size argument."""
    return kernels.instantiate(kernel, cores, size)


# -- the profile subcommand --------------------------------------------------


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim profile",
        description="Run a kernel with the guest profiler and report "
                    "CPI stacks, hot basic blocks and per-PC cache-"
                    "miss attribution (docs/OBSERVABILITY.md).")
    parser.add_argument("--kernel", choices=sorted(KERNELS),
                        default="scalar-spmv", help="workload to profile")
    parser.add_argument("--cores", type=int, default=8,
                        help="number of simulated cores")
    parser.add_argument("--size", type=int, default=None,
                        help="problem size (kernel-specific default)")
    parser.add_argument("--l2-mode", choices=("shared", "private"),
                        default="shared", help="L2 sharing mode")
    parser.add_argument("--mapping", choices=policy_names(),
                        default="set-interleaving",
                        help="address-to-bank mapping policy")
    parser.add_argument("--noc-crossbar-latency", type=int, default=6,
                        dest="noc_crossbar_latency",
                        help="crossbar NoC latency in cycles")
    parser.add_argument("--mem-latency", type=int, default=100,
                        help="memory access latency in cycles")
    parser.add_argument("--vlen", type=int, default=512,
                        help="vector register length in bits")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="blocks / miss PCs shown per table")
    parser.add_argument("--per-core", action="store_true",
                        help="also print each core's CPI stack")
    parser.add_argument("--annotate", action="store_true",
                        help="print disassembly of the hottest blocks "
                             "with per-PC miss/stall markers")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable profile "
                             "document (schema "
                             "coyote-guest-profile/v1)")
    parser.add_argument("--chrome-trace", metavar="JSON", default=None,
                        help="also write a Chrome trace with the "
                             "per-core stall-class counter tracks")
    return parser


def profile_main(argv: list[str]) -> int:
    from repro.telemetry.profile_report import (
        profile_document,
        render_annotated,
        render_flat,
    )
    parser = build_profile_parser()
    args = parser.parse_args(argv)
    try:
        if args.top < 1:
            raise ValueError(f"--top must be >= 1, got {args.top}")
        for path in (args.json, args.chrome_trace):
            if path is not None:
                directory = os.path.dirname(path) or "."
                if not os.path.isdir(directory):
                    raise ValueError(
                        f"output directory does not exist: {directory}")
        config = SimulationConfig.for_cores(
            args.cores, l2_mode=args.l2_mode,
            mapping_policy=args.mapping,
            mem_latency=args.mem_latency, vlen_bits=args.vlen,
            telemetry=TelemetryConfig(
                guest_profile=True,
                chrome_trace=args.chrome_trace is not None),
            **{"noc.latency": args.noc_crossbar_latency})
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    workload = make_workload(args.kernel, args.cores, args.size)
    simulation = Simulation(config, workload.program)
    try:
        results = simulation.run()
    except KeyboardInterrupt:
        _dump_partial(simulation)
        return EXIT_INTERRUPT
    except DeadlockError as exc:
        _report_deadlock(exc)
        return EXIT_DEADLOCK
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    profile = results.guest_profile
    verified = workload.verify(simulation.memory)
    print(f"kernel               : {workload.name}")
    print(f"cores                : {args.cores}")
    print(f"cycles               : {results.cycles}")
    print(f"instructions         : {results.instructions}")
    print(f"output verified      : {verified}")
    print()
    print(render_flat(profile, top=args.top, per_core=args.per_core))
    totals = translator_totals(simulation.orchestrator.translators)
    if totals is not None:
        print()
        print(f"translator           : {totals['blocks_compiled']} blocks "
              f"compiled, {totals['factory_hits']} served by the "
              f"factory cache")
        print("block enders         : " + (", ".join(
            f"{mnemonic} {count}"
            for mnemonic, count in totals["enders"].items()) or "none"))
    if args.annotate:
        print()
        print(render_annotated(profile, top=args.top))
    if args.chrome_trace is not None:
        path = simulation.write_chrome_trace(args.chrome_trace)
        print(f"chrome trace written : {path}")
    if args.json is not None:
        document = profile_document(profile, kernel=workload.name,
                                    cores=args.cores, verified=verified)
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"profile written      : {args.json}")

    ok = verified and results.succeeded()
    if not ok:
        _report_failure(workload, results)
    return EXIT_OK if ok else EXIT_VERIFY


# -- the serve / jobs subcommands (durable campaign service) -----------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim serve",
        description="Run the durable campaign service: execute queued "
                    "sweep points under leases, serve overlapping "
                    "points from the result cache, survive being "
                    "killed at any instant (docs/RESILIENCE.md).")
    parser.add_argument("--root", metavar="DIR", required=True,
                        help="service root directory (journal, inbox, "
                             "result cache)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="concurrent worker processes")
    parser.add_argument("--lease-seconds", type=float, default=30.0,
                        metavar="S",
                        help="wall-clock lease per claimed point; a "
                             "worker silent this long is reclaimed")
    parser.add_argument("--max-queue", type=int, default=4096,
                        metavar="N",
                        help="bound on outstanding points; beyond it "
                             "submissions are rejected, not queued")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="re-run a crashed/expired point up to N "
                             "times before quarantining it")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="retry-backoff jitter seed")
    parser.add_argument("--drain", action="store_true",
                        help="exit once the queue and inbox are empty "
                             "instead of serving forever")
    parser.add_argument("--poll-seconds", type=float, default=0.2,
                        metavar="S",
                        help="idle inbox/queue poll interval")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="stop serving after this long (testing)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every journal append (survives "
                             "host power loss, not just process kills)")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="logging verbosity")
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.resilience.locking import CampaignLockError
    from repro.resilience.supervisor import RetryPolicy
    from repro.service.service import CampaignService
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        service = CampaignService(
            args.root, workers=args.workers,
            max_queue=args.max_queue,
            lease_seconds=args.lease_seconds,
            retry=RetryPolicy(max_attempts=args.max_retries + 1),
            seed=args.seed, fsync=args.fsync)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with service:
            return service.serve(poll_seconds=args.poll_seconds,
                                 drain=args.drain,
                                 max_seconds=args.max_seconds)
    except CampaignLockError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


# -- the cluster subcommand (multi-node campaign tier) -----------------------


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim cluster",
        description="Run the multi-node campaign tier: a dispatcher "
                    "granting fenced leases to node executors over the "
                    "shared-filesystem transport, with dead-node "
                    "rebalancing and graceful cluster-to-local "
                    "degradation (docs/RESILIENCE.md).")
    parser.add_argument("--root", metavar="DIR", required=True,
                        help="cluster root directory (journal, inbox, "
                             "result cache, transport mailboxes)")
    role = parser.add_argument_group(
        "role", "default: dispatcher (owns the journal and grants "
                "leases); --node joins an existing cluster root as an "
                "executor")
    role.add_argument("--node", action="store_true",
                      help="run a node executor instead of the "
                           "dispatcher")
    role.add_argument("--node-id", default=None, metavar="ID",
                      help="node identity (default: host- and "
                           "pid-qualified, collision-resistant)")
    parser.add_argument("--nodes", type=int, default=2, metavar="N",
                        help="node executor subprocesses the dispatcher "
                             "launches itself (0 = rely on externally "
                             "joined --node processes)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes per node (and the "
                             "dispatcher's own pool if it degrades to "
                             "local execution)")
    parser.add_argument("--fence", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="enforce fencing tokens on every node "
                             "write; --no-fence demonstrates the "
                             "unsafe at-least-once legacy behaviour")
    parser.add_argument("--fault-plan", metavar="PLAN.json", default=None,
                        help="seeded service-fault plan injected into "
                             "the transport (drop/delay/duplicate/"
                             "partition; see "
                             "examples/service_fault_plan.json)")
    parser.add_argument("--lease-seconds", type=float, default=30.0,
                        metavar="S",
                        help="wall-clock lease per granted point")
    parser.add_argument("--node-deadline-seconds", type=float,
                        default=None, metavar="S",
                        help="declare a node dead after this heartbeat "
                             "silence and rebalance its leases "
                             "(default: --lease-seconds)")
    parser.add_argument("--heartbeat-seconds", type=float, default=0.5,
                        metavar="S",
                        help="node heartbeat / work-request cadence")
    parser.add_argument("--grace-seconds", type=float, default=5.0,
                        metavar="S",
                        help="how long the dispatcher waits for a "
                             "first node before degrading to local "
                             "execution")
    parser.add_argument("--max-queue", type=int, default=4096,
                        metavar="N",
                        help="bound on outstanding points; beyond it "
                             "submissions are rejected, not queued")
    parser.add_argument("--max-retries", type=int, default=2,
                        metavar="N",
                        help="re-run a crashed/lost point up to N "
                             "times before quarantining it")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="retry-backoff jitter seed")
    parser.add_argument("--drain", action="store_true",
                        help="exit once the queue and inbox are empty "
                             "instead of serving forever")
    parser.add_argument("--poll-seconds", type=float, default=0.2,
                        metavar="S",
                        help="idle poll interval")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="stop after this long (testing)")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every journal append")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="logging verbosity")
    return parser


def _node_argv(args, rank: int) -> list[str]:
    return [sys.executable, "-m", "repro.coyote.cli", "cluster",
            "--node", "--root", str(args.root),
            "--node-id", f"node-{rank}",
            "--workers", str(args.workers),
            "--heartbeat-seconds", str(args.heartbeat_seconds),
            "--log-level", args.log_level]


def _reap_children(children: list) -> None:
    """Collect launched node processes; escalate politely on stragglers."""
    for child in children:
        try:
            child.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            child.terminate()
            try:
                child.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


def cluster_main(argv: list[str]) -> int:
    from repro.resilience.locking import CampaignLockError
    from repro.resilience.supervisor import RetryPolicy
    from repro.service.cluster import ClusterDispatcher, ClusterNode
    from repro.service.transport import ServiceFaultPlan
    parser = build_cluster_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if args.node:
        try:
            node = ClusterNode(args.root, args.node_id,
                               workers=args.workers,
                               heartbeat_seconds=args.heartbeat_seconds)
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            node.run(max_seconds=args.max_seconds)
        except KeyboardInterrupt:
            return EXIT_INTERRUPT
        return EXIT_OK
    plan = None
    if args.fault_plan is not None:
        try:
            plan = ServiceFaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        dispatcher = ClusterDispatcher(
            args.root, fault_plan=plan, fence=args.fence,
            node_deadline_seconds=args.node_deadline_seconds,
            grace_seconds=args.grace_seconds,
            local_workers=args.workers,
            lease_seconds=args.lease_seconds,
            max_queue=args.max_queue,
            retry=RetryPolicy(max_attempts=args.max_retries + 1),
            seed=args.seed, fsync=args.fsync)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    children: list = []
    try:
        with dispatcher:
            for rank in range(args.nodes):
                children.append(subprocess.Popen(_node_argv(args, rank)))
            return dispatcher.serve(poll_seconds=args.poll_seconds,
                                    drain=args.drain,
                                    max_seconds=args.max_seconds)
    except CampaignLockError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        # The dispatcher's close() already told every node to shut
        # down; collect the subprocesses it launched.
        _reap_children(children)


def build_jobs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim jobs",
        description="Submit to and query the durable campaign service "
                    "(see `coyote-sim serve`).")
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="enqueue a sweep campaign; prints the job id")
    submit.add_argument("--root", metavar="DIR", required=True)
    submit.add_argument("--kernel", choices=sorted(KERNELS),
                        default="scalar-spmv", help="workload to sweep")
    submit.add_argument("--cores", type=int, default=8)
    submit.add_argument("--size", type=int, default=None)
    submit.add_argument("--axes", action="append", metavar="NAME=V1,V2",
                        default=[], required=True,
                        help="one sweep axis (repeatable)")
    submit.add_argument("--no-verify", action="store_true",
                        help="do not require workload verification")

    status = commands.add_parser(
        "status", help="print a job's queue-state summary as JSON")
    status.add_argument("--root", metavar="DIR", required=True)
    status.add_argument("job_id")

    result = commands.add_parser(
        "result", help="print a completed job's sweep table")
    result.add_argument("--root", metavar="DIR", required=True)
    result.add_argument("job_id")
    result.add_argument("--wait", action="store_true",
                        help="run the queue in this process until the "
                             "job completes (requires the service lock)")
    result.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for --wait")
    result.add_argument("--metrics", default="cycles", metavar="M1,M2",
                        help="comma-separated metrics to tabulate")
    result.add_argument("--out", metavar="JSON", default=None,
                        help="write the canonical table "
                             "(SweepTable.to_dict) as JSON")

    cancel = commands.add_parser(
        "cancel", help="cancel a job's remaining points")
    cancel.add_argument("--root", metavar="DIR", required=True)
    cancel.add_argument("job_id")

    listing = commands.add_parser(
        "list", help="list every job the service knows, oldest first")
    listing.add_argument("--root", metavar="DIR", required=True)
    listing.add_argument("--status", default=None,
                         choices=("active", "complete", "cancelled"),
                         help="only jobs in this phase (active = "
                              "execution still outstanding)")
    listing.add_argument("--json", action="store_true",
                         help="print a JSON array of job-status "
                              "objects instead of the text table")
    return parser


def _job_phase(summary) -> str:
    """Collapse a JobStatus into the list-filter phases."""
    if summary.state == "cancelled":
        return "cancelled"
    return "complete" if summary.complete else "active"


def jobs_main(argv: list[str]) -> int:
    from repro import api
    from repro.resilience.checkpoint import CampaignCorruptError
    from repro.resilience.locking import CampaignLockError
    from repro.service.service import readonly_store
    parser = build_jobs_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "submit":
            axes = parse_axes(args.axes)
            job_id = api.submit(args.kernel, root=args.root, axes=axes,
                                cores=args.cores, size=args.size,
                                require_verified=not args.no_verify)
            print(job_id)
            return EXIT_OK
        if args.command == "status":
            print(json.dumps(api.status(args.job_id,
                                        root=args.root).to_dict(),
                             indent=1))
            return EXIT_OK
        if args.command == "result":
            metrics = tuple(name.strip()
                            for name in args.metrics.split(",")
                            if name.strip())
            table = api.result(args.job_id, root=args.root,
                               wait=args.wait, workers=args.workers)
            print(table.to_text(metrics=metrics))
            if args.out is not None:
                with open(args.out, "w") as handle:
                    json.dump(table.to_dict(metrics=metrics), handle,
                              indent=1)
                    handle.write("\n")
                print(f"table written        : {args.out}")
            return sweep_exit_code(table)
        if args.command == "cancel":
            print(json.dumps(api.cancel(args.job_id,
                                        root=args.root).to_dict(),
                             indent=1))
            return EXIT_OK
        if args.command == "list":
            store = readonly_store(args.root)
            summaries = [store.status(job_id)
                         for job_id in store.jobs_in_order()]
            if args.status is not None:
                summaries = [summary for summary in summaries
                             if _job_phase(summary) == args.status]
            if args.json:
                print(json.dumps([summary.to_dict()
                                  for summary in summaries], indent=1))
                return EXIT_OK
            for summary in summaries:
                print(f"{summary.job_id}  {summary.state:<9} "
                      f"{summary.done}/{summary.total} done, "
                      f"{summary.pending} pending, "
                      f"{summary.leased} leased, "
                      f"{summary.quarantined} quarantined")
            return EXIT_OK
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except (CampaignCorruptError, CampaignLockError,
            SimulationError) as exc:
        print(f"service error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError(f"unhandled jobs command {args.command!r}")


# -- the sweep subcommand ----------------------------------------------------


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim sweep",
        description="Run a cartesian design-space sweep, optionally "
                    "fanned out to a pool of worker processes.")
    parser.add_argument("--kernel", choices=sorted(KERNELS),
                        default="scalar-spmv", help="workload to sweep")
    parser.add_argument("--cores", type=int, default=8,
                        help="number of simulated cores per point")
    parser.add_argument("--size", type=int, default=None,
                        help="problem size (kernel-specific default)")
    parser.add_argument("--axes", action="append", metavar="NAME=V1,V2",
                        default=[], required=True,
                        help="one sweep axis (repeatable): a config "
                             "field name and its comma-separated values")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (1 = in-process)")
    parser.add_argument("--on-error", choices=("raise", "skip"),
                        default="skip",
                        help="campaign failure policy (default: skip — "
                             "record the point and carry on)")
    parser.add_argument("--metrics", default="cycles",
                        metavar="M1,M2",
                        help="comma-separated result metrics to tabulate")
    parser.add_argument("--out", metavar="JSON", default=None,
                        help="write the canonical table "
                             "(SweepTable.to_dict) plus the campaign "
                             "aggregate as JSON")
    parser.add_argument("--campaign", metavar="DIR", default=None,
                        help="campaign directory: every settled point "
                             "is kept here and a restarted or repeated "
                             "sweep is served from it")
    parser.add_argument("--progress", action="store_true",
                        help="stream k/n-points progress with ETA "
                             "through the telemetry logger")
    parser.add_argument("--best", metavar="METRIC", default=None,
                        help="also print the best point under this "
                             "metric (minimised)")
    supervisor = parser.add_argument_group(
        "supervision",
        "any of these flags runs every point under the supervised "
        "lifecycle (heartbeats, reaping, retries, quarantine — see "
        "docs/RESILIENCE.md)")
    supervisor.add_argument("--point-timeout", type=float, default=None,
                            metavar="SECONDS",
                            help="wall-clock budget per point attempt; "
                                 "an overrunning worker is reaped "
                                 "(SIGTERM, then SIGKILL)")
    supervisor.add_argument("--heartbeat-interval", type=float,
                            default=None, metavar="SECONDS",
                            help="worker heartbeat cadence; a worker "
                                 "silent for 5 intervals is reaped")
    supervisor.add_argument("--max-retries", type=int, default=0,
                            metavar="N",
                            help="re-dispatch a crashed/reaped point up "
                                 "to N times (exponential backoff with "
                                 "seeded jitter) before quarantining it")
    supervisor.add_argument("--max-rss-mb", type=float, default=None,
                            metavar="MB",
                            help="per-worker RSS ceiling; a worker "
                                 "reporting more is reaped")
    supervisor.add_argument("--chrome-trace", metavar="JSON",
                            default=None,
                            help="write the supervisor's per-attempt "
                                 "spans as a Chrome trace-event file")
    return parser


def supervisor_policy_from_args(args: argparse.Namespace):
    """The SupervisorPolicy the sweep flags describe (None = legacy)."""
    from repro.resilience.supervisor import RetryPolicy, SupervisorPolicy
    if (args.point_timeout is None and args.heartbeat_interval is None
            and args.max_rss_mb is None and not args.max_retries):
        return None
    return SupervisorPolicy(
        point_timeout_seconds=args.point_timeout,
        heartbeat_interval_seconds=args.heartbeat_interval or 0.0,
        max_rss_mb=args.max_rss_mb,
        retry=RetryPolicy(max_attempts=args.max_retries + 1))


def parse_axis_token(token: str):
    """One axis value: int, float, bool, or plain string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            continue
    return token


def parse_axes(specs: list[str]) -> dict[str, list]:
    """``["l2_mode=shared,private", "noc.latency=2,6"]`` -> axes dict."""
    axes: dict[str, list] = {}
    for spec in specs:
        name, separator, values = spec.partition("=")
        name = name.strip()
        if not separator or not name or not values:
            raise ValueError(
                f"bad axis {spec!r} (expected NAME=VALUE[,VALUE...])")
        if name in axes:
            raise ValueError(f"duplicate axis {name!r}")
        tokens = [token.strip() for token in values.split(",")]
        if not all(tokens) or any("=" in token for token in tokens):
            raise ValueError(
                f"bad axis {spec!r} (expected NAME=VALUE[,VALUE...])")
        axes[name] = [parse_axis_token(token) for token in tokens]
    return axes


def sweep_exit_code(table) -> int:
    """The taxonomy code of a finished campaign.

    Quarantined points are the supervisor doing its job — the campaign
    terminated with the poison points isolated and recorded — so under
    ``on_error="skip"`` they do not fail the exit code; any *other*
    failure still does.
    """
    from repro.resilience.supervisor import QuarantinedPoint
    hard = [error for _settings, error in table.failures()
            if not isinstance(error, QuarantinedPoint)]
    return EXIT_OK if not hard else EXIT_FAILURE


def sweep_main(argv: list[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    from repro.coyote.parallel import ParallelSweep
    from repro.resilience.checkpoint import CheckpointError
    if args.progress:
        logging.basicConfig(
            level=logging.INFO,
            format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        axes = parse_axes(args.axes)
        sweep = Sweep(base_cores=args.cores, axes=axes)
        policy = supervisor_policy_from_args(args)
        for path in (args.out, args.chrome_trace):
            if path is not None:
                directory = os.path.dirname(path) or "."
                if not os.path.isdir(directory):
                    raise ValueError(
                        f"output directory does not exist: {directory}")
        engine = ParallelSweep(sweep, workers=args.workers,
                               on_error=args.on_error,
                               progress=args.progress,
                               campaign_path=args.campaign, policy=policy)
    except (ValueError, CheckpointError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    kernel, cores, size = args.kernel, args.cores, args.size

    def factory():
        return make_workload(kernel, cores, size)

    metrics = tuple(name.strip() for name in args.metrics.split(",")
                    if name.strip())
    try:
        table = engine.run(factory)
    except KeyboardInterrupt:
        # The engine drained its pool; every point that settled before
        # the interrupt is already in the campaign directory.
        print("interrupted", file=sys.stderr)
        if args.campaign is not None:
            print(f"  campaign directory: {args.campaign} "
                  f"(rerun with --campaign to warm-start)",
                  file=sys.stderr)
        return EXIT_INTERRUPT
    except (ValueError, DeadlockError, SimulationError) as exc:
        print(f"sweep failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return (EXIT_DEADLOCK if isinstance(exc, DeadlockError)
                else EXIT_FAILURE)
    print(table.to_text(metrics=metrics))
    aggregate = table.aggregate(metrics)
    print(f"\npoints               : {aggregate['points']} "
          f"({aggregate['failed']} failed)")
    print(f"workers              : {table.workers}")
    print(f"campaign wall time   : {table.wall_seconds:.2f} s")
    counters = engine.monitor.counters
    if args.campaign is not None:
        print(f"campaign directory   : {counters['cache_hits']} of "
              f"{aggregate['points']} points were cache hits "
              f"({args.campaign})")
    if policy is not None:
        print(f"supervisor           : {counters['attempts']} attempts, "
              f"{counters['retries']} retries, "
              f"{counters['quarantined']} quarantined")
    for event in table.degradations:
        print(f"pool degraded        : {event.from_workers} -> "
              f"{event.to_workers or 'in-process'} workers "
              f"({event.reason})", file=sys.stderr)
    if args.best is not None and aggregate["succeeded"]:
        best = table.best(args.best)
        print(f"best {args.best:<15}: {best.settings} "
              f"({best.metric(args.best):g})")
    for settings, error in table.failures():
        print(f"failed point {settings}: {type(error).__name__}: {error}",
              file=sys.stderr)
        tail = getattr(error, "stderr_tail", "")
        if tail:
            print(f"  worker stderr tail: {tail}", file=sys.stderr)
    if args.chrome_trace is not None:
        with open(args.chrome_trace, "w") as handle:
            json.dump(engine.monitor.chrome_trace(), handle, indent=1)
            handle.write("\n")
        print(f"chrome trace written : {args.chrome_trace}")
    if args.out is not None:
        document = table.to_dict(metrics=metrics)
        document["aggregate"] = aggregate
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"table written        : {args.out}")
    return sweep_exit_code(table)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    if argv and argv[0] == "jobs":
        return jobs_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sample_interval < 0:
        parser.error(f"--sample-interval must be >= 0, "
                     f"got {args.sample_interval}")
    if (args.pause_at is None) != (args.checkpoint_out is None):
        parser.error("--pause-at and --checkpoint-out go together")
    if args.resume is not None and args.config is not None:
        parser.error("--resume restores the checkpointed configuration; "
                     "--config cannot apply")
    for path in (args.metrics_out, args.chrome_trace,
                 args.checkpoint_out):
        if path is not None:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                parser.error(f"output directory does not exist: "
                             f"{directory}")
    if args.log_level is not None or args.progress:
        logging.basicConfig(
            level=getattr(logging, (args.log_level or "info").upper()),
            format="%(asctime)s %(name)s %(levelname)s %(message)s")

    try:
        if args.resume is not None:
            simulation, metadata = load_checkpoint(args.resume)
            kernel = metadata["kernel"]
            cores = metadata["cores"]
            size = metadata["size"]
        else:
            kernel, cores, size = args.kernel, args.cores, args.size
            if args.config is not None:
                config = SimulationConfig.load(args.config)
                if args.trace is not None:
                    config.trace_misses = True
                if args.no_translate:
                    config.translate = False
                cores = config.num_cores
            else:
                config = SimulationConfig.for_cores(
                    args.cores, l2_mode=args.l2_mode,
                    mapping_policy=args.mapping,
                    mem_latency=args.mem_latency,
                    vlen_bits=args.vlen,
                    translate=not args.no_translate,
                    trace_misses=args.trace is not None,
                    **{"noc.kind": args.noc_topology,
                       "noc.latency": args.noc_crossbar_latency,
                       "noc.routing": args.noc_routing,
                       "noc.columns": args.noc_columns,
                       "noc.router_latency": args.noc_router_latency,
                       "noc.link_latency": args.noc_link_latency,
                       "noc.link_capacity": args.noc_link_capacity,
                       "noc.wrap": args.noc_wrap})
            resilience = config.resilience
            if args.inject is not None:
                FaultPlan.load(args.inject).apply(resilience)
            if args.fault_seed is not None:
                resilience.fault_seed = args.fault_seed
            if args.watchdog is not None:
                resilience.watchdog_cycles = args.watchdog
            if args.check_invariants is not None:
                resilience.invariant_interval = args.check_invariants
            config.validate()
            telemetry = telemetry_from_args(args, config.telemetry)
            if telemetry.enabled:
                config.telemetry = telemetry
            if args.save_config is not None:
                config.save(args.save_config)
    except (ValueError, KeyError, OSError, SimulationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = time.perf_counter()
    workload = make_workload(kernel, cores, size)
    built = time.perf_counter()
    if args.resume is None:
        simulation = Simulation(config, workload.program)
    ready = time.perf_counter()

    try:
        results = simulation.run(pause_at=args.pause_at)
        finished = time.perf_counter()
    except KeyboardInterrupt:
        _dump_partial(simulation)
        return EXIT_INTERRUPT
    except DeadlockError as exc:
        _report_deadlock(exc)
        return EXIT_DEADLOCK
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    if simulation.paused:
        metadata = {"kernel": kernel, "cores": cores, "size": size}
        path = save_checkpoint(simulation, args.checkpoint_out, metadata)
        cycle = simulation.orchestrator.scheduler.current_cycle
        print(f"checkpoint written   : {path} (cycle {cycle})")
        return EXIT_OK

    print(f"kernel               : {workload.name}")
    print(f"cores                : {cores}")
    print(results.summary())
    verified = workload.verify(simulation.memory)
    print(f"output verified      : {verified}")
    injector = simulation.orchestrator.fault_injector
    if injector is not None:
        applied = ", ".join(
            f"{sample.name}={sample.value:g}"
            for sample in injector.stats.samples() if sample.value)
        print(f"faults injected      : {applied or 'none'}")
    if args.hierarchy_stats:
        print("\n-- modelled hierarchy --")
        print(results.hierarchy_report())
    if args.progress and results.host_profile is not None:
        profiler = simulation.telemetry.profiler
        print(profiler.format_report())
    if args.trace is not None:
        prv, pcf = simulation.write_trace(args.trace)
        print(f"trace written        : {prv} / {pcf}")
    if args.chrome_trace is not None:
        path = simulation.write_chrome_trace(args.chrome_trace)
        print(f"chrome trace written : {path}")
    if args.metrics_out is not None:
        document = results.to_dict()
        # Host-side like the rest of host_profile, and only here: the
        # results document itself (what campaigns cache) keeps its shape.
        # A resumed run takes its telemetry from the checkpoint, so the
        # section may not exist yet.
        host = document.setdefault("host_profile", {})
        host["translator"] = translator_totals(
            simulation.orchestrator.translators)
        # Wall seconds of this process's three phases (a resumed run
        # builds no Simulation: its middle phase is ~0).
        host["phases"] = {"kernel_build_s": built - started,
                          "simulation_build_s": ready - built,
                          "run_s": finished - ready}
        with open(args.metrics_out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"metrics written      : {args.metrics_out}")

    ok = verified and results.succeeded()
    if not ok:
        _report_failure(workload, results)
    return EXIT_OK if ok else EXIT_VERIFY


def _dump_partial(simulation) -> None:
    """Progress dump on SIGINT, so an interrupted campaign still tells
    where it was."""
    orchestrator = simulation.orchestrator
    scheduler = orchestrator.scheduler
    instructions = sum(core.instructions for core in orchestrator.cores)
    halted = sum(1 for core in orchestrator.cores if core.halted)
    print("interrupted", file=sys.stderr)
    print(f"  cycle            : {scheduler.current_cycle}",
          file=sys.stderr)
    print(f"  instructions     : {instructions}", file=sys.stderr)
    print(f"  events fired     : {scheduler.events_fired}",
          file=sys.stderr)
    print(f"  cores halted     : {halted}/{len(orchestrator.cores)}",
          file=sys.stderr)


def _report_deadlock(error: DeadlockError) -> None:
    """Summarise the watchdog's diagnostic snapshot on stderr."""
    print(f"DEADLOCK: {error}", file=sys.stderr)
    snapshot = error.snapshot
    sched = snapshot["scheduler"]
    print(f"  pending events   : {sched['pending_events']} "
          f"(next at {sched['next_event_cycle']})", file=sys.stderr)
    for core in snapshot["cores"]:
        if core["state"] in ("active", "halted"):
            continue
        print(f"  core {core['core_id']}: {core['state']} at "
              f"pc={core['pc']:#x} for {core.get('stalled_for', 0)} "
              f"cycles, busy regs {core['busy_registers']}",
              file=sys.stderr)
    for miss in snapshot["orphaned_misses"]:
        print(f"  orphaned: miss {miss['miss_id']} of core "
              f"{miss['core_id']} (registers {miss['registers']})",
              file=sys.stderr)
    noc = snapshot.get("noc", {})
    for link, depth in sorted(noc.get("busy_links", {}).items(),
                              key=lambda item: -item[1]["backlog_cycles"]):
        print(f"  congested link {link}: "
              f"{depth['backlog_cycles']} cycles of granted backlog "
              f"({depth['slots_used']} slot(s) in the last cycle)",
              file=sys.stderr)
    if noc.get("in_network"):
        print(f"  noc: {noc['in_network']} message(s) still in the "
              f"network after {noc.get('queue_cycles', 0)} total "
              f"queued cycles", file=sys.stderr)


def _report_failure(workload, results) -> None:
    """Explain a nonzero exit on stderr (which cores / what mismatched)."""
    print(f"FAILED: kernel {workload.name!r} did not complete cleanly",
          file=sys.stderr)
    nonzero = {core: code for core, code in results.exit_codes.items()
               if code != 0}
    if nonzero:
        for core, code in sorted(nonzero.items()):
            print(f"  core {core} exited with code {code}",
                  file=sys.stderr)
    missing = sorted(set(range(results.num_cores))
                     - set(results.exit_codes))
    if missing:
        print(f"  cores {missing} never reached exit", file=sys.stderr)
    if not nonzero and not missing:
        print("  all cores exited 0 but the kernel output did not match "
              "the expected result (verify mismatch)", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
