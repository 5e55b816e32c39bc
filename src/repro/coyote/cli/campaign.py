"""The campaign commands: ``sweep``, ``jobs``, ``serve``, ``cluster``.

``sweep`` and ``jobs submit`` take one campaign group (workload, axes),
``sweep``, ``serve`` and ``cluster`` one supervision group; ``sweep`` and
``jobs result`` print through one table emitter; ``serve`` and ``cluster``
take one service group, its defaults the service constructors' own.
"""

from __future__ import annotations

import argparse
import inspect
import json
import subprocess
import sys
from dataclasses import replace

from repro import api, kernels
from repro.coyote import cli
from repro.coyote.cli import derived_flag, shared_flag
from repro.coyote.sweep import check_metric
from repro.service.service import SERVICE_POLICY, readonly_store


def campaign_flags(parser, verb: str) -> None:
    """The campaign a command describes: a workload and its axes."""
    cli.workload_flags(parser, verb)
    parser.add_argument(
        "--axes", action="append", metavar="NAME=V1,V2", required=True,
        help="one sweep axis (repeatable): a for_cores override name, "
             "e.g. l2_mode or noc.latency, and its comma-separated values")


def parse_axis_token(token: str):
    """One axis value: int, float, bool, or plain string."""
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
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


def sweep_from_args(args: argparse.Namespace) -> api.Sweep:
    """The sweep the campaign flags describe (``ValueError``: malformed
    ``--axes``, or an axis that is not a configuration path)."""
    return api.Sweep(base_cores=args.cores, axes=parse_axes(args.axes))


def table_flags(parser) -> None:
    parser.add_argument("--metrics", default="cycles", metavar="M1,M2",
                        help="comma-separated result metrics to tabulate")
    parser.add_argument("--out", metavar="JSON",
                        help="write the table (SweepTable.to_dict) as JSON")


def metrics_from_args(args: argparse.Namespace) -> tuple[str, ...]:
    """The ``--metrics`` columns; one of them, or ``--best``, naming
    nothing a table can serve is a ``SweepError`` (a ``ValueError``)."""
    metrics = tuple(name.strip() for name in args.metrics.split(",")
                    if name.strip())
    best = getattr(args, "best", None)
    for name in metrics if best is None else (*metrics, best):
        check_metric(name)
    return metrics


def sweep_exit_code(table) -> int:
    """The taxonomy code of a finished campaign.  Quarantined points are
    the supervisor doing its job (the campaign terminated with the poison
    points isolated and recorded), so they do not fail the exit code under
    ``on_error="skip"``; any *other* failure still does."""
    hard = [error for _settings, error in table.failures()
            if not isinstance(error, api.QuarantinedPoint)]
    return cli.EXIT_OK if not hard else cli.EXIT_FAILURE


def emit_table(table, args: argparse.Namespace, summarise=None) -> int:
    """Print a table under ``--metrics``, then what ``summarise(metrics)``
    prints, write ``--out`` (plus what that returned); the exit code."""
    metrics = metrics_from_args(args)
    print(table.to_text(metrics=metrics))
    extra = summarise(metrics) if summarise is not None else {}
    if args.out is not None:
        cli.write_json(args.out, {**table.to_dict(metrics=metrics), **extra})
        print(f"table written        : {args.out}")
    return sweep_exit_code(table)


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = cli.command_parser("sweep")
    campaign_flags(parser, "sweep")
    shared_flag(parser, "--workers", help="worker processes (1 = in-process)")
    parser.add_argument(
        "--on-error", choices=("raise", "skip"), default="skip",
        help="failure policy (default: skip — record the point, carry on)")
    table_flags(parser)
    parser.add_argument(
        "--campaign", metavar="DIR", help="campaign directory: every settled "
        "point is kept here, a restarted or repeated sweep served from it")
    shared_flag(parser, "--progress", help="stream k/n-points progress "
                "with ETA through the telemetry logger")
    parser.add_argument(
        "--best", metavar="METRIC",
        help="also print the best point under this metric (minimised)")
    shared_flag(supervision_flags(parser), "--chrome-trace", help="write "
                "the supervisor's per-attempt spans as a Chrome trace file")
    return parser


def supervision_flags(parser):
    """The supervision group ``sweep``, ``serve`` and ``cluster`` share."""
    group = parser.add_argument_group(
        "supervision", "heartbeats, reaping, retries, quarantine (see "
        "docs/RESILIENCE.md): a sweep given none of these is unsupervised; "
        "each replaces one field of serve's and cluster's policy (a death "
        "retried twice, no deadline), and cluster grants carry it to nodes")
    group.add_argument(
        "--point-timeout", type=float, metavar="SECONDS", help="wall-clock "
        "budget per point attempt; an overrunning worker is reaped")
    group.add_argument(
        "--heartbeat-interval", type=float, metavar="SECONDS", help="worker "
        "heartbeat cadence; a worker silent for 5 intervals is reaped")
    group.add_argument(
        "--max-retries", type=int, metavar="N", help="re-run a crashed, "
        "reaped, expired or lost point up to N times (seeded exponential "
        "backoff), then quarantine it; 0 with no deadline supervises "
        "nothing: a death is then a WorkerCrash on every command")
    group.add_argument(
        "--max-rss-mb", type=float, metavar="MB",
        help="per-worker RSS ceiling; a worker reporting more is reaped")
    return group


def policy_from_args(args: argparse.Namespace, base=None):
    """``base`` (``None``: unsupervised) with each supervision flag given
    replacing its field; ``--max-retries N`` sets ``N + 1`` attempts."""
    policy = base or api.SupervisorPolicy()
    given = {field: value for field, value in (
        ("point_timeout_seconds", args.point_timeout),
        ("heartbeat_interval_seconds", args.heartbeat_interval),
        ("max_rss_mb", args.max_rss_mb)) if value is not None}
    if args.max_retries is not None:
        given["retry"] = replace(policy.retry,
                                 max_attempts=args.max_retries + 1)
    return replace(policy, **given) if given else base


def sweep_main(argv: list[str]) -> int:
    args = build_sweep_parser().parse_args(argv)
    if args.progress:
        cli.setup_logging("info")
    try:
        sweep = sweep_from_args(args)
        metrics_from_args(args)
        policy = policy_from_args(args)
        cli.check_output_dirs(args.out, args.chrome_trace)
        engine = api.ParallelSweep(
            sweep, workers=args.workers, on_error=args.on_error,
            progress=args.progress, campaign_path=args.campaign,
            policy=policy)
    except (ValueError, api.CheckpointError) as exc:
        return cli.config_error(exc)
    try:
        table = engine.run(kernels.workload_factory(
            args.kernel, args.cores, args.size))
    except KeyboardInterrupt:
        # The engine drained its pool; every point that settled before
        # the interrupt is already in the campaign directory.
        cli.complain("interrupted")
        if args.campaign is not None:
            cli.complain(f"  campaign directory: {args.campaign} "
                         f"(rerun with --campaign to warm-start)")
        return cli.EXIT_INTERRUPT
    except (ValueError, api.SimulationError) as exc:
        cli.complain(f"sweep failed: {type(exc).__name__}: {exc}")
        return (cli.EXIT_DEADLOCK if isinstance(exc, api.DeadlockError)
                else cli.EXIT_FAILURE)

    def summarise(metrics) -> dict:
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
        if engine.policy.supervised:
            print(f"supervisor           : {counters['attempts']} "
                  f"attempts, {counters['retries']} retries, "
                  f"{counters['quarantined']} quarantined")
        for event in table.degradations:
            cli.complain(f"pool degraded        : {event.from_workers} -> "
                         f"{event.to_workers or 'in-process'} workers "
                         f"({event.reason})")
        if args.best is not None and aggregate["succeeded"]:
            best = table.best(args.best)
            print(f"best {args.best:<15}: {best.settings} "
                  f"({best.metric(args.best):g})")
        for settings, error in table.failures():
            cli.complain(
                f"failed point {settings}: {type(error).__name__}: {error}")
            tail = getattr(error, "stderr_tail", "")
            if tail:
                cli.complain(f"  worker stderr tail: {tail}")
        if args.chrome_trace is not None:
            cli.write_json(args.chrome_trace, engine.monitor.chrome_trace())
            print(f"chrome trace written : {args.chrome_trace}")
        return {"aggregate": aggregate}

    try:
        return emit_table(table, args, summarise)
    except api.SweepError as exc:   # a counter this hierarchy lacks
        return cli.config_error(exc)


def build_jobs_parser() -> argparse.ArgumentParser:
    parser = cli.command_parser("jobs")
    commands = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, summary in (
            ("submit", "enqueue a sweep campaign; prints the job id"),
            ("status", "print a job's queue-state summary as JSON"),
            ("result", "print a completed job's sweep table"),
            ("cancel", "cancel a job's remaining points"),
            ("list", "list every job the service knows, oldest first")):
        subparsers[name] = commands.add_parser(name, help=summary)
        shared_flag(subparsers[name], "--root", help="service root directory")
        if name in ("status", "result", "cancel"):
            subparsers[name].add_argument("job_id")
    campaign_flags(subparsers["submit"], "sweep")
    subparsers["submit"].add_argument("--no-verify", action="store_true",
                                      help="do not require verification")
    result = subparsers["result"]
    result.add_argument("--wait", action="store_true", help="run the queue "
                        "here until the job completes (needs the root's lock)")
    shared_flag(result, "--workers", help="worker processes for --wait")
    table_flags(result)
    subparsers["list"].add_argument(
        "--status", choices=("active", "complete", "cancelled"),
        help="only jobs in this phase (active = execution outstanding)")
    subparsers["list"].add_argument(
        "--json", action="store_true",
        help="print a JSON array of job-status objects, not the text table")
    return parser


def _job_phase(summary) -> str:
    """Collapse a JobStatus into the ``jobs list --status`` phases."""
    return ("cancelled" if summary.state == "cancelled"
            else "complete" if summary.complete else "active")


def jobs_main(argv: list[str]) -> int:
    args = build_jobs_parser().parse_args(argv)
    try:
        if args.command == "submit":
            print(api.submit(args.kernel, root=args.root,
                             axes=sweep_from_args(args).axes,
                             cores=args.cores, size=args.size,
                             require_verified=not args.no_verify))
        elif args.command in ("status", "cancel"):
            summary = getattr(api, args.command)(args.job_id, root=args.root)
            print(json.dumps(summary.to_dict(), indent=1))
        elif args.command == "result":
            return emit_table(
                api.result(args.job_id, root=args.root, wait=args.wait,
                           workers=args.workers), args)
        else:
            store = readonly_store(args.root)
            summaries = [store.status(job_id) for job_id in store.jobs]
            if args.status is not None:
                summaries = [summary for summary in summaries
                             if _job_phase(summary) == args.status]
            if args.json:
                print(json.dumps([summary.to_dict()
                                  for summary in summaries], indent=1))
                return cli.EXIT_OK
            for summary in summaries:
                print(f"{summary.job_id}  {summary.state:<9} "
                      f"{summary.done}/{summary.total} done, "
                      f"{summary.pending} pending, "
                      f"{summary.leased} leased, "
                      f"{summary.quarantined} quarantined")
        return cli.EXIT_OK
    except ValueError as exc:
        return cli.config_error(exc)
    except KeyboardInterrupt:
        cli.complain("interrupted")
        return cli.EXIT_INTERRUPT
    except api.SimulationError as exc:
        cli.complain(f"service error: {type(exc).__name__}: {exc}")
        return cli.EXIT_FAILURE


def _defaults(function) -> dict:
    """Parameter -> default: what a service flag not given passes on."""
    return {name: parameter.default for name, parameter
            in inspect.signature(function).parameters.items()}


def service_flags(parser, what: str) -> None:
    """The flags ``serve`` and ``cluster`` share."""
    service = _defaults(api.CampaignService.__init__)
    serve = _defaults(api.CampaignService.serve)
    shared_flag(parser, "--root",
                help=f"{what} root directory (journal, inbox, result cache)")
    shared_flag(parser, "--workers", default=service["workers"],
                help="concurrent worker processes (`cluster`: per node, and "
                     "the dispatcher's own if it degrades to local execution)")
    derived_flag(parser, "--lease-seconds", service["lease_seconds"],
                 "wall-clock lease per claimed point; a worker silent "
                 "this long is reclaimed", metavar="S")
    derived_flag(parser, "--max-queue", service["max_queue"],
                 "bound on outstanding points; beyond it submissions are "
                 "rejected, not queued", metavar="N")
    supervision_flags(parser)
    derived_flag(parser, "--seed", api.SupervisorPolicy.seed,
                 "retry-backoff jitter seed", metavar="N")
    derived_flag(parser, "--drain", serve["drain"], "exit once the queue "
                 "and inbox are empty instead of serving forever")
    derived_flag(parser, "--poll-seconds", serve["poll_seconds"],
                 "idle inbox/queue poll interval", metavar="S")
    parser.add_argument("--max-seconds", type=float, metavar="S",
                        default=serve["max_seconds"],
                        help="stop serving after this long (testing)")
    derived_flag(parser, "--fsync", service["fsync"], "fsync every journal "
                 "append (survives host power loss, not just process kills)")
    shared_flag(parser, "--log-level", default="info")


def _service_arguments(args: argparse.Namespace) -> dict:
    """The constructor arguments the service flags set (workers aside:
    the two tiers name it differently)."""
    return dict(max_queue=args.max_queue, lease_seconds=args.lease_seconds,
                policy=policy_from_args(args, replace(SERVICE_POLICY,
                                                      seed=args.seed)),
                fsync=args.fsync)


def _serve(build, args: argparse.Namespace, node_commands=()) -> int:
    """Build a service (refusal: a configuration error, root untouched),
    serve under its lock beside the node processes it launches."""
    try:
        service = build()
    except (OSError, ValueError) as exc:
        return cli.config_error(exc)
    children: list = []
    try:
        with service:
            children += map(subprocess.Popen, node_commands)
            return service.serve(
                poll_seconds=args.poll_seconds, drain=args.drain,
                max_seconds=args.max_seconds)
    except api.SimulationError as exc:
        cli.complain(f"service error: {exc}")
        return (cli.EXIT_CONFIG if isinstance(exc, api.CampaignLockError)
                else cli.EXIT_FAILURE)
    finally:
        # close() already told every node to shut down; collect the
        # subprocesses launched here, escalating politely on stragglers.
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


def build_serve_parser() -> argparse.ArgumentParser:
    parser = cli.command_parser("serve")
    service_flags(parser, "service")
    return parser


def serve_main(argv: list[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    cli.setup_logging(args.log_level)
    return _serve(lambda: api.CampaignService(
        args.root, workers=args.workers, **_service_arguments(args)), args)


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = cli.command_parser("cluster")
    dispatcher = _defaults(api.ClusterDispatcher.__init__)
    service_flags(parser, "cluster")
    role = parser.add_argument_group(
        "role", "default: dispatcher (owns the journal and grants leases); "
        "--node joins an existing cluster root as an executor")
    role.add_argument("--node", action="store_true",
                      help="run a node executor instead of the dispatcher")
    role.add_argument(
        "--node-id", metavar="ID",
        help="node identity (default: host- and pid-qualified)")
    parser.add_argument(
        "--nodes", type=int, default=2, metavar="N", help="node subprocesses "
        "the dispatcher launches itself (0 = only externally joined --node)")
    parser.add_argument(
        "--fault-plan", metavar="PLAN.json",
        help="seeded service-fault plan injected into the transport (drop/"
             "delay/duplicate/partition: examples/service_fault_plan.json)")
    parser.add_argument(
        "--node-deadline-seconds", type=float, metavar="S",
        default=dispatcher["node_deadline_seconds"],
        help="declare a node dead after this heartbeat silence and "
             "rebalance its leases (default: --lease-seconds)")
    derived_flag(parser, "--heartbeat-seconds",
                 _defaults(api.ClusterNode.__init__)["heartbeat_seconds"],
                 "node-to-dispatcher heartbeat and work-request cadence "
                 "(--heartbeat-interval is a worker's)", metavar="S")
    derived_flag(parser, "--grace-seconds", dispatcher["grace_seconds"],
                 "how long the dispatcher waits for a first node before "
                 "degrading to local execution", metavar="S")
    return parser


def cluster_main(argv: list[str]) -> int:
    args = build_cluster_parser().parse_args(argv)
    cli.setup_logging(args.log_level)
    if args.node:
        try:
            node = api.ClusterNode(
                args.root, args.node_id, workers=args.workers,
                heartbeat_seconds=args.heartbeat_seconds)
        except ValueError as exc:
            return cli.config_error(exc)
        try:
            node.run(max_seconds=args.max_seconds)
        except KeyboardInterrupt:
            return cli.EXIT_INTERRUPT
        return cli.EXIT_OK

    def build():
        plan = (None if args.fault_plan is None
                else api.ServiceFaultPlan.load(args.fault_plan))
        return api.ClusterDispatcher(
            args.root, fault_plan=plan,
            node_deadline_seconds=args.node_deadline_seconds,
            grace_seconds=args.grace_seconds, local_workers=args.workers,
            **_service_arguments(args))

    return _serve(build, args, [
        [sys.executable, "-m", "repro.coyote.cli", "cluster", "--node",
         "--root", str(args.root), "--node-id", f"node-{rank}",
         "--workers", str(args.workers),
         "--heartbeat-seconds", str(args.heartbeat_seconds),
         "--log-level", args.log_level]
        for rank in range(args.nodes)])
