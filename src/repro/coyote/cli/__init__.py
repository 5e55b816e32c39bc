"""Command-line front end: ``coyote-sim``.

Run a named kernel under the full Coyote model and print the statistics
the paper lists as simulation outputs.  Example::

    coyote-sim --kernel scalar-spmv --cores 8 --l2-mode private \\
               --mapping page-to-bank --trace /tmp/spmv

Design-space campaigns run through the subcommands ``coyote-sim --help``
lists, e.g. ``coyote-sim sweep --kernel scalar-matmul --cores 2 --axes
l2_mode=shared,private --axes noc.latency=2,6 --workers 4``.

Exit codes follow a fixed taxonomy so campaign scripts can triage
without parsing stderr: 0 success, 1 generic simulation failure,
2 configuration error, 3 verification failure, 4 deadlock (watchdog or
provable wedge), 130 interrupted (with a partial-progress dump).

This module is the plain run and ``profile`` (one table of config flags,
one simulation pipeline), ``main``, the command table and what every
command shares; :mod:`.campaign` holds the campaign commands and is
imported when one runs: a plain run neither imports nor compiles them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import logging
import os
import sys
import time

from repro import kernels
from repro.coyote.config import SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.simulation import Simulation
from repro.memhier.hierarchy import L2_MODES
from repro.memhier.mapping import policy_names
from repro.memhier.noc import NOC_KINDS, RoutingPolicy
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.faults import FaultPlan
from repro.resilience.watchdog import DeadlockError
from repro.spike.translate import translator_totals

EXIT_OK = 0
EXIT_FAILURE = 1          # simulation raised / did not complete cleanly
EXIT_CONFIG = 2           # bad flags, config file, or fault plan
EXIT_VERIFY = 3           # ran to completion but the output is wrong
EXIT_DEADLOCK = 4         # watchdog trip or provable forward-progress loss
EXIT_INTERRUPT = 130      # SIGINT (the shell convention: 128 + 2)

# Subcommand -> (entry function, what it does: its parser's description and
# its line under ``coyote-sim --help``); no subcommand is the plain run.
COMMANDS = {
    "profile": ("profile_main", "run a kernel with the guest profiler: CPI "
                "stacks, hot blocks, miss PCs"),
    "sweep": ("sweep_main", "run a cartesian design-space sweep, optionally "
              "on worker processes"),
    "jobs": ("jobs_main", "submit to and query the durable campaign service"),
    "serve": ("serve_main",
              "run the durable campaign service (docs/RESILIENCE.md)"),
    "cluster": ("cluster_main",
                "run the multi-node campaign tier (docs/RESILIENCE.md)"),
}

# Names :mod:`.campaign` defines that are served from here on first use.
_CAMPAIGN = ("sweep_main", "jobs_main", "serve_main", "cluster_main",
             "build_sweep_parser", "build_jobs_parser", "build_serve_parser",
             "build_cluster_parser", "parse_axes", "sweep_exit_code")


def __getattr__(name: str):
    if name in _CAMPAIGN:
        return getattr(importlib.import_module(f"{__name__}.campaign"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        return getattr(sys.modules[__name__], COMMANDS[argv[0]][0])(argv[1:])
    return run_main(argv)


def command_parser(name: str) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(prog=f"coyote-sim {name}",
                                   description=COMMANDS[name][1] + ".")


def make_workload(kernel: str, cores: int, size: int | None):
    """Instantiate a kernel with a sensible size argument."""
    return kernels.instantiate(kernel, cores, size)


def workload_flags(parser, verb: str) -> None:
    parser.add_argument("--kernel", choices=sorted(kernels.KERNELS),
                        default="scalar-spmv", help=f"workload to {verb}")
    parser.add_argument("--cores", type=int, default=8,
                        help="number of simulated cores")
    parser.add_argument("--size", type=int,
                        help="problem size (kernel-specific default)")


# Flags more than one command takes, declared once.
SHARED_FLAGS = {
    "--chrome-trace": dict(metavar="JSON"),
    "--log-level": dict(choices=("debug", "info", "warning", "error"),
                        help="logging verbosity"),
    "--progress": dict(action="store_true"),
    "--workers": dict(type=int, metavar="N", default=1),
    "--max-retries": dict(type=int, metavar="N"),
    "--root": dict(metavar="DIR", required=True),
}


def shared_flag(parser, flag: str, **overrides) -> None:
    parser.add_argument(flag, **{**SHARED_FLAGS[flag], **overrides})


def derived_flag(parser, flag: str, value, help: str, default=None,
                 **valued) -> None:
    """Add a flag whose kind is read off ``value``, the default of the field
    or parameter it sets: a boolean makes a switch, anything else an option
    of that type (``valued``: metavar, choices).  ``default``: as parsed."""
    default = value if default is None else default
    if isinstance(value, bool):
        parser.add_argument(flag, action="store_true", default=default,
                            help=help)
    else:
        parser.add_argument(
            flag, type=None if isinstance(value, str) else type(value),
            default=default, help=f"{help} (default: {value})", **valued)


def setup_logging(level: str) -> None:
    logging.basicConfig(
        level=getattr(logging, level.upper()),
        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def check_output_dirs(*paths: str | None) -> None:
    """Refuse, before anything runs, an output file with no directory."""
    for path in paths:
        directory = os.path.dirname(path or "") or "."
        if not os.path.isdir(directory):
            raise ValueError(f"output directory does not exist: {directory}")


def complain(*lines: str) -> None:
    print(*lines, sep="\n", file=sys.stderr)


def config_error(error: Exception) -> int:
    complain(f"configuration error: {error}")
    return EXIT_CONFIG


def write_json(path: str, document) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


DEFAULT_SAMPLE_INTERVAL = 1000

# Flag -> (the config_paths() name it sets, help): the one place to add a
# flag that sets one field.  Type and default are the field's, the help
# group the path's section; a switch flips a boolean away from its default.
CONFIG_FLAGS = {
    "--l2-mode": ("l2_mode", "L2 sharing mode"),
    "--mapping": ("mapping_policy", "address-to-bank mapping policy"),
    "--noc-topology": ("noc.kind", "interconnect model (mesh/torus enable "
                       "the contention model)"),
    "--noc-routing": ("noc.routing", "mesh/torus routing policy"),
    "--noc-columns": ("noc.columns", "mesh/torus grid width in routers"),
    "--noc-router-latency": ("noc.router_latency",
                             "cycles through each mesh/torus router"),
    "--noc-link-latency": ("noc.link_latency",
                           "cycles on each router-to-router link"),
    "--noc-link-capacity": ("noc.link_capacity",
                            "flit-bursts one link carries per cycle"),
    "--noc-wrap": ("noc.wrap", "wrap-around links on a mesh (implied by "
                   "--noc-topology torus)"),
    "--noc-crossbar-latency": ("noc.latency",
                               "crossbar NoC latency in cycles"),
    "--mem-latency": ("mem_latency", "memory access latency in cycles"),
    "--vlen": ("vlen_bits", "vector register length in bits"),
    "--no-translate": (
        "translate", "run the plain interpreter, not the trace-compiled fast "
        "path (identical outcomes; trades host speed for debuggability)"),
    "--sample-interval": (
        "telemetry.sample_interval", "cycles between interval samples, 0 = "
        f"off (--metrics-out implies {DEFAULT_SAMPLE_INTERVAL})"),
    "--fault-seed": ("resilience.fault_seed", "fault-injection PRNG seed "
                     "(overrides the plan's seed)"),
    "--watchdog": ("resilience.watchdog_cycles",
                   "forward-progress watchdog window in cycles, 0 = off"),
    "--check-invariants": ("resilience.invariant_interval", "run "
                           "conservation checks every N cycles, 0 = off"),
}

# Path -> the constant its field's ``validate()`` checks against.
CHOICES = {"l2_mode": L2_MODES, "mapping_policy": policy_names(),
           "noc.kind": NOC_KINDS,
           "noc.routing": [policy.value for policy in RoutingPolicy]}

_DEFAULTS = SimulationConfig()


def config_flags(parser: argparse.ArgumentParser) -> dict:
    """Add every :data:`CONFIG_FLAGS` row (absent from the namespace
    unless given); returns the argument groups made, by section."""
    groups = {"": parser}
    for flag, (path, help) in CONFIG_FLAGS.items():
        section = path.rpartition(".")[0]
        if section not in groups:
            groups[section] = parser.add_argument_group(section)
        choices = CHOICES.get(path)
        derived_flag(groups[section], flag, _DEFAULTS.get(path), help,
                     default=argparse.SUPPRESS, choices=choices,
                     metavar=None if choices else "N")
    return groups


def config_overrides(args: argparse.Namespace) -> dict:
    """``{path: value}`` for the config flags actually given — what
    ``for_cores`` and ``with_overrides`` take."""
    overrides = {}
    for flag, (path, _help) in CONFIG_FLAGS.items():
        value = vars(args).get(flag[2:].replace("-", "_"))
        if value is not None:
            overrides[path] = (not _DEFAULTS.get(path) if value is True
                               else value)
    return overrides


def simulate(prepare, report, *, pause_at: int | None = None,
             checkpoint_out: str | None = None) -> int:
    """config -> workload -> ``Simulation`` -> run -> verify -> report, and
    the one mapping from what can go wrong to an exit code (anything refused
    before the simulation exists is a configuration error).  ``prepare()``
    returns ``(config, kernel, cores, size)``, or a restored ``Simulation``
    in place of the config; ``report(..., phases)`` prints a finished run
    (phases: wall seconds of this process's three steps; a resumed run
    builds no Simulation, so its middle one is ~0)."""
    clock = time.perf_counter
    try:
        source, kernel, cores, size = prepare()
        started = clock()
        workload = make_workload(kernel, cores, size)
        built = clock()
    except (ValueError, KeyError, OSError, SimulationError) as exc:
        return config_error(exc)
    simulation = (source if isinstance(source, Simulation)
                  else Simulation(source, workload.program))
    ready = clock()
    try:
        results = simulation.run(pause_at=pause_at)
    except KeyboardInterrupt:
        _dump_partial(simulation)
        return EXIT_INTERRUPT
    except DeadlockError as exc:
        _report_deadlock(exc)
        return EXIT_DEADLOCK
    except SimulationError as exc:
        complain(f"simulation error: {exc}")
        return EXIT_FAILURE
    finished = clock()
    if simulation.paused:
        path = save_checkpoint(simulation, checkpoint_out, {
            "kernel": kernel, "cores": cores, "size": size})
        cycle = simulation.orchestrator.scheduler.current_cycle
        print(f"checkpoint written   : {path} (cycle {cycle})")
        return EXIT_OK
    verified = workload.verify(simulation.memory)
    report(simulation, workload, results, verified, cores, {
        "kernel_build_s": built - started,
        "simulation_build_s": ready - built, "run_s": finished - ready})
    if verified and results.succeeded():
        return EXIT_OK
    _report_failure(workload, results)
    return EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coyote-sim", description="Coyote (DATE 2021 reproduction): "
        "execution-driven RISC-V HPC\nsimulation with a data-movement focus.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="subcommands (coyote-sim COMMAND --help):\n" + "\n".join(
            f"  {name:<8}{what}" for name, (_main, what) in COMMANDS.items()))
    workload_flags(parser, "simulate")
    groups = config_flags(parser)
    parser.add_argument("--trace", metavar="BASEPATH",
                        help="write a Paraver .prv/.pcf/.row miss trace")
    parser.add_argument("--hierarchy-stats", action="store_true",
                        help="also print every modelled-hierarchy counter")
    parser.add_argument(
        "--config", metavar="JSON",
        help="load a full SimulationConfig from a JSON file; config flags "
             "given beside it layer on top (its core count is the one used)")
    parser.add_argument(
        "--save-config", metavar="JSON",
        help="write the effective configuration to a JSON file and continue")
    telemetry, resilience = groups["telemetry"], groups["resilience"]
    telemetry.add_argument(
        "--metrics-out", metavar="JSON",
        help="write the full results (counters, time series, latency "
             "histograms, host profile) as a JSON document")
    shared_flag(telemetry, "--chrome-trace", help="write a Chrome trace-event "
                "JSON file (open in Perfetto / chrome://tracing)")
    shared_flag(telemetry, "--progress", help="log a periodic progress "
                "heartbeat and print the host wall-time breakdown")
    shared_flag(telemetry, "--log-level",
                help="logging verbosity (--progress implies info)")
    resilience.add_argument(
        "--inject", metavar="PLAN.json",
        help="inject faults from a JSON fault plan (docs/RESILIENCE.md)")
    resilience.add_argument(
        "--pause-at", type=int, metavar="CYCLE",
        help="pause at this cycle, write a checkpoint (--checkpoint-out) "
             "and exit (mirrors Simulation.run(pause_at=))")
    resilience.add_argument("--checkpoint-out", metavar="PATH",
                            help="where --pause-at writes the checkpoint")
    resilience.add_argument(
        "--resume", metavar="PATH",
        help="resume a checkpoint written by --pause-at (kernel and config "
             "flags are taken from the checkpoint)")
    return parser


def run_main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = config_overrides(args)
    if overrides.get("telemetry.sample_interval", 0) < 0:
        parser.error(f"--sample-interval must be >= 0, "
                     f"got {args.sample_interval}")
    if (args.pause_at is None) != (args.checkpoint_out is None):
        parser.error("--pause-at and --checkpoint-out go together")
    if args.resume is not None and args.config is not None:
        parser.error("--resume restores the checkpointed configuration; "
                     "--config cannot apply")
    try:
        check_output_dirs(args.metrics_out, args.chrome_trace,
                          args.checkpoint_out)
    except ValueError as exc:
        parser.error(str(exc))
    if args.log_level is not None or args.progress:
        setup_logging(args.log_level or "info")
    if args.trace is not None:
        overrides["trace_misses"] = True

    def prepare():
        if args.resume is not None:
            simulation, metadata = load_checkpoint(args.resume)
            return (simulation, metadata["kernel"], metadata["cores"],
                    metadata["size"])
        config = (SimulationConfig.load(args.config) if args.config
                  else SimulationConfig.for_cores(args.cores))
        if args.inject is not None:
            FaultPlan.load(args.inject).apply(config.resilience)
        # Flags layer over the file and over the fault plan's seed.
        config = config.with_overrides(**overrides)
        telemetry = config.telemetry
        if args.metrics_out is not None:
            telemetry.histograms = telemetry.host_profile = True
            telemetry.sample_interval = (telemetry.sample_interval
                                         or DEFAULT_SAMPLE_INTERVAL)
        if args.chrome_trace is not None:
            telemetry.chrome_trace = True
        if args.progress:
            telemetry.progress = telemetry.host_profile = True
        config.validate()
        if args.save_config is not None:
            config.save(args.save_config)
        return config, args.kernel, config.num_cores, args.size

    def report(simulation, workload, results, verified, cores, phases):
        print(f"kernel               : {workload.name}")
        print(f"cores                : {cores}")
        print(results.summary())
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
            print(simulation.telemetry.profiler.format_report())
        if args.trace is not None:
            prv, pcf = simulation.write_trace(args.trace)
            print(f"trace written        : {prv} / {pcf}")
        if args.chrome_trace is not None:
            path = simulation.write_chrome_trace(args.chrome_trace)
            print(f"chrome trace written : {path}")
        if args.metrics_out is not None:
            document = results.to_dict()
            # Host-side facts, added only here so that what campaigns cache
            # keeps its shape; a resumed run may have no such section yet.
            host = document.setdefault("host_profile", {})
            host["translator"] = translator_totals(
                simulation.orchestrator.translators)
            host["phases"] = phases
            write_json(args.metrics_out, document)
            print(f"metrics written      : {args.metrics_out}")

    return simulate(prepare, report, pause_at=args.pause_at,
                    checkpoint_out=args.checkpoint_out)


def build_profile_parser() -> argparse.ArgumentParser:
    parser = command_parser("profile")
    workload_flags(parser, "profile")
    config_flags(parser)
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="blocks / miss PCs shown per table")
    parser.add_argument("--per-core", action="store_true",
                        help="also print each core's CPI stack")
    parser.add_argument(
        "--annotate", action="store_true",
        help="disassemble the hottest blocks with per-PC miss/stall markers")
    parser.add_argument(
        "--json", metavar="PATH", help="write the machine-readable profile "
        "document (schema coyote-guest-profile/v1)")
    shared_flag(parser, "--chrome-trace", help="also write a Chrome trace "
                "with the per-core stall-class counter tracks")
    return parser


def profile_main(argv: list[str]) -> int:
    from repro.telemetry import profile_report
    args = build_profile_parser().parse_args(argv)

    def prepare():
        if args.top < 1:
            raise ValueError(f"--top must be >= 1, got {args.top}")
        check_output_dirs(args.json, args.chrome_trace)
        config = SimulationConfig.for_cores(
            args.cores, **config_overrides(args),
            **{"telemetry.guest_profile": True,
               "telemetry.chrome_trace": args.chrome_trace is not None})
        return config, args.kernel, args.cores, args.size

    def report(simulation, workload, results, verified, cores, _phases):
        profile = results.guest_profile
        print(f"kernel               : {workload.name}")
        print(f"cores                : {cores}")
        print(f"cycles               : {results.cycles}")
        print(f"instructions         : {results.instructions}")
        print(f"output verified      : {verified}")
        print()
        print(profile_report.render_flat(profile, top=args.top,
                                         per_core=args.per_core))
        totals = translator_totals(simulation.orchestrator.translators)
        if totals is not None:
            print()
            print(f"translator           : {totals['blocks_compiled']} "
                  f"blocks compiled in {totals['compile_seconds']:.3f} s, "
                  f"{totals['factory_hits']} served by the factory cache ("
                  + ", ".join(f"{shape} {count}" for shape, count
                              in totals["by_shape"].items())
                  + f"); {totals['invalidations']} invalidation sweeps "
                  f"dropped {totals['blocks_invalidated']} blocks")
            print("block enders         : " + (", ".join(
                f"{mnemonic} {count}"
                for mnemonic, count in totals["enders"].items()) or "none"))
            dispatch = {shape: tally for shape, tally
                        in totals.get("dispatch", {}).items()
                        if tally["dispatches"]}
            if dispatch:
                count, retired = (
                    sum(tally[name] for tally in dispatch.values())
                    for name in ("dispatches", "instructions"))
                print(f"dispatches           : {count} (" + ", ".join(
                    f"{shape} {tally['dispatches'] / count:.1%} at "
                    f"{tally['instructions'] / tally['dispatches']:.2f}"
                    for shape, tally in dispatch.items())
                    + " instructions a dispatch); interpreter steps "
                    f"{results.instructions - retired}")
        if args.annotate:
            print()
            print(profile_report.render_annotated(profile, top=args.top))
        if args.chrome_trace is not None:
            path = simulation.write_chrome_trace(args.chrome_trace)
            print(f"chrome trace written : {path}")
        if args.json is not None:
            document = profile_report.profile_document(
                profile, kernel=workload.name, cores=cores,
                verified=verified)
            if totals is not None:
                document["translator"] = totals
            write_json(args.json, document)
            print(f"profile written      : {args.json}")

    return simulate(prepare, report)


def _dump_partial(simulation) -> None:
    """On SIGINT: where the run was, so an interrupted campaign can tell."""
    cores = simulation.orchestrator.cores
    scheduler = simulation.orchestrator.scheduler
    complain(
        "interrupted",
        f"  cycle            : {scheduler.current_cycle}",
        f"  instructions     : {sum(core.instructions for core in cores)}",
        f"  events fired     : {scheduler.events_fired}",
        f"  cores halted     : "
        f"{sum(core.halted for core in cores)}/{len(cores)}")


def _report_deadlock(error: DeadlockError) -> None:
    """Summarise the watchdog's diagnostic snapshot on stderr."""
    snapshot = error.snapshot
    sched = snapshot["scheduler"]
    complain(f"DEADLOCK: {error}",
             f"  pending events   : {sched['pending_events']} "
             f"(next at {sched['next_event_cycle']})")
    for core in snapshot["cores"]:
        if core["state"] not in ("active", "halted"):
            complain(f"  core {core['core_id']}: {core['state']} at "
                     f"pc={core['pc']:#x} for {core.get('stalled_for', 0)} "
                     f"cycles, busy regs {core['busy_registers']}")
    for miss in snapshot["orphaned_misses"]:
        complain(f"  orphaned: miss {miss['miss_id']} of core "
                 f"{miss['core_id']} (registers {miss['registers']})")
    noc = snapshot.get("noc", {})
    for link, depth in sorted(noc.get("busy_links", {}).items(),
                              key=lambda item: -item[1]["backlog_cycles"]):
        complain(f"  congested link {link}: {depth['backlog_cycles']} cycles "
                 f"of granted backlog ({depth['slots_used']} slot(s) in the "
                 f"last cycle)")
    if noc.get("in_network"):
        complain(f"  noc: {noc['in_network']} message(s) still in the "
                 f"network after {noc.get('queue_cycles', 0)} total queued "
                 f"cycles")


def _report_failure(workload, results) -> None:
    """Explain a nonzero exit on stderr (which cores / what mismatched)."""
    complain(f"FAILED: kernel {workload.name!r} did not complete cleanly")
    nonzero = {core: code for core, code in results.exit_codes.items()
               if code != 0}
    for core, code in sorted(nonzero.items()):
        complain(f"  core {core} exited with code {code}")
    missing = sorted(set(range(results.num_cores))
                     - set(results.exit_codes))
    if missing:
        complain(f"  cores {missing} never reached exit")
    if not nonzero and not missing:
        complain("  all cores exited 0 but the kernel output did not match "
                 "the expected result (verify mismatch)")
