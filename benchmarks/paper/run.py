"""Regenerate EXPERIMENTS.md's numbers from the figure table.

One command, from the repository root, no flags::

    python3 benchmarks/paper/run.py                 # every figure
    python3 benchmarks/paper/run.py fig3 abl-l3     # only these

Each figure of ``figures.py`` is rendered — every point through
``repro.api.run``, output verified — and written over the block of
EXPERIMENTS.md between ``<!-- figure:ID -->`` and ``<!-- /figure:ID -->``;
the prose around the blocks is never touched.  Simulated-cycle tables are
bit-deterministic and carry no stamp (tier-1 re-renders them against the
committed document).  Host-throughput tables are timed on the end-to-end
benchmark's time base (``benchmarks/e2e/timebase.py``: reference seconds,
one untimed warm-up, ``REPS`` timed repetitions) and stamped with the
commit, the repetition count and the spread.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src"), str(REPO / "benchmarks" / "e2e")]

import timebase  # noqa: E402
from benchmarks.paper.figures import FIGURES, Figure  # noqa: E402
from repro import api  # noqa: E402
from repro.kernels import KERNELS  # noqa: E402
from repro.spike import SpikeSimulator, translate  # noqa: E402

DOCUMENT = REPO / "EXPERIMENTS.md"
BLOCK = re.compile(r"(<!-- figure:(\S+) -->\n)(.*?)(\n<!-- /figure:\2 -->)",
                   re.DOTALL)
REPS = 3             # timed repetitions of a host-throughput point
NOISE_FLOOR_S = 0.3  # an operation shorter than this is flagged


def blocks(text: str) -> dict[str, str]:
    """Figure id -> the body of its marked block."""
    return {match[2]: match[3] for match in BLOCK.finditer(text)}


def cell(value) -> str:
    """A metric as ``SweepTable.to_text`` prints it."""
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def simulate(figure: Figure, make_workload, cores: int, design: dict,
             observed: bool = False):
    """One point through the front door, as ``(point, translators)``; a
    failed one stops the run.  ``observed`` runs it guest-profiled, so
    the translators count their dispatches."""
    outcome = api.run(make_workload, cores, profile=observed,
                      **figure.base, **design)
    if not outcome.succeeded:
        raise SystemExit(f"{figure.id}: {design} failed verification")
    return (api.SweepPoint(design, outcome.results, outcome.verified),
            outcome.simulation.orchestrator.translators)


def interpret(make_workload, cores: int, interleave: int) -> int:
    """One run of the raw ISS (no timing model, no translator);
    instructions retired."""
    workload = make_workload()
    simulator = SpikeSimulator(workload.program, num_cores=cores,
                               interleave=interleave)
    instructions = simulator.run()
    if not workload.verify(simulator.machine.memory):
        raise SystemExit(f"interleave={interleave} failed verification")
    return instructions


HOST_COLUMNS = ("host MIPS", "IQR", "op ref-s", "compile s (blocks)",
                "instructions")
# The column computed here rather than by ``SweepPoint.metric``.
PER_DISPATCH = "instr_per_dispatch"


def per_dispatch(translators) -> str:
    """Instructions a translated dispatch retired in an observed run
    ("—" when it did not translate)."""
    totals = translate.translator_totals(translators)
    if totals is None:
        return "—"
    tallies = totals["dispatch"].values()
    retired = sum(tally["instructions"] for tally in tallies)
    return f"{retired / sum(tally['dispatches'] for tally in tallies):.2f}"


def host_cells(operation, instructions: int, translators) -> list[str]:
    """Time ``operation`` (warmed up by the caller, so no repetition
    compiles) and render its throughput beside what the warm-up compiled."""
    samples = [timebase.timed(operation)[1]["ref"] for _ in range(REPS)]
    mips = [instructions / seconds / 1e6 for seconds in samples]
    seconds = statistics.median(samples)
    totals = translate.translator_totals(translators)
    return [f"{statistics.median(mips):.3f}",
            f"{timebase.iqr_frac(mips):.1%}",
            f"{seconds:.2f}" + (" †" if seconds < NOISE_FLOOR_S else ""),
            "—" if totals is None else f"{totals['compile_seconds']:.3f} "
                                       f"({totals['blocks_compiled']})",
            str(instructions)]


def designs(figure: Figure, cores: int) -> list[dict]:
    if figure.interleave:
        return [{"interleave": batch} for batch in figure.interleave]
    return [design for axes in figure.axes
            for design in (api.Sweep(cores, axes).points() if axes else [{}])]


def rows(figure: Figure):
    """Every table row of a figure: workload, cores, design, columns."""
    for kernel, arguments in figure.workloads:
        label = ", ".join(f"{name}={value}"
                          for name, value in arguments.items())
        for cores in figure.cores:
            make = functools.partial(KERNELS[kernel], num_cores=cores,
                                     **arguments)
            for design in designs(figure, cores):
                if figure.host:
                    # From an empty block cache, so the first, untimed run
                    # below pays a cold process's whole compile cost.
                    translate._FACTORY_CACHE.clear()
                if figure.interleave:
                    run = functools.partial(interpret, make, cores, **design)
                    cells = host_cells(run, run(), None)
                else:
                    run = functools.partial(simulate, figure, make, cores,
                                            design)
                    point, translators = run(
                        observed=PER_DISPATCH in figure.columns)
                    cells = [per_dispatch(translators)
                             if column == PER_DISPATCH
                             else cell(point.metric(column))
                             for column in figure.columns
                             if column != "host_mips"]
                    if figure.host:
                        cells[:0] = host_cells(
                            run, point.results.instructions, translators)
                yield [f"{kernel}({label})", str(cores),
                       " ".join(f"{name}={value}" for name, value
                                in design.items()) or "—", *cells]


def commit() -> str:
    described = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=REPO,
        capture_output=True, text=True)
    return described.stdout.strip() or "unknown"


def render(figure: Figure) -> str:
    """The block body of one figure: heading, claim, base design, table
    and — for a host-throughput figure — the stamp."""
    columns = [column for column in figure.columns if column != "host_mips"]
    if figure.host:
        columns[:0] = HOST_COLUMNS
    header = ["workload", "cores", "design", *columns]
    base = ", ".join(f"`{name}={value}`"
                     for name, value in figure.base.items())
    lines = [f"**{figure.id} — {figure.title}.**  Paper: {figure.claim}.  "
             f"Base design: `for_cores(cores)`{' + ' + base if base else ''}.",
             "",
             "| " + " | ".join(header) + " |",
             "|---|---:|---|" + "---:|" * len(columns)]
    lines += ["| " + " | ".join(row) + " |" for row in rows(figure)]
    if figure.host:
        lines += ["", (
            f"_Measured at commit `{commit()}`: one untimed warm-up, then "
            f"{REPS} timed repetitions a point, in reference seconds "
            f"(`benchmarks/e2e/timebase.py`); an operation builds the "
            f"kernel, simulates it and verifies the output.  host MIPS = "
            f"instructions / op ref-s, median of the {REPS}; IQR = (q3 − q1)"
            f" / median of the same; compile s (blocks) = what the warm-up, "
            f"started from an empty block cache, spent in the translator's "
            f"`compile_seconds` — no timed repetition compiles; † = the "
            f"operation is below the {NOISE_FLOOR_S} ref-s noise floor._")]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    names = argv or list(FIGURES)
    text = DOCUMENT.read_text()
    marked = blocks(text)
    strays = [name for name in names
              if name not in FIGURES or name not in marked]
    if strays:
        print(f"{strays}: not in the figure table ({', '.join(FIGURES)}), or "
              f"without a marked block in EXPERIMENTS.md", file=sys.stderr)
        return 2
    for name in names:
        print(f"{name} ...", flush=True)
        body = render(FIGURES[name])
        text = BLOCK.sub(lambda match: match[1] + body + match[4]
                         if match[2] == name else match[0], text)
        DOCUMENT.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
