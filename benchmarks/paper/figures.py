"""The paper's figures, ablations and studies as one declarative table.

``run.py`` (beside this file) turns every row into the marked block of
EXPERIMENTS.md that carries its id; ``tests/test_paper_figures.py`` re-renders
the simulated-cycle rows in tier-1 and compares them with the committed
document.  Adding an experiment is one ``Figure`` here plus one marked block
(and an index row) in EXPERIMENTS.md and DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Figure:
    """One regenerated artefact.

    ``workloads`` are ``(kernel, arguments)``: a ``repro.kernels.KERNELS``
    name and the keyword arguments of its factory (``num_cores`` comes from
    ``cores``).  ``base`` is the base design and every dict of ``axes`` one
    cartesian sweep on top of it, both spelled in ``config_paths()`` names.
    ``columns`` are names ``SweepPoint.metric`` resolves.  A ``host_mips``
    column makes it a host-throughput figure (that column is the timed
    group; the block is stamped, not pinned); ``interleave`` batch sizes
    make it one of the raw ISS, which has no other column to offer.
    ``instr_per_dispatch`` is the one column ``run.py`` computes itself:
    instructions a translated dispatch retired in the untimed warm-up,
    which then runs observed so its dispatches are counted.
    """

    id: str
    title: str
    claim: str
    workloads: tuple[tuple[str, dict], ...]
    cores: tuple[int, ...] = (8,)
    base: dict = field(default_factory=dict)
    axes: tuple[dict, ...] = ({},)
    columns: tuple[str, ...] = ("cycles",)
    interleave: tuple[int, ...] = ()

    @property
    def host(self) -> bool:
        return "host_mips" in self.columns


TRIAD = ("stream-triad", {"length": 2048})
BANK_REQUESTS = ("memhier.tile0.bank0.requests",
                 "memhier.tile0.bank1.requests")
DRAM_READS = ("memhier.mc0.reads", "memhier.mc1.reads")


def gather(variant: str, rows: int, seed: int, **arguments) -> tuple:
    """A vector SpMV over a seeded random ``rows`` x ``rows`` matrix."""
    return (f"spmv-csr-gather-{variant}",
            {"num_rows": rows, "seed": seed, **arguments})


FIGURES = {figure.id: figure for figure in (
    Figure(
        "fig3", "aggregate simulation throughput vs simulated cores (Fig. 3)",
        "scalar Matmul and scalar SpMV on 1 to 128 simulated cores with "
        "Spike's interleaving disabled: about 1.4 / 1.6 MIPS at one core "
        "*rising* to about 6 / 5 MIPS at 128",
        (("scalar-matmul", {"size": 60}), ("scalar-spmv", {"num_rows": 2560})),
        cores=(1, 2, 4, 8, 16, 32, 64, 128),
        axes=({"translate": [True, False]},),
        columns=("host_mips", "instr_per_dispatch",
                 "memhier.requests_submitted", "events_fired")),
    Figure(
        "abl-interleave", "Spike's interleaving, measured in the raw ISS",
        "\"Interleaving speeds up simulation in the original Spike "
        "implementation by executing several instructions on the same core "
        "back to back, before switching to the next core\"; Coyote has to "
        "run with it disabled, which §III-A blames for Figure 3's left end",
        (("scalar-spmv", {"num_rows": 2560}),),
        interleave=(1, 4, 16, 64, 256), columns=("host_mips",)),
    Figure(
        "kern", "§III-A kernel suite on one 8-core tile",
        "\"Four different kernels have been adapted to baremetal simulation "
        "in Spike and can be executed using Coyote\": scalar and vector "
        "matmul, three vector SpMV variants, a vector stencil (FFT and AI "
        "kernels are the paper's announced next step)",
        (("scalar-matmul", {"size": 16}), ("vector-matmul", {"size": 16}),
         ("scalar-spmv", {"num_rows": 64}), gather("reduce", 64, 42),
         gather("accum", 64, 42), ("spmv-ell", {"num_rows": 64}),
         ("vector-stencil", {"length": 512, "iterations": 2}),
         ("vector-axpy", {"length": 1024}), ("stream-triad", {"length": 1024}),
         ("vector-dot", {"length": 1024}), ("fft-radix2", {"length": 128}),
         ("nn-dense-relu", {"in_dim": 48, "out_dim": 48}),
         ("mlp-inference", {"dims": (32, 48, 32, 16)}),
         ("histogram", {"length": 1024, "num_bins": 64})),
        columns=("cycles", "instructions", "ipc", "l1d_miss_rate")),
    Figure(
        "stats", "§III-A simulation outputs",
        "\"statistics about memory accesses (miss rates, number of stalls "
        "due to dependencies, etc.), the execution time of the simulated "
        "application\" (the third output, the Paraver L1-miss trace, is "
        "`examples/paraver_trace_analysis.py`)",
        (("scalar-spmv", {"num_rows": 64}), gather("accum", 64, 42)),
        columns=("cycles", "l1d_miss_rate", "l1i_miss_rate",
                 "raw_stall_cycles", "fetch_stall_cycles",
                 "stalled_fraction")),
    Figure(
        "abl-mshr", "maximum in-flight misses per L2 bank",
        "\"the maximum number of in-flight misses\" is an L2 input parameter",
        (TRIAD,), axes=({"l2_max_in_flight": [1, 2, 4, 8, 32]},),
        columns=("cycles", "memhier.tile0.bank0.mshr_stalls")),
    Figure(
        "abl-banks", "bank count x bank port throughput",
        "§IV lists \"bank composition\" among the memory-architecture knobs; "
        "the paper's banks are ideal (a request every cycle)",
        (TRIAD,), axes=({"l2_cycles_per_request": [0, 4],
                         "banks_per_tile": [1, 2, 8]},),
        columns=("cycles", "memhier.tile0.bank0.port_conflict_cycles")),
    Figure(
        "abl-l2mode", "fully-shared vs tile-private L2 (two tiles)",
        "\"The L2 can be configured as fully-shared across the system or "
        "private to the cores of each tile\"",
        (gather("accum", 96, 21), ("stream-triad", {"length": 1024})),
        cores=(16,), axes=({"l2_mode": ["shared", "private"]},)),
    Figure(
        "abl-l3", "an optional L3 below shrunken L1s and L2 banks",
        "\"Deeper memory hierarchies or more heterogeneous systems can "
        "currently be modelled\"",
        (("scalar-matmul", {"size": 32}), TRIAD), cores=(4,),
        base={"l2_bank_bytes": 4096, "l1.icache_bytes": 2048,
              "l1.dcache_bytes": 2048, "l1.associativity": 4},
        axes=({"l3_enable": [False, True]},),
        columns=("cycles", *DRAM_READS)),
    Figure(
        "abl-mapping", "address-to-bank mapping policy",
        "\"Two different well-known data mapping policies have been "
        "implemented ... page-to-bank and set-interleaving\"",
        (TRIAD, gather("reduce", 64, 31)),
        axes=({"mapping_policy": ["set-interleaving", "page-to-bank"]},),
        columns=("cycles", *BANK_REQUESTS)),
    Figure(
        "abl-mcpu", "MCPU-style vector request aggregation (VLEN 2048)",
        "ACME's memory co-processors \"operate on vectors, both dense (unit "
        "stride) and sparse with the help of vector index registers for "
        "scatter/gather operations\" (§I-A) — an extension here",
        (("stream-triad", {"length": 4096}),
         gather("accum", 128, 61, nnz_per_row=24)),
        base={"vlen_bits": 2048}, axes=({"mcpu_aggregation": [False, True]},),
        columns=("cycles", "memhier.noc.messages")),
    Figure(
        "abl-noc", "crossbar latency sweep, and the mesh extension",
        "the NoC is \"a highly idealized crossbar, that uses fixed, "
        "configurable latencies\"; more realistic NoC models are the "
        "paper's work in progress",
        (gather("accum", 64, 42),),
        axes=({"noc.kind": ["crossbar"], "noc.latency": [2, 6, 12, 24]},
              {"noc.kind": ["mesh"], "noc.columns": [4]})),
    Figure(
        "abl-prefetch", "memory-controller stream prefetcher",
        "\"different data management policies such as prefetching, "
        "streaming, etc.\" are the paper's next steps — an extension here",
        (TRIAD, gather("reduce", 64, 41)),
        axes=({"prefetch_depth": [0, 2, 4]},)),
    Figure(
        "study-compress", "§IV value compression against memory bandwidth",
        "§IV's co-design case: compress the non-zero values of SpMV \"to "
        "avoid the memory bandwidth limitations\" before committing the "
        "scheme to FPGA logic",
        (gather("accum", 96, 51),
         ("spmv-csr-compressed", {"num_rows": 96, "seed": 51, "levels": 16})),
        axes=({"mem_cycles_per_request": [2, 24]},),
        columns=("cycles", *DRAM_READS)),
)}
