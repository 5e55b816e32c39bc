"""EXPERIMENTS.md is a build product of ``benchmarks/paper``.

The committed document is the pin of every simulated-cycle table: each
is re-rendered here from the figure table and compared with its marked
block, so an ablation that silently changes is a red test and there is
no separate digest to keep in step.  Host-throughput blocks are stamped
measurements; only their shape is checked.
"""

import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from benchmarks.paper import run as paper  # noqa: E402
from benchmarks.paper.figures import FIGURES, Figure  # noqa: E402
from repro.coyote.config import config_paths  # noqa: E402
from repro.coyote.sweep import check_metric  # noqa: E402
from repro.kernels import KERNELS  # noqa: E402

DOCUMENT = paper.DOCUMENT.read_text()
BLOCKS = paper.blocks(DOCUMENT)


def rows(body: str) -> list[list[str]]:
    """The cells of a rendered table's data rows."""
    return [line.strip("| ").split(" | ") for line in body.splitlines()
            if line.startswith("| ")][1:]


@pytest.mark.parametrize(
    "figure", [figure for figure in FIGURES.values() if not figure.host],
    ids=lambda figure: figure.id)
def test_simulated_cycle_table_is_the_committed_one(figure):
    assert paper.render(figure) == BLOCKS[figure.id], (
        f"{figure.id} no longer simulates to its table in EXPERIMENTS.md; "
        f"if that is meant: python3 benchmarks/paper/run.py {figure.id}")


def table_ids(text: str, heading: str) -> set[str]:
    """First-column ids of the tables in the section under ``heading``."""
    section = text.split(heading, 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| ([a-z0-9]+(?:-[a-z0-9]+)*) \|", section,
                          re.MULTILINE))


def test_the_figure_index_cannot_drift():
    design = table_ids((REPO / "DESIGN.md").read_text(),
                       "## 4. Per-experiment index")
    index = table_ids(DOCUMENT, "## Experiment index")
    assert design == index == set(BLOCKS) == set(FIGURES)
    for figure in FIGURES.values():
        assert set(figure.base).union(*figure.axes) <= set(config_paths()), \
            f"{figure.id} names a field config_paths() does not have"
        assert all(kernel in KERNELS for kernel, _ in figure.workloads)
        for column in figure.columns:
            if column != paper.PER_DISPATCH:
                check_metric(column)


@pytest.mark.parametrize(
    "figure", [figure for figure in FIGURES.values() if figure.host],
    ids=lambda figure: figure.id)
def test_host_throughput_block_is_stamped_and_complete(figure):
    body = BLOCKS[figure.id]
    assert re.search(r"commit `[0-9a-f]{7}", body)
    reps = int(re.search(r"(\d+) timed repetitions", body)[1])
    assert reps >= 3 and "IQR" in body and "compile s" in body
    designs = [cells[:3] for cells in rows(body)]
    assert len(designs) == len(set(map(tuple, designs))) == sum(
        len(paper.designs(figure, cores))
        for _ in figure.workloads for cores in figure.cores)


def test_host_path_times_a_point_and_flags_one_below_the_noise_floor():
    tiny = dict(title="t", claim="c", cores=(2,), columns=("host_mips",))
    translated, interpreted = rows(paper.render(Figure(
        "tiny", workloads=(("scalar-matmul", {"size": 6}),),
        axes=({"translate": [True, False]},),
        **dict(tiny, columns=("host_mips", paper.PER_DISPATCH)))))
    assert float(translated[8]) > 1 and interpreted[8] == "—"
    assert (translated[2], interpreted[2]) \
        == ("translate=True", "translate=False")
    assert float(translated[3]) > 0 and translated[4].endswith("%")
    assert translated[5].endswith("†")      # 1 796 instructions an operation
    assert re.fullmatch(r"\d\.\d{3} \(\d+\)", translated[6])
    assert interpreted[6] == "—"
    assert translated[7] == interpreted[7] == "1796"
    (batched,) = rows(paper.render(Figure(
        "tiny", workloads=(("scalar-spmv", {"num_rows": 16}),),
        interleave=(4,), **tiny)))
    assert batched[2] == "interleave=4" and float(batched[3]) > 0
