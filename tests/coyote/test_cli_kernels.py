"""CLI coverage: every registered kernel must run (small sizes)."""

import pytest

from repro.coyote.cli import main as cli_main
from repro.kernels import KERNELS, instantiate

_SIZE = {
    "scalar-matmul": 6, "vector-matmul": 6,
    "scalar-spmv": 8, "spmv-csr-gather-reduce": 8,
    "spmv-csr-gather-accum": 8, "spmv-ell": 8,
    "spmv-csr-compressed": 8,
    "vector-stencil": 16, "vector-axpy": 16, "stream-triad": 16,
    "vector-dot": 16, "fft-radix2": 8, "nn-dense-relu": 6,
    "mlp-inference": 6, "histogram": 16,
}


def test_size_table_covers_all_kernels():
    assert set(_SIZE) == set(KERNELS)


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
def test_cli_runs_every_kernel(kernel, capsys):
    exit_code = cli_main(["--kernel", kernel, "--cores", "2",
                          "--size", str(_SIZE[kernel])])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.out
    assert "output verified      : True" in captured.out


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
def test_make_workload_default_sizes(kernel):
    workload = instantiate(kernel, num_cores=2, size=None)
    assert workload.num_cores == 2
