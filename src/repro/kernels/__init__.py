"""RISC-V kernel workloads for Coyote (assembled from genuine RV64+RVV
assembly) plus their data generators and numpy verifiers."""

import functools

from repro.kernels.data import (
    CsrMatrix,
    banded_csr,
    clustered_csr,
    dense_matrix,
    dense_vector,
    random_csr,
)
from repro.kernels.compression import quantise_matrix, spmv_csr_compressed
from repro.kernels.extras import stream_triad, vector_axpy, vector_dot
from repro.kernels.fft import fft_radix2
from repro.kernels.histogram import histogram
from repro.kernels.nn import dense_relu_layer, mlp_inference
from repro.kernels.matmul import scalar_matmul, vector_matmul
from repro.kernels.spmv import (
    SPMV_VARIANTS,
    scalar_spmv,
    spmv_csr_gather_accum,
    spmv_csr_gather_reduce,
    spmv_ell,
)
from repro.kernels.stencil import reference_stencil, vector_stencil
from repro.kernels.workload import Workload, build_workload

KERNELS = {
    "scalar-matmul": scalar_matmul,
    "vector-matmul": vector_matmul,
    "scalar-spmv": scalar_spmv,
    "spmv-csr-gather-reduce": spmv_csr_gather_reduce,
    "spmv-csr-gather-accum": spmv_csr_gather_accum,
    "spmv-ell": spmv_ell,
    "spmv-csr-compressed": spmv_csr_compressed,
    "vector-stencil": vector_stencil,
    "vector-axpy": vector_axpy,
    "stream-triad": stream_triad,
    "vector-dot": vector_dot,
    "fft-radix2": fft_radix2,
    "nn-dense-relu": dense_relu_layer,
    "mlp-inference": mlp_inference,
    "histogram": histogram,
}

def instantiate(kernel: str, num_cores: int, size: int | None = None):
    """Build a named kernel workload with a sensible size argument.

    The single place that knows each kernel family's size-keyword
    convention (``size`` / ``num_rows`` / layer dimensions / ``length``);
    the CLI and the :mod:`repro.api` facade both route through it.
    ``size=None`` uses the kernel's own default problem size.
    """
    try:
        factory = KERNELS[kernel]
    except KeyError:
        raise ValueError(f"unknown kernel {kernel!r} "
                         f"(expected one of {sorted(KERNELS)})") from None
    if size is None:
        return factory(num_cores=num_cores)
    if "matmul" in kernel:
        return factory(size=size, num_cores=num_cores)
    if "spmv" in kernel:
        return factory(num_rows=size, num_cores=num_cores)
    if kernel == "nn-dense-relu":
        return factory(in_dim=size, out_dim=size, num_cores=num_cores)
    if kernel == "mlp-inference":
        return factory(dims=(size, size, size), num_cores=num_cores)
    return factory(length=size, num_cores=num_cores)


@functools.lru_cache(maxsize=8)
def _build_named(kernel: str, num_cores: int, size: int | None):
    return instantiate(kernel, num_cores, size)


def workload_factory(kernel: str, num_cores: int,
                     size: int | None = None):
    """A zero-argument, *picklable* factory for a named kernel.

    What every campaign tier hands its point workers: a closure cannot
    cross a ``spawn`` process boundary, a partial over a module-level
    function can.  It memoises :func:`instantiate`, bounded, so a named
    kernel is built once a process (a worker forked after its parent
    built it builds nothing) and every call returns one shared,
    read-only :class:`Workload`.
    """
    return functools.partial(_build_named, kernel, num_cores, size)


__all__ = [
    "KERNELS",
    "SPMV_VARIANTS",
    "instantiate",
    "workload_factory",
    "CsrMatrix",
    "Workload",
    "banded_csr",
    "build_workload",
    "clustered_csr",
    "dense_matrix",
    "dense_relu_layer",
    "dense_vector",
    "fft_radix2",
    "histogram",
    "mlp_inference",
    "quantise_matrix",
    "random_csr",
    "spmv_csr_compressed",
    "reference_stencil",
    "scalar_matmul",
    "scalar_spmv",
    "spmv_csr_gather_accum",
    "spmv_csr_gather_reduce",
    "spmv_ell",
    "stream_triad",
    "vector_axpy",
    "vector_dot",
    "vector_matmul",
    "vector_stencil",
]
