"""End-to-end kernel tests: every kernel verified against numpy on both
the raw ISS and the full Coyote model, across core counts."""

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import (
    banded_csr,
    clustered_csr,
    dense_vector,
    reference_stencil,
    scalar_matmul,
    scalar_spmv,
    spmv_csr_gather_accum,
    spmv_csr_gather_reduce,
    spmv_ell,
    stream_triad,
    vector_axpy,
    vector_dot,
    vector_matmul,
    vector_stencil,
)
from repro.spike import SpikeSimulator

SMALL_KERNELS = [
    ("scalar-matmul", lambda cores: scalar_matmul(size=8,
                                                  num_cores=cores)),
    ("vector-matmul", lambda cores: vector_matmul(size=8,
                                                  num_cores=cores)),
    ("scalar-spmv", lambda cores: scalar_spmv(num_rows=16, nnz_per_row=4,
                                              num_cores=cores)),
    ("spmv-gather-reduce",
     lambda cores: spmv_csr_gather_reduce(num_rows=16, nnz_per_row=4,
                                          num_cores=cores)),
    ("spmv-gather-accum",
     lambda cores: spmv_csr_gather_accum(num_rows=16, nnz_per_row=4,
                                         num_cores=cores)),
    ("spmv-ell", lambda cores: spmv_ell(num_rows=16, nnz_per_row=4,
                                        num_cores=cores)),
    ("vector-stencil", lambda cores: vector_stencil(length=48,
                                                    iterations=2,
                                                    num_cores=cores)),
    ("vector-axpy", lambda cores: vector_axpy(length=48,
                                              num_cores=cores)),
    ("stream-triad", lambda cores: stream_triad(length=48,
                                                num_cores=cores)),
    ("vector-dot", lambda cores: vector_dot(length=48, num_cores=cores)),
]


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("name,factory", SMALL_KERNELS,
                         ids=[name for name, _ in SMALL_KERNELS])
def test_kernel_on_raw_iss(name, factory, cores):
    workload = factory(cores)
    simulator = SpikeSimulator(workload.program, num_cores=cores)
    simulator.run()
    assert simulator.machine.all_succeeded()
    assert workload.verify(simulator.machine.memory), \
        f"{name} output mismatch at {cores} cores"


@pytest.mark.parametrize("name,factory", SMALL_KERNELS,
                         ids=[name for name, _ in SMALL_KERNELS])
def test_kernel_on_coyote(name, factory):
    cores = 2
    workload = factory(cores)
    simulation = Simulation(SimulationConfig.for_cores(cores),
                            workload.program)
    results = simulation.run()
    assert results.succeeded()
    assert workload.verify(simulation.memory), \
        f"{name} output mismatch under Coyote"
    assert results.instructions > 0 and results.cycles > 0


class TestKernelVariantsAgree:
    """All four SpMV implementations must produce identical y vectors."""

    def test_spmv_variants_same_result(self):
        matrix = banded_csr(24, bandwidth=3, seed=11)
        x = dense_vector(24, seed=12)
        outputs = []
        for factory in (scalar_spmv, spmv_csr_gather_reduce,
                        spmv_csr_gather_accum, spmv_ell):
            workload = factory(num_cores=2, matrix=matrix, x=x)
            simulator = SpikeSimulator(workload.program, num_cores=2)
            simulator.run()
            address = workload.program.symbols["vec_y"]
            raw = simulator.machine.memory.load_bytes(address, 8 * 24)
            outputs.append(np.frombuffer(raw, dtype=np.float64))
        for output in outputs[1:]:
            assert np.allclose(output, outputs[0], rtol=1e-10)

    def test_spmv_on_clustered_matrix(self):
        matrix = clustered_csr(16, 16, nnz_per_row=4, cluster_width=8,
                               seed=3)
        x = dense_vector(16, seed=4)
        workload = spmv_csr_gather_reduce(num_cores=2, matrix=matrix, x=x)
        simulator = SpikeSimulator(workload.program, num_cores=2)
        simulator.run()
        assert workload.verify(simulator.machine.memory)


class TestStencil:
    def test_reference_matches_manual(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        result = reference_stencil(data, (0.25, 0.5, 0.25), 1)
        assert result[0] == 1.0 and result[-1] == 4.0
        assert result[1] == 0.25 * 1 + 0.5 * 2 + 0.25 * 3

    def test_many_iterations_with_barrier(self):
        workload = vector_stencil(length=32, iterations=5, num_cores=4)
        simulator = SpikeSimulator(workload.program, num_cores=4)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_single_core_no_barrier_contention(self):
        workload = vector_stencil(length=32, iterations=3, num_cores=1)
        simulator = SpikeSimulator(workload.program, num_cores=1)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_validation(self):
        with pytest.raises(ValueError):
            vector_stencil(length=2)
        with pytest.raises(ValueError):
            vector_stencil(iterations=0)


class TestWorkRanges:
    """The hart-range splitter must cover every element exactly once."""

    @pytest.mark.parametrize("rows,cores", [(7, 2), (16, 3), (5, 4),
                                            (9, 8)])
    def test_uneven_split_still_correct(self, rows, cores):
        workload = scalar_spmv(num_rows=rows, nnz_per_row=2,
                               num_cores=cores, seed=9)
        simulator = SpikeSimulator(workload.program, num_cores=cores)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_more_cores_than_rows(self):
        workload = vector_axpy(length=3, num_cores=8)
        simulator = SpikeSimulator(workload.program, num_cores=8)
        simulator.run()
        assert workload.verify(simulator.machine.memory)


class TestWorkloadMetadata:
    def test_repr(self):
        workload = scalar_matmul(size=4, num_cores=2)
        text = repr(workload)
        assert "scalar-matmul" in text and "cores=2" in text

    def test_metadata_recorded(self):
        workload = vector_matmul(size=4, num_cores=1, seed=5)
        assert workload.metadata["size"] == 4
        assert workload.metadata["seed"] == 5

    def test_expected_stored(self):
        workload = scalar_matmul(size=4, num_cores=1)
        assert workload.expected.shape == (16,)
