"""Tests for the §IV value-compression SpMV kernel."""

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import (
    dense_vector,
    quantise_matrix,
    random_csr,
    spmv_csr_compressed,
)
from repro.spike import SpikeSimulator


class TestQuantise:
    def test_values_snap_to_dictionary(self):
        matrix = random_csr(8, 8, 3, seed=1)
        quantised, dictionary, codes = quantise_matrix(matrix, levels=4,
                                                       seed=2)
        assert set(np.unique(quantised.values)) <= set(dictionary)
        assert np.all(dictionary[codes] == quantised.values)

    def test_structure_preserved(self):
        matrix = random_csr(8, 8, 3, seed=1)
        quantised, _dict, _codes = quantise_matrix(matrix, levels=4)
        assert np.array_equal(quantised.col_indices, matrix.col_indices)
        assert np.array_equal(quantised.row_pointers,
                              matrix.row_pointers)

    def test_idempotent_on_quantised_input(self):
        matrix = random_csr(8, 8, 3, seed=1)
        once, _d, _c = quantise_matrix(matrix, levels=8, seed=3)
        twice, _d2, _c2 = quantise_matrix(once, levels=8, seed=3)
        assert np.allclose(once.values, twice.values)

    def test_levels_validated(self):
        matrix = random_csr(4, 4, 2, seed=1)
        with pytest.raises(ValueError):
            quantise_matrix(matrix, levels=0)
        with pytest.raises(ValueError):
            quantise_matrix(matrix, levels=1 << 17)


class TestCompressedKernel:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_verifies_on_iss(self, cores):
        workload = spmv_csr_compressed(num_rows=24, nnz_per_row=4,
                                       num_cores=cores)
        simulator = SpikeSimulator(workload.program, num_cores=cores)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_verifies_under_coyote(self):
        workload = spmv_csr_compressed(num_rows=24, nnz_per_row=4,
                                       num_cores=2)
        simulation = Simulation(SimulationConfig.for_cores(2),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_value_stream_is_quarter_size(self):
        """u16 code stream occupies a quarter of the float64 stream."""
        workload = spmv_csr_compressed(num_rows=32, nnz_per_row=8,
                                       num_cores=1)
        symbols = workload.program.symbols
        nnz = workload.metadata["nnz"]
        # Codes array spans 2*nnz bytes, where floats would span 8*nnz.
        code_span = symbols["cmp_dict"] - symbols["cmp_codes"]
        assert 2 * nnz <= code_span < 2 * nnz + 8  # alignment padding

    def test_more_levels_better_fidelity(self):
        matrix = random_csr(16, 16, 4, seed=5)
        x = dense_vector(16, seed=6)
        exact = matrix.multiply(x)
        errors = []
        for levels in (2, 16, 256):
            quantised, _d, _c = quantise_matrix(matrix, levels, seed=7)
            errors.append(
                float(np.abs(quantised.multiply(x) - exact).max()))
        assert errors[0] > errors[1] > errors[2]
