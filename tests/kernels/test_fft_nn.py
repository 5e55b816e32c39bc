"""Tests for the future-work kernels: FFT and neural-network layers."""

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import dense_relu_layer, fft_radix2, mlp_inference
from repro.kernels.fft import _bit_reverse_permutation
from repro.spike import SpikeSimulator


class TestBitReversal:
    def test_length_8(self):
        assert list(_bit_reverse_permutation(8)) == \
            [0, 4, 2, 6, 1, 5, 3, 7]

    def test_is_involution(self):
        perm = _bit_reverse_permutation(64)
        assert np.array_equal(perm[perm], np.arange(64))


class TestFft:
    @pytest.mark.parametrize("length", [2, 4, 16, 64])
    def test_matches_numpy(self, length):
        workload = fft_radix2(length=length, num_cores=1)
        simulator = SpikeSimulator(workload.program, num_cores=1)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    @pytest.mark.parametrize("cores", [2, 4, 8])
    def test_multicore_with_barriers(self, cores):
        workload = fft_radix2(length=64, num_cores=cores)
        simulator = SpikeSimulator(workload.program, num_cores=cores)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_under_coyote(self):
        workload = fft_radix2(length=32, num_cores=4)
        simulation = Simulation(SimulationConfig.for_cores(4),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_radix2(length=24)
        with pytest.raises(ValueError):
            fft_radix2(length=1)

    def test_metadata(self):
        workload = fft_radix2(length=16)
        assert workload.metadata["stages"] == 4


class TestDenseRelu:
    @pytest.mark.parametrize("cores", [1, 2, 4])
    def test_matches_numpy(self, cores):
        workload = dense_relu_layer(in_dim=16, out_dim=24,
                                    num_cores=cores)
        simulator = SpikeSimulator(workload.program, num_cores=cores)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_relu_clamps_negatives(self):
        """The verifier compares against relu'd outputs, so some output
        must actually be zero for the clamp to be exercised."""
        workload = dense_relu_layer(in_dim=16, out_dim=24, seed=3)
        assert np.any(workload.expected == 0.0)
        assert np.any(workload.expected > 0.0)

    def test_rectangular_shapes(self):
        workload = dense_relu_layer(in_dim=40, out_dim=8, num_cores=2)
        simulator = SpikeSimulator(workload.program, num_cores=2)
        simulator.run()
        assert workload.verify(simulator.machine.memory)


class TestMlp:
    def test_two_layers(self):
        workload = mlp_inference(dims=(16, 24, 12), num_cores=2)
        simulator = SpikeSimulator(workload.program, num_cores=2)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_deep_network(self):
        workload = mlp_inference(dims=(8, 16, 16, 16, 4), num_cores=4)
        simulator = SpikeSimulator(workload.program, num_cores=4)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_under_coyote(self):
        workload = mlp_inference(dims=(16, 16, 8), num_cores=2)
        simulation = Simulation(SimulationConfig.for_cores(2),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            mlp_inference(dims=(8,))
