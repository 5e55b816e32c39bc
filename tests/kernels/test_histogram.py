"""Tests for the HPDA histogram kernel (shared atomic bins)."""

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import histogram
from repro.spike import SpikeSimulator


class TestHistogram:
    @pytest.mark.parametrize("cores", [1, 2, 4, 8])
    def test_counts_exact(self, cores):
        """Atomic updates must never lose an increment, at any core
        count and interleaving."""
        workload = histogram(length=256, num_bins=16, num_cores=cores)
        simulator = SpikeSimulator(workload.program, num_cores=cores)
        simulator.run()
        assert workload.verify(simulator.machine.memory)

    def test_total_equals_samples(self):
        workload = histogram(length=200, num_bins=8, num_cores=4)
        simulator = SpikeSimulator(workload.program, num_cores=4)
        simulator.run()
        bins_address = workload.program.symbols["hist_bins"]
        raw = simulator.machine.memory.load_bytes(bins_address, 8 * 8)
        assert int(np.frombuffer(raw, dtype=np.uint64).sum()) == 200

    def test_under_coyote(self):
        workload = histogram(length=128, num_bins=16, num_cores=4)
        simulation = Simulation(SimulationConfig.for_cores(4),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)

    def test_interleave_independence(self):
        """Results identical under different ISS interleavings — the
        atomics make the outcome schedule-independent."""
        outcomes = []
        for interleave in (1, 13):
            workload = histogram(length=128, num_bins=8, num_cores=4,
                                 seed=9)
            simulator = SpikeSimulator(workload.program, num_cores=4,
                                       interleave=interleave)
            simulator.run()
            address = workload.program.symbols["hist_bins"]
            outcomes.append(
                simulator.machine.memory.load_bytes(address, 64))
        assert outcomes[0] == outcomes[1]

    def test_power_of_two_bins_required(self):
        with pytest.raises(ValueError):
            histogram(num_bins=10)

    def test_skewed_bins_allowed(self):
        """All samples can land in few bins; counts still exact."""
        workload = histogram(length=64, num_bins=2, num_cores=4)
        simulator = SpikeSimulator(workload.program, num_cores=4)
        simulator.run()
        assert workload.verify(simulator.machine.memory)
