"""Scale smoke tests: the paper's headline core counts must work."""

import pytest

from repro.api import Simulation, SimulationConfig
from repro.kernels import scalar_spmv, vector_axpy


class TestLargeCoreCounts:
    def test_64_cores(self):
        workload = vector_axpy(length=256, num_cores=64)
        simulation = Simulation(SimulationConfig.for_cores(64),
                                workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)
        assert len(results.cores) == 64

    def test_128_cores(self):
        """The paper's maximum: 128 cores, 16 tiles."""
        workload = scalar_spmv(num_rows=256, nnz_per_row=2,
                               num_cores=128)
        config = SimulationConfig.for_cores(128)
        assert config.memhier.num_tiles == 16
        assert config.memhier.num_banks == 32
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)
        # Every core executed its boot + slice.
        assert all(core.instructions > 0 for core in results.cores)

    def test_128_core_bank_spread(self):
        """With set-interleaving over 32 banks, a many-core SpMV must
        touch most banks."""
        workload = scalar_spmv(num_rows=256, nnz_per_row=2,
                               num_cores=128)
        simulation = Simulation(SimulationConfig.for_cores(128),
                                workload.program)
        results = simulation.run()
        utilisation = results.bank_utilisation()
        active_banks = sum(1 for count in utilisation.values()
                           if count > 0)
        assert active_banks >= 24
