"""Software-visible cycle counter: kernels can time themselves.

The orchestrator wires the simulated clock into each hart's ``cycle``
CSR, so bare-metal code can do what HPC kernels do on real hardware —
read ``rdcycle`` around a region and report the delta.
"""

from repro.assembler import assemble
from repro.api import Simulation, SimulationConfig


SOURCE = """.text
_start:
    rdcycle s0               # t0 = cycles at start
    la   a1, buffer
    li   a2, 64
warm:
    ld   a3, 0(a1)           # march through 64 lines -> L1 misses
    addi a1, a1, 64
    addi a2, a2, -1
    bnez a2, warm
    rdcycle s1
    sub  s2, s1, s0          # measured cycles
    la   a4, out
    sd   s2, 0(a4)
    li   a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j halt
.data
.align 3
tohost: .dword 0
out:    .dword 0
.align 6
buffer: .zero 4096
"""


class TestRdcycle:
    def run(self):
        program = assemble(SOURCE)
        simulation = Simulation(SimulationConfig.for_cores(1), program)
        results = simulation.run()
        measured = simulation.memory.load_int(program.symbols["out"], 8)
        return results, measured

    def test_measured_window_positive(self):
        _results, measured = self.run()
        assert measured > 0

    def test_measured_window_below_total(self):
        results, measured = self.run()
        assert measured < results.cycles

    def test_measurement_sees_memory_latency(self):
        """64 uncached line loads must cost far more than 64 cycles."""
        _results, measured = self.run()
        assert measured > 64 * 10

    def test_instret_available_too(self):
        program = assemble(""".text
_start:
    nop
    nop
    rdinstret s0
    la a4, out
    sd s0, 0(a4)
    li a0, 1
    la t6, tohost
    sd a0, 0(t6)
halt:
    j halt
.data
.align 3
tohost: .dword 0
out:    .dword 0
""")
        simulation = Simulation(SimulationConfig.for_cores(1), program)
        simulation.run()
        assert simulation.memory.load_int(program.symbols["out"],
                                          8) == 2
