"""Tests for the kernel runtime scaffolding (data blocks, range split)."""

import numpy as np
import pytest

from repro.assembler import AsmSyntaxError, DataBlock, assemble
from repro.kernels.runtime import (
    barrier_blocks,
    doubles_block,
    dwords_block,
    range_split,
    read_doubles,
    read_dwords,
    wrap_program,
    zero_doubles_block,
)
from repro.soc.memory import SparseMemory
from repro.spike import SpikeSimulator


class TestEmitters:
    def load(self, *blocks, source: str = ""):
        program = assemble(source, data_base=0x2000, data=blocks)
        memory = SparseMemory()
        program.load_into(memory)
        return program, memory

    def test_emit_doubles_round_trip(self):
        values = np.array([1.5, -2.25, 3.14159, 0.0])
        program, memory = self.load(doubles_block("arr", values))
        out = read_doubles(memory, program.symbols["arr"], 4)
        assert np.array_equal(out, values)

    def test_emit_doubles_exact_bits(self):
        values = np.array([0.1, 1 / 3, np.pi, 1e-300, 1e300])
        program, memory = self.load(doubles_block("arr", values))
        out = read_doubles(memory, program.symbols["arr"], len(values))
        assert out.tobytes() == values.tobytes()

    def test_emit_dwords_round_trip(self):
        values = [0, 1, 2**63, 2**64 - 1]
        program, memory = self.load(dwords_block("arr", values))
        out = read_dwords(memory, program.symbols["arr"], 4)
        assert list(out) == values

    def test_emit_dwords_negative_int64(self):
        values = np.array([-1, -2**63, 5], dtype=np.int64)
        program, memory = self.load(dwords_block("arr", values))
        out = read_dwords(memory, program.symbols["arr"], 3)
        assert list(out) == [2**64 - 1, 2**63, 5]

    def test_emit_zero_doubles(self):
        program, memory = self.load(zero_doubles_block("buf", 5),
                                    dwords_block("after", [7]))
        assert program.symbols["after"] - program.symbols["buf"] == 40
        assert not any(read_dwords(memory, program.symbols["buf"], 5))

    def test_empty_arrays(self):
        program, _ = self.load(doubles_block("a", []),
                               dwords_block("b", []))
        assert "a" in program.symbols and "b" in program.symbols

    def test_alignment(self):
        program, _ = self.load(doubles_block("arr", [1.0]),
                               source=".data\n.byte 1\n")
        assert program.symbols["arr"] == 0x2008

    def test_barrier_words_are_adjacent(self):
        program, _ = self.load(*barrier_blocks(),
                               source=".data\n.byte 1\n")
        assert program.symbols["bar_cnt"] == 0x2008
        assert program.symbols["bar_gen"] == 0x200C

    def test_duplicate_symbol_between_text_and_block(self):
        with pytest.raises(AsmSyntaxError, match="duplicate symbol 'arr'"):
            self.load(doubles_block("arr", [1.0]),
                      source=".data\narr: .dword 7\n")

    def test_non_power_of_two_alignment(self):
        with pytest.raises(AsmSyntaxError, match="bad alignment 12"):
            self.load(DataBlock("arr", bytes(8), align=12))


class TestRangeSplit:
    def run_split(self, total: int, cores: int) -> list[tuple[int, int]]:
        """Execute the splitter on every hart; returns (start, end)."""
        body = f"""\
main:
{range_split(total, cores)}
    la   t5, starts
    slli t6, a0, 3
    add  t5, t5, t6
    sd   s0, 0(t5)
    la   t5, ends
    add  t5, t5, t6
    sd   s1, 0(t5)
    li   a0, 0
    ret
"""
        data = (f".align 3\nstarts: .zero {8 * cores}\n"
                f"ends: .zero {8 * cores}\n")
        program = assemble(wrap_program(body, data))
        simulator = SpikeSimulator(program, num_cores=cores)
        simulator.run()
        memory = simulator.machine.memory
        starts = read_dwords(memory, program.symbols["starts"], cores)
        ends = read_dwords(memory, program.symbols["ends"], cores)
        return list(zip(starts.tolist(), ends.tolist()))

    @pytest.mark.parametrize("total,cores", [
        (16, 4), (17, 4), (3, 4), (1, 1), (7, 3), (100, 8),
    ])
    def test_partition_covers_exactly(self, total, cores):
        ranges = self.run_split(total, cores)
        covered = []
        for start, end in ranges:
            assert start <= end
            covered.extend(range(start, end))
        assert sorted(covered) == list(range(total))

    def test_remainder_goes_to_low_harts(self):
        ranges = self.run_split(10, 4)  # 3,3,2,2
        sizes = [end - start for start, end in ranges]
        assert sizes == [3, 3, 2, 2]

    def test_unique_labels_per_expansion(self):
        """Two splits in one program must not collide on labels."""
        text = range_split(8, 2) + range_split(8, 2)
        assert text.count("rs_done_") == 4  # 2 defs + 2 uses
        program = assemble(wrap_program(
            f"main:\n{text}    li a0, 0\n    ret\n", ""))
        assert program.total_bytes() > 0
