"""Differential proof for the trace-compiled ISS fast path.

``SimulationConfig.translate`` switches the Spike-side block translator
on (the default) or off; these tests run the same workloads both ways
and assert bit-identical simulated outcomes — every statistic, per-core
breakdown, activity histogram and exit code — across kernels, core
counts, guest profiling, injected faults, and checkpoint/resume.  They
also pin down the code-cache invalidation story at the orchestrator
level: a program that patches its own instruction stream must execute
the patched code with translation on exactly as it does with the plain
interpreter.
"""

import hashlib
import json

import pytest

from repro.api import (
    FaultSpec,
    ResilienceConfig,
    Simulation,
    SimulationConfig,
    restore_simulation,
    save_checkpoint,
)
from repro.coyote.orchestrator import Orchestrator
from repro.assembler import assemble
from repro.kernels import KERNELS, instantiate
from repro.spike import translate as translate_module
from repro.telemetry import TelemetryConfig
from tests.coyote.loop_spec import use_loop_spec

# Tiny-but-representative sizes (mirrors test_differential.py).
_SIZE = {
    "scalar-matmul": 6, "vector-matmul": 6,
    "scalar-spmv": 8, "spmv-csr-gather-reduce": 8,
    "spmv-csr-gather-accum": 8, "spmv-ell": 8,
    "spmv-csr-compressed": 8,
    "vector-stencil": 16, "vector-axpy": 16, "stream-triad": 16,
    "vector-dot": 16, "fft-radix2": 8, "nn-dense-relu": 6,
    "mlp-inference": 6, "histogram": 16,
}

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile",
                "guest_profile")


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def _digest(data) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, default=str).encode()).hexdigest()


def _run(kernel, cores, translate, **config_kwargs):
    workload = instantiate(kernel, num_cores=cores, size=_SIZE[kernel])
    config = SimulationConfig.for_cores(workload.num_cores,
                                        translate=translate,
                                        **config_kwargs)
    simulation = Simulation(config, workload.program)
    return simulation, simulation.run()


@pytest.mark.parametrize("kernel", sorted(KERNELS), ids=sorted(KERNELS))
def test_translated_matches_interpreter_on_every_kernel(kernel):
    _sim, interp = _run(kernel, 2, translate=False)
    _sim, translated = _run(kernel, 2, translate=True)
    assert _stats(translated) == _stats(interp)
    assert _digest(_stats(translated)) == _digest(_stats(interp))


@pytest.mark.parametrize("cores", [1, 4, 8])
@pytest.mark.parametrize("kernel", ["scalar-matmul", "fft-radix2"])
def test_translated_matches_interpreter_across_core_counts(kernel, cores):
    _sim, interp = _run(kernel, cores, translate=False)
    _sim, translated = _run(kernel, cores, translate=True)
    assert _stats(translated) == _stats(interp)


@pytest.mark.parametrize("kernel", ["scalar-matmul", "histogram"])
def test_translated_matches_interpreter_with_guest_profile(kernel):
    telemetry = TelemetryConfig(guest_profile=True)
    _sim, interp = _run(kernel, 4, translate=False, telemetry=telemetry)
    _sim, translated = _run(kernel, 4, translate=True,
                            telemetry=telemetry)
    interp_data = interp.to_dict()
    translated_data = translated.to_dict()
    # The per-PC retire counts and stall attribution must be exact
    # under block dispatch, not merely the aggregate statistics.
    assert translated_data["guest_profile"] == interp_data["guest_profile"]
    assert _stats(translated) == _stats(interp)


def test_translated_matches_interpreter_under_faults():
    resilience = ResilienceConfig(
        faults=[FaultSpec(target="l2bank", kind="delay", extra=7,
                          jitter=12, probability=0.5),
                FaultSpec(target="noc", kind="duplicate", extra=3,
                          start=50, end=5000)],
        fault_seed=1234)
    _sim, interp = _run("scalar-spmv", 4, translate=False,
                        resilience=resilience)
    _sim, translated = _run("scalar-spmv", 4, translate=True,
                            resilience=resilience)
    assert _stats(translated) == _stats(interp)


class TestCheckpointResume:
    """Checkpoint hygiene: translated closures must never leak into a
    pickle, and a resumed translated run (including one paused midway
    through a multi-instruction block, where the hart carries a
    ``_resume_at`` budget) must match an uninterrupted one bit for
    bit."""

    @pytest.mark.parametrize("fraction", [0.3, 0.7])
    def test_resume_translated_matches_straight_run(self, tmp_path,
                                                    fraction):
        straight, reference = _run("scalar-matmul", 4, translate=True)
        # An odd pause cycle lands inside multi-instruction blocks
        # often enough to exercise the mid-block pause/resume path.
        pause_at = max(1, int(reference.cycles * fraction)) | 1

        workload = instantiate("scalar-matmul", num_cores=4,
                               size=_SIZE["scalar-matmul"])
        config = SimulationConfig.for_cores(4, translate=True)
        paused = Simulation(config, workload.program)
        assert paused.run(pause_at=pause_at) is None
        assert paused.paused
        path = save_checkpoint(paused, tmp_path / "translated.ckpt")
        resumed = restore_simulation(path)
        results = resumed.run()

        assert _stats(results) == _stats(reference)
        assert _digest(_stats(results)) == _digest(_stats(reference))
        assert workload.verify(resumed.memory)

    def test_resume_translated_matches_interpreter(self, tmp_path):
        _sim, interp = _run("scalar-matmul", 4, translate=False)
        pause_at = max(1, interp.cycles // 2) | 1

        workload = instantiate("scalar-matmul", num_cores=4,
                               size=_SIZE["scalar-matmul"])
        config = SimulationConfig.for_cores(4, translate=True)
        paused = Simulation(config, workload.program)
        assert paused.run(pause_at=pause_at) is None
        path = save_checkpoint(paused, tmp_path / "cross.ckpt")
        results = restore_simulation(path).run()
        assert _stats(results) == _stats(interp)


# A second pass through 'site' must execute the patched instruction
# (addi a0, zero, 99) even though the first pass decoded — and, with
# translation on, compiled — the original (addi a0, zero, 1).  The
# exit code carries a0 out: 99 proves the stale code cache was
# invalidated by the store.
_SMC_SOURCE = """.text
_start:
    la   t0, site
    j    site            # warm the decode and translation caches
back:
    li   t1, 0x06300513  # addi a0, zero, 99
    sw   t1, 0(t0)
    j    site
site:
    addi a0, zero, 1
    beq  a0, a0, cont    # always taken
cont:
    addi a2, a2, 1
    li   t2, 2
    bltu a2, t2, back
    slli a0, a0, 1       # tohost exit value: (code << 1) | 1
    ori  a0, a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
"""


# Hart 0 patches 'site', which only hart 1 runs, on a page only hart 1
# decodes from: after its first pass hart 1 waits for the patch, then
# must run the patched instruction, which it can only have if the one
# store invalidated the machine's shared decode cache and plans as well
# as hart 1's own blocks.  Hart 1 exits 99; hart 0 exits 0.
_SMC_CROSS_HART_SOURCE = """.text
_start:
    csrr t0, mhartid
    bnez t0, visit
    la   t1, seen        # hart 0: wait until hart 1 has run 'site'
wait:
    ld   t2, 0(t1)
    beqz t2, wait
    la   t0, site
    li   t3, 0x06300513  # addi a0, zero, 99
    sw   t3, 0(t0)
    la   t1, patched
    sd   t2, 0(t1)
    li   a0, 1           # tohost value of exit code 0
    j    exit
visit:
    j    site
.align 12
site:
    addi a0, zero, 1
    beq  a0, a0, cont    # always taken
cont:
    addi a2, a2, 1
    li   t2, 2
    bgeu a2, t2, done
    la   t1, seen
    sd   a2, 0(t1)
    la   t1, patched
again:
    ld   t2, 0(t1)
    beqz t2, again
    j    site
done:
    slli a0, a0, 1       # tohost exit value: (code << 1) | 1
    ori  a0, a0, 1
exit:
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost:  .dword 0
seen:    .dword 0
patched: .dword 0
"""


class TestSelfModifyingCode:
    """Orchestrator-level SMC regression: the stale-code-cache bug
    (decode cache only dropped on ``fence.i``) would make this program
    exit 1 instead of 99 — and the translated fast path would cache the
    stale block even harder.  Both execution modes must see the patch.
    """

    @pytest.mark.parametrize("translate", [True, False],
                             ids=["translated", "interpreter"])
    def test_store_into_code_takes_effect(self, translate):
        config = SimulationConfig.for_cores(1, translate=translate)
        orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
        results = orchestrator.run()
        assert results.exit_codes == {0: 99}

    def test_smc_outcome_identical_across_modes(self):
        outcomes = []
        for translate in (True, False):
            config = SimulationConfig.for_cores(1, translate=translate)
            orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
            outcomes.append(_stats(orchestrator.run()))
        assert outcomes[0] == outcomes[1]

    def test_smc_multicore_translated(self):
        # Every core patches its own copy of the loop; all must see it.
        config = SimulationConfig.for_cores(2, translate=True)
        orchestrator = Orchestrator(config, assemble(_SMC_SOURCE))
        results = orchestrator.run()
        assert results.exit_codes == {0: 99, 1: 99}

    def test_a_store_by_one_hart_reaches_what_another_translated(self):
        """The reference, interpreter and translated loops agree, and
        hart 1 re-discovered 'site' after hart 0's store."""
        program = assemble(_SMC_CROSS_HART_SOURCE)
        site = program.symbols["site"]
        outcomes = []
        for translate, reference in ((True, False), (False, False),
                                     (True, True)):
            config = SimulationConfig.for_cores(2, translate=translate)
            orchestrator = Orchestrator(config, program)
            use_loop_spec(orchestrator, reference)
            results = orchestrator.run()
            assert results.exit_codes == {0: 0, 1: 99}
            outcomes.append(_stats(results))
            if translate and not reference:
                hart0, hart1 = orchestrator.translators
                assert not any(site in table
                               for table in hart0.blocks.values())
                assert hart1.blocks["micro"][site]
                totals = translate_module.translator_totals(
                    orchestrator.translators)
                assert totals["invalidations"] > 0
                assert totals["blocks_invalidated"] \
                    == hart1.stats.blocks_invalidated > 0
                plan = orchestrator.machine.code_registry.plans[
                    (site, "micro")]
                assert plan[0][0].word == 0x06300513
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_a_store_after_a_planned_block_is_seen_by_the_next_core(self):
        """Discovery read the word that ended the block: a store into its
        last byte drops the plan, so the next core plans what memory
        holds now — here the masked load unmasked, which joins it."""
        program = assemble(".text\n_start:\n    addi a0, zero, 1\n"
                           "    vle64.v v1, (a0), v0.t\n    ecall\n")
        orchestrator = Orchestrator(SimulationConfig.for_cores(2), program)
        first, second = orchestrator.translators
        pc = program.entry
        first.translate(pc)
        assert first.stats.enders == {pc + 4: "vle64.v"}
        hart = orchestrator.machine.harts[0]
        hart.store_int(pc + 7, hart.memory.load_int(pc + 7, 1) | 0x02, 1)
        second.translate(pc)
        assert second.stats.enders == {pc + 8: "ecall"}

# Like ``_SMC_SOURCE``, but the patched instruction is dispatched while
# a load miss is pending on the same core — at a budget of one, from the
# ``single`` table.  Pass 0 warms the fetch lines, pass 1 runs ``site``
# gated (so ``single`` holds the original), pass 2 patches it with the
# store that falls through into it.
_SMC_GATED_SOURCE = """.text
_start:
    la   t0, site
    la   t3, cold
    li   t1, 0x06300513  # addi a0, zero, 99
    li   t2, 3
    li   t4, 2
back:
    ld   t5, 0(t3)       # a cold line every pass: t5 stays busy
    addi t3, t3, 1024
    bne  a2, t4, site    # only the last pass patches
    sw   t1, 0(t0)
site:
    addi a0, zero, 1
    addi a2, a2, 1
    bltu a2, t2, back
    slli a0, a0, 1       # tohost exit value: (code << 1) | 1
    ori  a0, a0, 1
    la   t6, tohost
    sd   a0, 0(t6)
halt:
    j    halt
.data
.align 3
tohost: .dword 0
.align 6
cold:   .zero 4096
"""


class TestSelfModifyingCodeUnderGating:
    @pytest.mark.parametrize("translate", [True, False],
                             ids=["translated", "interpreter"])
    def test_store_into_the_next_gated_instruction_takes_effect(
            self, translate):
        program = assemble(_SMC_GATED_SOURCE)
        config = SimulationConfig.for_cores(1, translate=translate)
        orchestrator = Orchestrator(config, program)
        results = orchestrator.run()
        assert results.exit_codes == {0: 99}
        if translate:
            # The table that served the patched pc is the one this test
            # is about: ``invalidate_range`` must have swept it.
            blocks = orchestrator.translators[0].blocks
            assert program.symbols["site"] in blocks["single"]

    def test_outcome_identical_across_modes(self):
        outcomes = []
        for translate in (True, False):
            config = SimulationConfig.for_cores(1, translate=translate)
            orchestrator = Orchestrator(config, assemble(_SMC_GATED_SOURCE))
            outcomes.append(_stats(orchestrator.run()))
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("run", [
    lambda: _run("scalar-matmul", 1, translate=True),
    lambda: _run("scalar-matmul", 8, translate=True),
    lambda: _run("scalar-matmul", 8, translate=True,
                 telemetry=TelemetryConfig(sample_interval=64))],
    ids=["1-core", "8-core", "sampled"])
def test_every_block_in_every_table_takes_no_argument(run):
    """One compiled form: whatever the shape, ``run()`` — and an
    untranslatable pc is a stub of the same form, never a sentinel."""
    simulation, _results = run()
    translators = simulation.orchestrator.translators
    dispatched = set()
    for translator in translators:
        assert set(translator.blocks) == set(translate_module.SHAPES)
        for shape, table in translator.blocks.items():
            assert table.keys() == translator._bounds[shape].keys()
            for block in table.values():
                assert block is not False
                assert block.__code__.co_argcount == 0
            if table:
                dispatched.add(shape)
    # The run must have had something to say about its regime.
    assert dispatched
    totals = translate_module.translator_totals(translators)
    assert sum(totals["by_shape"].values()) \
        == totals["blocks_compiled"] + totals["factory_hits"]
    assert {shape for shape, count in totals["by_shape"].items() if count} \
        <= dispatched


_ENDERS_SOURCE = """.text
_start:
    la   t3, cold
    li   t2, 2
again:
    csrr t4, mhartid     # untranslatable, reached twice
    addi a2, a2, 1
    bgeu a2, t2, done
    ld   t5, 0(t3)       # cold: the second pass arrives gated
    j    again
done:
    li   a0, 0
    ecall
.data
.align 6
cold:   .zero 64
"""


def test_an_ender_is_counted_once_per_pc_whatever_shapes_met_it():
    program = assemble(_ENDERS_SOURCE)
    orchestrator = Orchestrator(SimulationConfig.for_cores(1), program)
    assert orchestrator.run().exit_codes == {0: 0}
    translator, = orchestrator.translators
    again = program.symbols["again"]
    assert again in translator.blocks["whole"]      # first pass
    assert again in translator.blocks["single"]     # second, gated
    enders = translate_module.translator_totals([translator])["enders"]
    assert enders["csrrs"] == 1 and enders["ecall"] == 1
    assert sum(enders.values()) == len(translator.stats.enders)


@pytest.mark.parametrize("reference", [False, True],
                         ids=["fast", "reference"])
def test_pause_at_every_cycle_around_whole_blocks(reference):
    """Seventy consecutive pause cycles of a 1-core run: inside a whole
    block, at its end, and within ``MAX_BLOCK`` cycles after one (where
    the window is too short for the next and micro-blocks take over)."""
    def run(pause_at=None):
        workload = instantiate("scalar-matmul", num_cores=1, size=6)
        simulation = Simulation(SimulationConfig.for_cores(1),
                                workload.program)
        use_loop_spec(simulation.orchestrator, reference)
        if pause_at is not None:
            assert simulation.run(pause_at=pause_at) is None
            assert simulation.paused
        results = simulation.run()
        assert workload.verify(simulation.memory)
        return _digest(_stats(results)), results.cycles

    straight, cycles = run()
    first = cycles // 2
    assert [run(pause_at)[0] for pause_at in range(first, first + 70)] \
        == [straight] * 70


# translator_totals (compile time aside) from a cold factory cache.
_PINNED_TOTALS = {
    "scalar-matmul": (8, dict(size=16), {
        "blocks_compiled": 21, "factory_hits": 147,
        "by_shape": {"whole": 0, "micro": 160, "single": 8},
        "enders": {"jal": 40, "bgeu": 16, "bltu": 16, "csrrs": 8,
                   "jalr": 8}}),
    "vector-matmul": (4, dict(size=16), {
        "blocks_compiled": 22, "factory_hits": 66,
        "by_shape": {"whole": 0, "micro": 84, "single": 4},
        "enders": {"jal": 20, "bgeu": 8, "bltu": 8, "csrrs": 4,
                   "jalr": 4}}),
    "spmv-csr-gather-reduce": (16, dict(num_rows=64, nnz_per_row=8), {
        "blocks_compiled": 27, "factory_hits": 404,
        "by_shape": {"whole": 0, "micro": 367, "single": 64},
        "enders": {"jal": 80, "bgeu": 32, "bltu": 16, "csrrs": 16,
                   "jalr": 16}}),
}


@pytest.mark.parametrize("kernel", sorted(_PINNED_TOTALS))
def test_translator_counters_are_pinned(kernel, monkeypatch):
    """Harts share one machine's decoded code and block plans, and each
    core's counters still read as if it had translated alone."""
    cores, sizes, expected = _PINNED_TOTALS[kernel]
    monkeypatch.setattr(translate_module, "_FACTORY_CACHE", {})
    workload = KERNELS[kernel](num_cores=cores, **sizes)
    simulation = Simulation(SimulationConfig.for_cores(cores),
                            workload.program)
    simulation.run()
    totals = translate_module.translator_totals(
        simulation.orchestrator.translators)
    del totals["compile_seconds"]
    assert totals == {**expected, "invalidations": 0,
                      "blocks_invalidated": 0}
