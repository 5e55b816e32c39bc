"""Invariant checker: clean runs pass, corrupted state is named."""

import pytest

from repro.api import ResilienceConfig, Simulation, SimulationConfig
from repro.coyote.cli import main as cli_main
from repro.coyote.errors import SimulationError
from repro.kernels import instantiate
from repro.resilience.invariants import InvariantChecker, InvariantViolation


def _paused_simulation(pause_at=400):
    workload = instantiate("scalar-matmul", num_cores=4, size=8)
    config = SimulationConfig.for_cores(4)
    simulation = Simulation(config, workload.program)
    assert simulation.run(pause_at=pause_at) is None
    return simulation


def _names(violations):
    return {entry["invariant"] for entry in violations}


class TestCleanRuns:
    def test_full_run_passes_every_check(self):
        workload = instantiate("scalar-matmul", num_cores=4, size=8)
        config = SimulationConfig.for_cores(4)
        config.resilience = ResilienceConfig(invariant_interval=100)
        simulation = Simulation(config, workload.program)
        results = simulation.run()
        assert results.succeeded()
        assert workload.verify(simulation.memory)
        assert simulation.orchestrator.invariants.checks_run > 0

    def test_checks_do_not_perturb_statistics(self):
        def run(interval):
            workload = instantiate("scalar-matmul", num_cores=4, size=8)
            config = SimulationConfig.for_cores(4)
            if interval:
                config.resilience = ResilienceConfig(
                    invariant_interval=interval)
            simulation = Simulation(config, workload.program)
            data = simulation.run().to_dict()
            for field in ("wall_seconds", "host_mips", "host_profile"):
                data.pop(field, None)
            return data
        assert run(0) == run(100)

    def test_paused_state_is_clean(self):
        simulation = _paused_simulation()
        checker = InvariantChecker(simulation.orchestrator, 1)
        assert checker.check(raise_on_violation=False) == []

    @pytest.mark.parametrize("kernel", ["vector-matmul", "scalar-spmv"])
    def test_check_invariants_over_a_translated_run(self, kernel, capsys):
        """Translated blocks maintain the L1I's MRU shadow themselves;
        a check every 50 cycles sees it valid throughout."""
        assert cli_main(["--kernel", kernel, "--cores", "4", "--size", "8",
                         "--check-invariants", "50"]) == 0
        assert "output verified      : True" in capsys.readouterr().out


class TestCorruptionDetection:
    def test_tampered_mshr_gauge(self):
        simulation = _paused_simulation()
        bank = simulation.orchestrator.hierarchy.banks[0]
        bank._stat_occupancy.add(1)
        checker = InvariantChecker(simulation.orchestrator, 1)
        violations = checker.check(raise_on_violation=False)
        assert "mshr_gauge" in _names(violations)

    def test_tampered_pending_gauge(self):
        simulation = _paused_simulation()
        bank = simulation.orchestrator.hierarchy.banks[0]
        bank._stat_queue.set(7)
        checker = InvariantChecker(simulation.orchestrator, 1)
        assert "pending_gauge" in _names(
            checker.check(raise_on_violation=False))

    def test_stale_mru_shadow(self):
        """The shadow names a way that is resident but no longer the
        newest: a block would skip an LRU touch it owes."""
        simulation = _paused_simulation()
        l1i = simulation.orchestrator.cores[2].l1i
        index, ways = next((index, ways) for index, ways
                           in enumerate(l1i._sets) if ways)
        older = next(iter(ways))
        assert l1i._mru[index] == older
        ways[older + l1i.num_sets] = False    # a newer way, behind its back
        checker = InvariantChecker(simulation.orchestrator, 1)
        violation, = checker.check(raise_on_violation=False)
        assert violation["invariant"] == "l1_mru_shadow"
        assert violation["component"] == "core2.l1i"
        # An entry reset to "unknown" claims nothing.
        l1i._mru[index] = -1
        assert checker.check(raise_on_violation=False) == []

    def test_tampered_request_accounting(self):
        simulation = _paused_simulation()
        simulation.orchestrator.hierarchy._stat_submitted.increment()
        checker = InvariantChecker(simulation.orchestrator, 1)
        assert "request_conservation" in _names(
            checker.check(raise_on_violation=False))

    def test_fabricated_scoreboard_miss_is_an_orphan(self):
        simulation = _paused_simulation()
        scoreboard = simulation.orchestrator.scoreboard
        scoreboard.register_miss(2, (("x", 7),))
        checker = InvariantChecker(simulation.orchestrator, 1)
        violations = checker.check(raise_on_violation=False)
        assert "no_orphaned_misses" in _names(violations)
        orphan_entry = next(entry for entry in violations
                            if entry["invariant"] == "no_orphaned_misses")
        assert "core 2" in orphan_entry["detail"]

    def test_tampered_busy_registers(self):
        simulation = _paused_simulation()
        scoreboard = simulation.orchestrator.scoreboard
        scoreboard._busy[1][("f", 3)] = 1
        checker = InvariantChecker(simulation.orchestrator, 1)
        violations = checker.check(raise_on_violation=False)
        assert "scoreboard_refcounts" in _names(violations)
        entry = next(v for v in violations
                     if v["invariant"] == "scoreboard_refcounts")
        assert entry["component"] == "core1"

    @pytest.mark.parametrize("counter", ["instret", "l1i-reads"])
    def test_unmatched_retire_count(self, counter):
        # A retire count that moved without its fetches, or the other
        # way round, on one core.
        simulation = _paused_simulation()
        core = simulation.orchestrator.cores[1]
        if counter == "instret":
            core.hart.instret += 3
        else:
            core.l1i.stats.reads += 3
        checker = InvariantChecker(simulation.orchestrator, 1)
        violations = checker.check(raise_on_violation=False)
        assert _names(violations) == {"retire_conservation"}
        assert [entry["component"] for entry in violations] == ["core1"]

    def test_violation_raises_with_structure(self):
        simulation = _paused_simulation()
        bank = simulation.orchestrator.hierarchy.banks[0]
        bank._stat_occupancy.add(1)
        checker = InvariantChecker(simulation.orchestrator, 1)
        with pytest.raises(InvariantViolation) as exc_info:
            checker.check()
        error = exc_info.value
        assert isinstance(error, SimulationError)
        assert error.cycle == 400
        assert error.violations
        assert "mshr_gauge" in str(error)
        assert bank.path in error.violations[0]["detail"]


class TestCheckerMechanics:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            InvariantChecker(None, 0)

    def test_interval_gates_check_frequency(self):
        simulation = _paused_simulation()
        checker = InvariantChecker(simulation.orchestrator, 100)
        checker.maybe_check(50)     # before the first boundary
        assert checker.checks_run == 0
        checker.maybe_check(100)
        assert checker.checks_run == 1
        checker.maybe_check(150)    # inside the next window
        assert checker.checks_run == 1
        checker.maybe_check(205)
        assert checker.checks_run == 2
