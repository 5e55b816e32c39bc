"""Error-path coverage: traps, config rejection, sweep failure
isolation, structured scheduler errors, and the CLI exit-code taxonomy."""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.assembler import assemble
from repro.coyote import cli
from repro.coyote.config import SimulationConfig
from repro.coyote.errors import SimulationError
from repro.coyote.orchestrator import Orchestrator
from repro.coyote.sweep import Sweep, SweepTable
from repro.kernels import scalar_matmul
from repro.resilience import (
    CheckpointError,
    ResilienceConfig,
    load_checkpoint,
)
from repro.sparta.scheduler import Scheduler, SchedulerError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class TestTrapHandling:
    def test_illegal_instruction_becomes_simulation_error(self):
        program = assemble(""".text
_start:
    nop
    .word 0
""")
        orchestrator = Orchestrator(SimulationConfig.for_cores(1),
                                    program)
        with pytest.raises(SimulationError, match="core 0"):
            orchestrator.run()


class TestConfigRejection:
    def test_bad_l2_mode(self):
        with pytest.raises(ValueError, match="l2_mode"):
            SimulationConfig.for_cores(4, l2_mode="bogus")

    def test_bad_max_cycles(self):
        with pytest.raises(ValueError, match="max_cycles"):
            SimulationConfig.for_cores(4, max_cycles=0)

    def test_resilience_rejects_unknown_keys(self):
        document = SimulationConfig.for_cores(4).to_dict()
        document["resilience"]["watchdog_cylces"] = 100
        with pytest.raises(ValueError,
                           match=r"resilience\.watchdog_cylces"):
            SimulationConfig.from_dict(document)

    def test_resilience_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            ResilienceConfig(watchdog_cycles=-1).validate()
        with pytest.raises(ValueError):
            ResilienceConfig(fault_seed=-1).validate()


class TestSweepFailureIsolation:
    def _sweep(self):
        # max_cycles=60 cannot finish the kernel: a budget
        # SimulationError fails that point; the other point succeeds.
        return Sweep(base_cores=2,
                     axes={"max_cycles": [60, 2_000_000]})

    def test_on_error_raise_aborts(self):
        with pytest.raises(SimulationError):
            self._sweep().run(
                lambda: scalar_matmul(size=6, num_cores=2))

    def test_on_error_skip_records_and_continues(self):
        table = self._sweep().run(
            lambda: scalar_matmul(size=6, num_cores=2), on_error="skip")
        assert len(table.points) == 2
        failures = table.failures()
        assert len(failures) == 1
        settings, error = failures[0]
        assert settings == {"max_cycles": 60}
        assert isinstance(error, SimulationError)
        good = table.best("cycles")
        assert good.settings == {"max_cycles": 2_000_000}
        assert not good.failed

    def test_format_marks_failed_points(self):
        table = self._sweep().run(
            lambda: scalar_matmul(size=6, num_cores=2), on_error="skip")
        rendered = table.to_text(metrics=("cycles", "instructions"))
        assert "FAILED(SimulationError)" in rendered

    def test_failed_point_metric_raises(self):
        table = self._sweep().run(
            lambda: scalar_matmul(size=6, num_cores=2), on_error="skip")
        failed = next(point for point in table.points if point.failed)
        with pytest.raises(ValueError, match="failed"):
            failed.metric("cycles")

    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            self._sweep().run(
                lambda: scalar_matmul(size=6, num_cores=2),
                on_error="ignore")

    def test_best_on_empty_sweep(self):
        with pytest.raises(ValueError, match="empty sweep"):
            SweepTable(axes={"x": [1]}).best()

    def test_best_when_every_point_failed(self):
        table = Sweep(base_cores=2, axes={"max_cycles": [50, 60]}).run(
            lambda: scalar_matmul(size=6, num_cores=2), on_error="skip")
        assert len(table.failures()) == 2
        with pytest.raises(ValueError, match="all 2 sweep points"):
            table.best()


def _unpickled():
    raise AssertionError("an old checkpoint was unpickled")


class _Tripwire:
    """Unpickling one calls :func:`_unpickled`."""

    def __reduce__(self):
        return _unpickled, ()


class TestOldCheckpointRejected:
    @pytest.mark.parametrize("version", [1, 2])
    def test_previous_format_is_refused_by_version(self, tmp_path, version):
        # Formats 1 and 2 were a bare pickled dict with no header.  Each
        # is refused by its version number, read without unpickling —
        # there are no per-attribute layout shims to fall through.
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps(
            {"format": version, "metadata": {},
             "simulation": _Tripwire()}, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(
                CheckpointError,
                match=rf"format {version} is not supported \(expected 3\)"):
            load_checkpoint(path)


class TestSchedulerErrorStructure:
    def test_past_scheduling_carries_context(self):
        scheduler = Scheduler()
        scheduler.schedule(lambda: None, 5)
        with pytest.raises(SchedulerError) as exc_info:
            scheduler.schedule(lambda: None, -1)
        error = exc_info.value
        assert error.current_cycle == 0
        assert error.pending_events == 1
        assert error.next_event_cycle == 5

    def test_rewind_carries_context(self):
        scheduler = Scheduler()
        scheduler.schedule(lambda: None, 3)
        scheduler.run_until_idle()
        assert scheduler.current_cycle >= 3
        scheduler.schedule(lambda: None, 10)
        with pytest.raises(SchedulerError) as exc_info:
            scheduler.advance_to(0)
        error = exc_info.value
        assert error.current_cycle == scheduler.current_cycle
        assert error.pending_events == 1
        assert error.next_event_cycle == scheduler.current_cycle + 10


class TestCliExitCodes:
    ARGS = ["--kernel", "scalar-matmul", "--cores", "2", "--size", "6"]

    def test_success_is_zero(self, capsys):
        assert cli.main(self.ARGS) == cli.EXIT_OK
        capsys.readouterr()

    def test_bad_flag_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["--kernel", "no-such-kernel"])
        assert exc_info.value.code == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_bad_config_file_is_two(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"no_such_field": 1}')
        assert cli.main(["--config", str(config)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_bad_fault_plan_is_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"target": "warp-core"}]}')
        assert cli.main(self.ARGS + ["--inject", str(plan)]) \
            == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_deadlock_is_four(self, tmp_path, capsys):
        plan = tmp_path / "drop.json"
        plan.write_text(json.dumps({"seed": 42, "faults": [
            {"target": "l2bank", "kind": "drop", "start": 300,
             "end": 500, "probability": 0.5}]}))
        code = cli.main(["--kernel", "scalar-matmul", "--cores", "4",
                        "--size", "8", "--inject", str(plan),
                        "--watchdog", "2000"])
        assert code == cli.EXIT_DEADLOCK
        err = capsys.readouterr().err
        assert "DEADLOCK" in err and "orphaned" in err

    def test_verify_failure_is_three(self, capsys, monkeypatch):
        real_make_workload = cli.make_workload

        class Unverifiable:
            def __init__(self, inner):
                self._inner = inner
                self.name = inner.name
                self.program = inner.program

            def verify(self, memory):
                return False

        monkeypatch.setattr(
            cli, "make_workload",
            lambda *args, **kwargs: Unverifiable(
                real_make_workload(*args, **kwargs)))
        assert cli.main(self.ARGS) == cli.EXIT_VERIFY
        assert "FAILED" in capsys.readouterr().err

    def test_interrupt_is_130_with_partial_dump(self, capsys,
                                                monkeypatch):
        from repro.coyote.simulation import Simulation

        def interrupted_run(self, pause_at=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(Simulation, "run", interrupted_run)
        assert cli.main(self.ARGS) == cli.EXIT_INTERRUPT
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "cycle" in err

    def test_checkpoint_resume_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "sim.ckpt"
        code = cli.main(self.ARGS + ["--pause-at", "500",
                                     "--checkpoint-out", str(ckpt)])
        assert code == cli.EXIT_OK
        assert "checkpoint written" in capsys.readouterr().out
        assert ckpt.exists()
        assert cli.main(["--resume", str(ckpt)]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "output verified      : True" in out

    def test_checkpoint_flags_must_pair(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(self.ARGS + ["--pause-at", "500"])
        assert exc_info.value.code == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_taxonomy_via_subprocess(self, tmp_path):
        """The documented contract, exercised end-to-end: real process,
        real exit codes."""
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "repro.coyote.cli", *extra],
                capture_output=True, text=True, env=env, timeout=120)

        ok = run("--kernel", "scalar-matmul", "--cores", "2",
                 "--size", "6")
        assert ok.returncode == 0, ok.stderr

        bad = run("--no-such-flag")
        assert bad.returncode == 2

        plan = tmp_path / "drop.json"
        plan.write_text(json.dumps({"seed": 42, "faults": [
            {"target": "l2bank", "kind": "drop", "start": 300,
             "end": 500, "probability": 0.5}]}))
        wedged = run("--kernel", "scalar-matmul", "--cores", "4",
                     "--size", "8", "--inject", str(plan),
                     "--watchdog", "2000")
        assert wedged.returncode == 4, wedged.stderr
        assert "DEADLOCK" in wedged.stderr
