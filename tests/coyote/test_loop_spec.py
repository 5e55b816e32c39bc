"""The loop spec installs without a seam in the product and leaves no
trace in what the product writes."""

from repro.api import (
    Simulation,
    SimulationConfig,
    restore_simulation,
    save_checkpoint,
)
from repro.coyote.orchestrator import Orchestrator
from repro.kernels import instantiate
from tests.coyote.loop_spec import SpecOrchestrator, use_loop_spec

_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")


def _document(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def test_a_paused_spec_run_checkpoints_as_a_product_run(tmp_path):
    workload = instantiate("scalar-matmul", num_cores=2, size=6)
    config = SimulationConfig.for_cores(2)
    straight = _document(Simulation(config, workload.program).run())
    simulation = Simulation(config, workload.program)
    use_loop_spec(simulation)
    assert type(simulation.orchestrator) is SpecOrchestrator
    assert simulation.run(pause_at=500) is None
    path = save_checkpoint(simulation, tmp_path / "spec.ckpt")
    body = path.read_bytes()
    assert b"loop_spec" not in body and b"SpecOrchestrator" not in body
    resumed = restore_simulation(path)
    assert type(resumed.orchestrator) is Orchestrator
    assert _document(resumed.run()) == straight


def test_disabled_leaves_the_product_loop():
    workload = instantiate("scalar-matmul", num_cores=1, size=4)
    simulation = Simulation(SimulationConfig.for_cores(1), workload.program)
    use_loop_spec(simulation.orchestrator, False)
    assert type(simulation.orchestrator) is Orchestrator
