"""A committed mesh checkpoint resumes to the straight run.

The fixture (``tests/resilience/fixtures.py``: ``MESH``) is paused
mid-contention: messages sit on routers mid-route, others wait for
delivery, and one link is granted four cycles into the future.
"""

from repro import api
from repro.memhier.noc import NocMessage
from repro.resilience import load_checkpoint
from repro.resilience.introspect import in_network_messages, noc_state
from tests.resilience.fixtures import MESH

_FIXTURE = MESH.path
_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def test_the_fixture_is_paused_mid_contention():
    simulation, metadata = load_checkpoint(_FIXTURE)
    assert metadata == MESH.metadata
    orchestrator = simulation.orchestrator
    assert orchestrator.scheduler.current_cycle == 526
    assert in_network_messages(orchestrator) == 12
    hopping = [args[0] for _cycle, _seq, callback, args
               in orchestrator.scheduler.iter_events()
               if isinstance(args[0], NocMessage)
               and callback.__name__ != "_deliver"]
    assert len(hopping) == 10
    assert noc_state(orchestrator)["busy_links"] == {
        "(0,0)->(1,0)": {"backlog_cycles": 4, "slots_used": 1}}


def test_a_committed_mesh_checkpoint_resumes_like_a_straight_run():
    straight = api.run("scalar-spmv", 8, size=16,
                       **{"noc.kind": "mesh", "noc.columns": 2})
    resumed = api.replay(_FIXTURE)
    assert resumed.verified
    assert _stats(resumed.results) == _stats(straight.results)
    noc, straight_noc = (outcome.simulation.orchestrator.hierarchy.noc
                         for outcome in (resumed, straight))
    assert noc.congestion_report() == straight_noc.congestion_report()
    assert noc.link_utilisation() == straight_noc.link_utilisation()
