"""A mesh checkpoint written by older code resumes to the straight run.

The fixture was written by ``coyote-sim --kernel scalar-spmv --cores 8
--size 16 --noc-topology mesh --noc-columns 2 --pause-at 526
--checkpoint-out ...`` while the mesh kept its link frontier, link and
router counts in dicts keyed by router coordinates and each in-flight
message carried its own coordinates.  At the pause, messages sit on
routers mid-route, others wait for delivery, and one link is granted
four cycles into the future.
"""

from pathlib import Path

from repro import api
from repro.memhier.noc import NocMessage
from repro.resilience import load_checkpoint
from repro.resilience.introspect import in_network_messages, noc_state

_FIXTURE = Path(__file__).parent / "data" \
    / "scalar-spmv-c8-s16-mesh2-pause526.ckpt"
_HOST_FIELDS = ("wall_seconds", "host_mips", "host_profile")


def _stats(results):
    data = results.to_dict()
    for field in _HOST_FIELDS:
        data.pop(field, None)
    return data


def test_the_fixture_is_paused_mid_contention():
    simulation, metadata = load_checkpoint(_FIXTURE)
    assert metadata == {"kernel": "scalar-spmv", "cores": 8, "size": 16}
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
