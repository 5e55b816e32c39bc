"""CLI surface of the cluster tier and the jobs listing filters.

These pin the operator-facing contract: `coyote-sim cluster` flag
defaults (fencing on unless explicitly disabled), configuration errors
exiting with the config code before any journal is touched, and the
`jobs list --json/--status` machine-readable listing.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.coyote.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    build_cluster_parser,
    cluster_main,
    jobs_main,
    main,
)
from repro.service.transport import ServiceFaultPlan

EXAMPLE_PLAN = Path(__file__).resolve().parents[2] \
    / "examples" / "service_fault_plan.json"


class TestClusterParser:
    def test_defaults_are_safe(self):
        args = build_cluster_parser().parse_args(["--root", "r"])
        assert not hasattr(args, "fence")  # fencing has no switch
        assert args.node is False
        assert args.nodes == 2
        assert args.workers == 1
        assert args.node_deadline_seconds is None
        assert args.fault_plan is None
        assert args.drain is False

    def test_no_fence_is_refused_and_node_mode(self):
        with pytest.raises(SystemExit):
            build_cluster_parser().parse_args(["--root", "r", "--no-fence"])
        node = build_cluster_parser().parse_args(
            ["--root", "r", "--node", "--node-id", "n7"])
        assert node.node and node.node_id == "n7"

    def test_example_fault_plan_is_valid(self):
        plan = ServiceFaultPlan.load(EXAMPLE_PLAN)
        assert plan.seed == 7
        assert {spec.kind for spec in plan.faults} \
            == {"drop", "delay", "duplicate", "partition"}

    def test_bad_fault_plan_exits_config(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({"faults": [{"kind": "nope"}]}))
        code = cluster_main(["--root", str(tmp_path / "root"),
                             "--fault-plan", str(bad), "--nodes", "0",
                             "--drain", "--log-level", "warning"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        # Rejected before the cluster root was ever created.
        assert not (tmp_path / "root").exists()

    def test_bad_node_workers_exits_config(self, tmp_path, capsys):
        code = cluster_main(["--root", str(tmp_path / "root"), "--node",
                             "--workers", "0",
                             "--log-level", "warning"])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestJobsList:
    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "service"
        active = api.submit("vector-axpy", root=root,
                            axes={"noc.latency": [2, 6]}, cores=2,
                            size=64)
        doomed = api.submit("vector-axpy", root=root,
                            axes={"noc.latency": [3, 5]}, cores=2,
                            size=64)
        api.cancel(doomed, root=root)
        return root, active, doomed

    def run_list(self, capsys, *flags):
        code = main(["jobs", "list", *flags])
        assert code == EXIT_OK
        return capsys.readouterr().out

    def test_json_listing_is_machine_readable(self, capsys, root):
        root, active, doomed = root
        out = self.run_list(capsys, "--root", str(root), "--json")
        document = json.loads(out)
        assert [entry["job_id"] for entry in document] \
            == [active, doomed]
        by_id = {entry["job_id"]: entry for entry in document}
        assert by_id[active]["state"] == "active"
        assert by_id[active]["pending"] == 2
        assert by_id[doomed]["state"] == "cancelled"

    def test_status_filter(self, capsys, root):
        root, active, doomed = root
        listed = json.loads(self.run_list(
            capsys, "--root", str(root), "--json", "--status", "active"))
        assert [entry["job_id"] for entry in listed] == [active]
        listed = json.loads(self.run_list(
            capsys, "--root", str(root), "--json", "--status",
            "cancelled"))
        assert [entry["job_id"] for entry in listed] == [doomed]
        assert json.loads(self.run_list(
            capsys, "--root", str(root), "--json", "--status",
            "complete")) == []

    def test_text_listing_respects_the_filter(self, capsys, root):
        root, active, doomed = root
        out = self.run_list(capsys, "--root", str(root), "--status",
                            "cancelled")
        assert doomed in out and active not in out
