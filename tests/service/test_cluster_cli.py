"""CLI surface of the cluster tier and the jobs listing filters.

These pin the operator-facing contract: `coyote-sim cluster` flag
defaults (fencing on unless explicitly disabled), the supervision flags
`sweep`, `serve` and `cluster` share, configuration errors exiting with
the config code before any journal is touched, and the
`jobs list --json/--status` machine-readable listing.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.coyote.cli import EXIT_CONFIG, EXIT_OK, campaign, main
from repro.coyote.cli.campaign import build_cluster_parser, cluster_main
from repro.service.cluster import ClusterDispatcher, ClusterNode
from repro.service.transport import InProcessTransport, ServiceFaultPlan

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


class TestSupervisionFlags:
    """One supervision group, three commands: each command's defaults
    stand, and each flag given reaches the executor that runs points."""

    COMMANDS = {"sweep": ["--axes", "noc.latency=2,6"],
                "serve": ["--root", "unused"],
                "cluster": ["--root", "unused"]}

    def executor(self, command, root, *flags):
        """The executor the command would run its points under."""
        parser = getattr(campaign, f"build_{command}_parser")()
        args = parser.parse_args([*self.COMMANDS[command], *flags])
        if command == "sweep":
            return api.ParallelSweep(
                campaign.sweep_from_args(args), workers=2,
                policy=campaign.policy_from_args(args)).executor
        tier = api.CampaignService if command == "serve" \
            else ClusterDispatcher
        extra = {} if command == "serve" \
            else {"transport": InProcessTransport()}
        return tier(root, **campaign._service_arguments(args), **extra)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_defaults_stand(self, command, tmp_path):
        executor = self.executor(command, tmp_path)
        assert executor.policy.point_timeout_seconds is None
        if command == "sweep":
            # Unsupervised: a death is final, a WorkerCrash.
            assert executor.policy.retry == api.RetryPolicy()
            assert not executor.policy.supervised
        else:
            assert executor.policy.retry == api.RetryPolicy(
                max_attempts=3, base_delay=0.1, max_delay=5.0)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_max_retries_counts_attempts(self, command, tmp_path):
        executor = self.executor(command, tmp_path, "--max-retries", "4")
        assert executor.policy.retry.max_attempts == 5

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_point_timeout_reaches_the_policy(self, command, tmp_path):
        executor = self.executor(command, tmp_path, "--point-timeout",
                                 "0.3", "--max-rss-mb", "512")
        assert executor.policy.point_timeout_seconds == 0.3
        assert executor.policy.max_rss_mb == 512.0

    def test_point_timeout_reaches_the_grant_a_node_takes(self, tmp_path):
        dispatcher = self.executor("cluster", tmp_path, "--point-timeout",
                                   "0.3", "--heartbeat-interval", "0.1")
        node = ClusterNode(tmp_path, "n0", transport=dispatcher.transport)
        with dispatcher:
            dispatcher.submit("vector-axpy", {"noc.latency": [2]}, cores=2,
                              size=64)
            for kind, fields in (("register", {"workers": 1}),
                                 ("request", {"slots": 1})):
                dispatcher.transport.send(
                    "dispatcher", {"type": kind, "node": "n0", **fields})
            dispatcher.step()
            node._drain_mailbox()
            grant, = node.store.grants
            assert grant["deadlines"]["point_timeout_seconds"] == 0.3
            assert node.policy.point_timeout_seconds == 0.3
            assert node.policy.heartbeat_interval_seconds == 0.1
            assert node.pool.heartbeat_seconds == 0.1
            # The dispatcher charges deaths: no grant carries a retry.
            assert node.policy.retry == api.RetryPolicy()


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
