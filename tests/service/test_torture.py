"""Crash-recovery torture: kill the service anywhere, lose nothing.

The acceptance property of the durable service: a service killed at
*any* journal write boundary — and at every byte offset inside one —
recovers by replay to a state from which the campaign runs to
completion, producing a sweep table bit-identical to an in-process
serial sweep, with no point executed-and-recorded twice.

The journal under torture is a *real* one: a subprocess runs a
campaign and hard-exits without cleanup (its PID dies with it, which
also exercises dead-owner lease recovery), and every prefix of the
bytes it left behind is a state some real crash could have produced.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro import api
from repro.service.journal import Journal
from repro.service.service import CampaignService
from repro.service.store import JobStore

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"noc.latency": [2, 6]}
JOB = "job-torture"
METRICS = ("cycles", "instructions", "l1d_miss_rate")

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# Runs a campaign and hard-exits (no close(), no compaction): the
# journal left behind is exactly what a crashed service leaves.
CAPTURE_SCRIPT = """
import os, sys
from repro.service.service import CampaignService
service = CampaignService(sys.argv[1], workers=2, compact_every=0)
service.open()
service.submit("{kernel}", {axes!r}, cores={cores}, size={size},
               job_id="{job}")
service.run()
os._exit(0)
""".format(kernel=KERNEL, axes=AXES, cores=CORES, size=SIZE, job=JOB)


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """(root, journal bytes, serial reference table) of a completed
    campaign executed — and abandoned — by a dead process."""
    root = tmp_path_factory.mktemp("capture") / "service"
    subprocess.run([sys.executable, "-c", CAPTURE_SCRIPT, str(root)],
                   check=True, env=subprocess_env(), timeout=300)
    journal = (root / "journal.jsonl").read_bytes()
    reference = api.sweep(KERNEL, cores=CORES, size=SIZE, axes=AXES,
                          on_error="skip")
    return root, journal, reference


def journal_lines(blob: bytes) -> list[bytes]:
    return blob.split(b"\n")[:-1] if blob.endswith(b"\n") \
        else blob.split(b"\n")


def recovery_root(tmp_path, captured_root, prefix: bytes):
    """A service root as a crash at ``len(prefix)`` bytes leaves it."""
    root = tmp_path / "recovered"
    root.mkdir(parents=True)
    shutil.copytree(captured_root / "cache", root / "cache")
    (root / "journal.jsonl").write_bytes(prefix)
    return root


class TestJournalPrefixTorture:
    def test_every_byte_offset_reconstructs_a_committed_state(
            self, captured):
        """Replay never errors and never invents state: at any byte
        offset the fold sees exactly the events that committed."""
        root, blob, _ = captured
        lines = journal_lines(blob)
        assert len(lines) >= 1 + 2 * 2  # submit + claim/complete each
        scratch = root.parent / "prefix.jsonl"
        for cut in range(len(blob) + 1):
            scratch.write_bytes(blob[:cut])
            store = JobStore(Journal(scratch))
            store.open(readonly=True)  # must never raise
            if JOB in store.jobs:
                status = store.status(JOB)
                assert status.total == 2, f"cut at byte {cut}"

    def test_kill_at_every_line_boundary_then_run_to_completion(
            self, captured, tmp_path):
        """From every boundary state the restarted service finishes the
        campaign, bit-identical to the serial reference, without
        executing any completed point twice."""
        captured_root, blob, reference = captured
        lines = journal_lines(blob)
        for boundary in range(len(lines) + 1):
            prefix = b"".join(line + b"\n"
                              for line in lines[:boundary])
            root = recovery_root(tmp_path / f"b{boundary}",
                                 captured_root, prefix)
            with CampaignService(root, workers=2, compact_every=0,
                                 lease_seconds=5.0) as service:
                # Idempotent resubmit covers prefixes that predate the
                # original submit event.
                service.submit(KERNEL, AXES, cores=CORES, size=SIZE,
                               job_id=JOB)
                service.run()
                table = service.result(JOB)
                completes = {}
                for line in journal_lines(
                        (root / "journal.jsonl").read_bytes()):
                    event = json.loads(line)
                    if event["type"] == "complete":
                        key = (event["job"], event["index"])
                        completes[key] = completes.get(key, 0) + 1
            assert table.to_dict(METRICS) == reference.to_dict(METRICS), \
                f"boundary {boundary}/{len(lines)}"
            assert all(count == 1 for count in completes.values()), \
                f"point completed twice at boundary {boundary}"

    def test_dead_owner_leases_are_released_not_charged(
            self, captured, tmp_path):
        """A lease held by the dead capture process is released on
        recovery without spending a retry attempt."""
        captured_root, blob, _ = captured
        lines = journal_lines(blob)
        claim_only = [line for line in lines
                      if json.loads(line)["type"] in ("submit", "claim")]
        prefix = b"".join(line + b"\n" for line in claim_only)
        root = recovery_root(tmp_path, captured_root, prefix)
        with CampaignService(root, workers=2,
                             compact_every=0) as service:
            # open() already recovered: every dead lease went back to
            # pending with no attempt recorded.
            for point in service.store.jobs[JOB]["points"]:
                assert point["state"] == "pending"
                assert point["attempts"] == []
            assert service.monitor.counters["released"] \
                == len(claim_only) - 1


class TestCompactionTorture:
    def test_crash_between_snapshot_and_journal_reset(self, captured,
                                                      tmp_path):
        captured_root, blob, reference = captured
        root = recovery_root(tmp_path, captured_root, blob)
        with CampaignService(root, workers=2) as service:
            before = dict(service.store.jobs)
            service.store.compact()
            # The crash: the pre-compaction journal is still on disk.
            (root / "journal.jsonl").write_bytes(blob)
        with CampaignService(root, workers=2) as service:
            assert service.store.jobs == before
            table = service.result(JOB)
        assert table.to_dict(METRICS) == reference.to_dict(METRICS)

    def test_crash_mid_snapshot_write_is_ignored(self, captured,
                                                 tmp_path):
        captured_root, blob, reference = captured
        root = recovery_root(tmp_path, captured_root, blob)
        # A half-written scratch snapshot from a killed compaction.
        (root / "journal.jsonl.snap.tmp").write_bytes(b"half a snapsh")
        with CampaignService(root, workers=2) as service:
            table = service.result(JOB)
        assert table.to_dict(METRICS) == reference.to_dict(METRICS)


class TestServiceKill:
    """SIGKILL a live serving process; restart; nothing is lost."""

    AXES_WIDE = {"noc.latency": [2, 4, 6, 8]}
    # ~1s of simulation per point: a wide window to kill into, so the
    # campaign is provably mid-flight when SIGKILL lands.
    SIZE_SLOW = 16384

    def cli(self, *argv):
        return [sys.executable, "-m", "repro.coyote.cli", *argv]

    def test_sigkill_mid_run_then_restart_completes(self, tmp_path):
        root = tmp_path / "service"
        job = api.submit(KERNEL, root=root, axes=self.AXES_WIDE,
                         cores=CORES, size=self.SIZE_SLOW)
        server = subprocess.Popen(
            self.cli("serve", "--root", str(root), "--workers", "1",
                     "--log-level", "warning"),
            env=subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # Let it make real progress, then kill it mid-campaign.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = api.status(job, root=root)
                if status.done >= 1:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("server made no progress")
        finally:
            server.kill()
            server.wait()
        killed_status = api.status(job, root=root)
        assert not killed_status.complete  # we really killed it mid-run

        drain = subprocess.run(
            self.cli("serve", "--root", str(root), "--workers", "2",
                     "--drain", "--lease-seconds", "2",
                     "--log-level", "warning"),
            env=subprocess_env(), timeout=300)
        assert drain.returncode == 0
        status = api.status(job, root=root)
        assert status.complete
        assert status.done == 4 and status.quarantined == 0

        reference = api.sweep(KERNEL, cores=CORES, size=self.SIZE_SLOW,
                              axes=self.AXES_WIDE, on_error="skip")
        assert api.result(job, root=root).to_dict(METRICS) \
            == reference.to_dict(METRICS)

        # Resubmitting the same sweep is served from the cache.
        again = api.submit(KERNEL, root=root, axes=self.AXES_WIDE,
                           cores=CORES, size=self.SIZE_SLOW)
        rerun = subprocess.run(
            self.cli("serve", "--root", str(root), "--drain",
                     "--log-level", "warning"),
            env=subprocess_env(), timeout=300)
        assert rerun.returncode == 0
        assert api.status(again, root=root).cache_hits >= 1
        assert api.result(again, root=root).to_dict(METRICS) \
            == reference.to_dict(METRICS)

    def test_sigterm_drains_and_exits_clean(self, tmp_path):
        root = tmp_path / "service"
        server = subprocess.Popen(
            self.cli("serve", "--root", str(root),
                     "--log-level", "warning"),
            env=subprocess_env())
        try:
            deadline = time.monotonic() + 60
            while not (root / "journal.jsonl").exists():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.2)  # let it reach the serve loop
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_sigint_exits_130(self, tmp_path):
        root = tmp_path / "service"
        server = subprocess.Popen(
            self.cli("serve", "--root", str(root),
                     "--log-level", "warning"),
            env=subprocess_env())
        try:
            deadline = time.monotonic() + 60
            while not (root / "journal.jsonl").exists():
                assert time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.2)
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=60) == 130
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
