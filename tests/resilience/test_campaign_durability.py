"""Campaign checkpoint durability: checksums, locks, kill-mid-write.

Three properties of the warm-start campaign file: silent on-disk
corruption is detected on load (structured ``CampaignCorruptError``
naming the offending file) and treated as a cold start, never a wrong
answer; two processes pointed at one campaign file fail fast on the
advisory lock instead of interleaving checkpoints; and a SIGKILL mid
checkpoint-write leaves the previous consistent snapshot, from which a
warm restart completes bit-identical to an uninterrupted run.
"""

import logging
import os
import pickle
import subprocess
import sys

import pytest

from repro.coyote.parallel import axes_key
from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy
from repro.resilience.checkpoint import (
    CampaignCorruptError,
    load_campaign,
    save_campaign,
)
from repro.resilience.locking import CampaignLockError, PathLock

AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def make_axpy(settings=None):
    return vector_axpy(length=32, num_cores=2)


def run_campaign(campaign_path, factory=make_axpy, workers=1):
    sweep = Sweep(base_cores=2, axes=dict(AXES))
    return sweep.run(factory, workers=workers, on_error="skip",
                     campaign_path=campaign_path)


def reference_table():
    return Sweep(base_cores=2, axes=dict(AXES)).run(make_axpy, workers=1)


class TestCampaignIntegrity:
    def test_flipped_bit_is_a_structured_error_with_the_path(
            self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        run_campaign(campaign)
        blob = bytearray(campaign.read_bytes())
        blob[-3] ^= 0xFF
        campaign.write_bytes(bytes(blob))
        with pytest.raises(CampaignCorruptError, match="checksum") as info:
            load_campaign(campaign, axes_key(AXES))
        assert info.value.path == campaign

    def test_truncated_file_is_a_structured_error(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        run_campaign(campaign)
        campaign.write_bytes(campaign.read_bytes()[:-20])
        with pytest.raises(CampaignCorruptError, match="checksum") as info:
            load_campaign(campaign, axes_key(AXES))
        assert info.value.path == campaign

    def test_corrupt_checkpoint_warm_restart_is_a_cold_start(
            self, tmp_path, caplog):
        campaign = tmp_path / "axpy.campaign"
        run_campaign(campaign)
        campaign.write_bytes(b"coyote-campaign 2 " + b"0" * 64 + b"\nrot")
        with caplog.at_level(logging.WARNING,
                             logger="repro.coyote.parallel"):
            table = run_campaign(campaign)
        assert any("starting cold" in record.message
                   for record in caplog.records)
        # The cold rerun recomputed every point and rewrote a loadable
        # campaign file.
        assert table.to_dict(METRICS) == reference_table().to_dict(METRICS)
        assert len(load_campaign(campaign, axes_key(AXES))) == 2

    def test_headerless_file_is_corrupt_never_unpickled(
            self, tmp_path, caplog):
        """A bare pickle (the retired pre-checksum format) is damage:
        rejected before ``pickle`` sees it, then cold-started over."""
        campaign = tmp_path / "axpy.campaign"
        campaign.write_bytes(pickle.dumps(
            {"format": 1, "axes_key": axes_key(AXES), "completed": {}}))
        with pytest.raises(CampaignCorruptError,
                           match="no campaign header") as info:
            load_campaign(campaign, axes_key(AXES))
        assert info.value.path == campaign
        with caplog.at_level(logging.WARNING,
                             logger="repro.coyote.parallel"):
            table = run_campaign(campaign)
        assert any("starting cold" in record.message
                   for record in caplog.records)
        assert table.to_dict(METRICS) == reference_table().to_dict(METRICS)

    def test_checksummed_roundtrip_survives_reload(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        save_campaign(campaign, axes_key(AXES), {"k": "v"})
        assert load_campaign(campaign, axes_key(AXES)) == {"k": "v"}


class TestCampaignLock:
    def test_second_campaign_on_same_path_fails_fast(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        with PathLock(campaign):  # the "other process"
            with pytest.raises(CampaignLockError, match="in use"):
                run_campaign(campaign)

    def test_lock_is_released_after_the_run(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        run_campaign(campaign)
        with PathLock(campaign):
            pass  # no stale lock left behind


# The victim: a campaign whose process SIGKILLs itself at the atomic
# replace boundary of its *second* checkpoint write — the instant after
# point one committed and while point two's checkpoint is mid-flight.
KILL_MID_WRITE_SCRIPT = """
import os, signal, sys
real_replace = os.replace
saves = {"count": 0}

def killer(src, dst):
    if str(dst).endswith(".campaign"):
        saves["count"] += 1
        if saves["count"] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
    return real_replace(src, dst)

from repro.resilience import checkpoint
checkpoint.os.replace = killer

from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy
sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
sweep.run(lambda settings: vector_axpy(length=32, num_cores=2),
          workers=1, on_error="skip", campaign_path=sys.argv[1])
"""


class TestKillMidCheckpointWrite:
    def test_sigkill_mid_write_preserves_previous_snapshot(
            self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep \
            + env.get("PYTHONPATH", "")
        victim = subprocess.run(
            [sys.executable, "-c", KILL_MID_WRITE_SCRIPT, str(campaign)],
            env=env, timeout=300)
        assert victim.returncode == -9  # it really died mid-write

        # The previous consistent snapshot (one completed point) loads
        # cleanly: the half-written checkpoint never reached the path.
        completed = load_campaign(campaign, axes_key(AXES))
        assert len(completed) == 1

        # Warm restart finishes the campaign, bit-identical.
        calls = {"count": 0}

        def counting_factory(settings):
            calls["count"] += 1
            return make_axpy()

        table = run_campaign(campaign, factory=counting_factory)
        assert calls["count"] == 1  # only the missing point ran
        assert table.to_dict(METRICS) == reference_table().to_dict(METRICS)
