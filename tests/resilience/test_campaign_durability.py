"""Campaign directory durability: corruption, sharing, kill-mid-write.

A sweep's ``campaign_path`` is a directory in the result cache's own
format (entry integrity itself — truncation, flipped bits, bad
headers, unreadable pickles, racing writers — is
``tests/service/test_cache.py``'s subject).  What is checked here is
the sweep on top of it: a rotten entry is recomputed, never served and
never fatal; two sweeps on one directory need no lock; and a SIGKILL
in the middle of writing an entry leaves every earlier entry intact,
from which a warm restart completes bit-identical to an uninterrupted
run.
"""

import os
import subprocess
import sys

from repro.coyote.parallel import ParallelSweep
from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy

AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def make_axpy(settings=None):
    return vector_axpy(length=32, num_cores=2)


def campaign_engine(campaign_path, workers=1):
    return ParallelSweep(Sweep(base_cores=2, axes=dict(AXES)),
                         workers=workers, on_error="skip",
                         campaign_path=campaign_path)


def reference_table():
    return Sweep(base_cores=2, axes=dict(AXES)).run(make_axpy, workers=1)


def entries(campaign):
    return sorted((campaign / "objects").rglob("*.res"))


class TestCampaignIntegrity:
    def test_corrupt_entry_is_recomputed_not_served(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        campaign_engine(campaign).run(make_axpy)
        rotten = entries(campaign)[0]
        blob = bytearray(rotten.read_bytes())
        blob[-3] ^= 0xFF
        rotten.write_bytes(bytes(blob))
        engine = campaign_engine(campaign)
        table = engine.run(make_axpy)
        # One point came from the directory, the rotten one was set
        # aside and simulated again — and its entry rewritten.
        assert engine.monitor.counters["cache_hits"] == 1
        assert len(list((campaign / "quarantine").iterdir())) == 1
        assert len(entries(campaign)) == 2
        assert table.to_dict(METRICS) == reference_table().to_dict(METRICS)


class TestSharedDirectory:
    def test_two_sweeps_on_one_directory_need_no_lock(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        first, second = campaign_engine(campaign), campaign_engine(campaign)
        assert first.run(make_axpy).to_dict(METRICS) \
            == second.run(make_axpy).to_dict(METRICS)
        assert second.monitor.counters["cache_hits"] == 2
        assert not list(tmp_path.glob("*.lock"))


# The victim: a campaign whose process SIGKILLs itself at the atomic
# replace boundary of its *second* entry — the instant after point one
# committed and while point two's entry is mid-flight.
KILL_MID_WRITE_SCRIPT = """
import os, signal, sys
real_replace = os.replace
saves = {"count": 0}

def killer(src, dst):
    if str(dst).endswith(".res"):
        saves["count"] += 1
        if saves["count"] == 2:
            os.kill(os.getpid(), signal.SIGKILL)
    return real_replace(src, dst)

from repro.service import cache
cache.os.replace = killer

from repro.coyote.sweep import Sweep
from repro.kernels import vector_axpy
sweep = Sweep(base_cores=2, axes={"noc.latency": [2, 6]})
sweep.run(lambda settings: vector_axpy(length=32, num_cores=2),
          workers=1, on_error="skip", campaign_path=sys.argv[1])
"""


class TestKillMidEntryWrite:
    def test_sigkill_mid_write_preserves_earlier_entries(self, tmp_path):
        campaign = tmp_path / "axpy.campaign"
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep \
            + env.get("PYTHONPATH", "")
        victim = subprocess.run(
            [sys.executable, "-c", KILL_MID_WRITE_SCRIPT, str(campaign)],
            env=env, timeout=300)
        assert victim.returncode == -9  # it really died mid-write

        # The one committed entry is whole; the half-written one never
        # reached its name.
        assert len(entries(campaign)) == 1

        # Warm restart finishes the campaign, bit-identical.
        engine = campaign_engine(campaign, workers=2)
        table = engine.run(make_axpy)
        assert engine.monitor.counters["cache_hits"] == 1
        assert engine.monitor.counters["attempts"] == 1  # only the rest
        assert table.to_dict(METRICS) == reference_table().to_dict(METRICS)
