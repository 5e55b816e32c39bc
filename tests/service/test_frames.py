"""One frame for every file a service root holds, and for checkpoints.

A snapshot, a result-cache entry, a spooled submission, a cluster
message and a checkpoint are each written as ``frame(...) + body`` and
read back through :func:`repro.utils.atomic.read_framed`.  A file is
read exactly, or refused or set aside: a byte changed in a file that
still parses (one digit of an axis value, of a fence) must never reach
the store.  A root the previous version wrote — a snapshot header
without its length, an unframed spooled submission — still opens.
"""

import hashlib
import json
import random
import re

import pytest

from repro import api
from repro.coyote import cli
from repro.coyote.sweep import SweepPoint
from repro.resilience.checkpoint import (
    CampaignCorruptError,
    CheckpointError,
    load_checkpoint,
)
from repro.resilience.supervisor import RetryPolicy, SupervisorPolicy
from repro.service.cache import ResultCache
from repro.service.cluster import ClusterDispatcher
from repro.service.journal import Journal
from repro.service.service import (
    CampaignService,
    build_spec,
    spec_points,
    spool_submission,
)
from repro.service.store import ServiceError
from repro.service.transport import FilesystemTransport
from repro.utils import atomic
from repro.utils.atomic import FrameError, frame, read_framed
from tests.resilience.fixtures import MATMUL

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")


def changed(data: bytes, old: bytes, new: bytes, after: bytes) -> bytes:
    """``data`` with the first ``old`` past ``after`` replaced by
    ``new`` (same length, so the result still parses as it did)."""
    at = data.index(old, data.index(after))
    return data[:at] + new + data[at + len(old):]


class TestReadFramed:
    MAGIC = b"coyote-test"

    def test_a_header_with_or_without_its_length(self, tmp_path):
        body = b'{"x": 1}'
        path = tmp_path / "f"
        path.write_bytes(frame(self.MAGIC, 2, body) + body)
        assert read_framed(path, self.MAGIC, (2,)) == (2, body)
        digest = hashlib.sha256(body).hexdigest().encode()
        path.write_bytes(b"%s 2 %s\n%s" % (self.MAGIC, digest, body))
        assert read_framed(path, self.MAGIC, (2,)) == (2, body)

    @pytest.mark.parametrize("data, format", [
        (b"not framed at all", None),
        (b"coyote-other 2 00 1\nx", None),
        (frame(b"coyote-test", 7, b"x") + b"x", 7),
        (frame(b"coyote-test", 2, b"x") + b"y", 2),
        (frame(b"coyote-test", 2, b"x") + b"xx", 2),
        (frame(b"coyote-test", 2, b"x")[:-3] + b" 9\nx", 2),
    ])
    def test_anything_else_is_refused_by_name(self, tmp_path, data,
                                              format):
        path = tmp_path / "f"
        path.write_bytes(data)
        with pytest.raises(FrameError, match=re.escape(str(path))) as info:
            read_framed(path, self.MAGIC, (2,))
        assert info.value.format == format

    def test_os_errors_pass_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_framed(tmp_path / "absent", self.MAGIC, (2,))
        with pytest.raises(IsADirectoryError):
            read_framed(tmp_path, self.MAGIC, (2,))

    def test_a_cache_entry_costs_one_open_one_read_one_sha256(
            self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        point = SweepPoint({"noc.latency": 2}, None, True)
        cache.put("ab" * 32, point)
        calls = {"open": 0, "read": 0, "sha256": 0}
        real_open, real_sha256 = open, hashlib.sha256

        class Handle:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def read(self, *args):
                calls["read"] += 1
                return self.handle.read(*args)

        def counted_open(*args, **kwargs):
            calls["open"] += 1
            return Handle(real_open(*args, **kwargs))

        def counted_sha256(*args):
            calls["sha256"] += 1
            return real_sha256(*args)

        monkeypatch.setattr(atomic, "open", counted_open, raising=False)
        monkeypatch.setattr(atomic.hashlib, "sha256", counted_sha256)
        assert cache.get("ab" * 32) == point
        assert calls == {"open": 1, "read": 1, "sha256": 1}


class TestSpooledSubmission:
    def test_status_of_a_damaged_spool_file_names_it(self, tmp_path):
        """A spooled submission that is not JSON, or a framed one with
        a changed byte: ``api.status`` raises ``ServiceError`` naming the
        file, not a raw decode error, and leaves the file be."""
        root = tmp_path / "root"
        inbox = root / "inbox"
        inbox.mkdir(parents=True)
        path = inbox / "job-x.json"
        spec = build_spec(KERNEL, AXES, cores=CORES, size=SIZE)
        spool_submission(root, spec, "job-y")
        whole = (inbox / "job-y.json").read_bytes()
        for data in (b"{not json", changed(whole, b"6", b"7", b"axes")):
            path.write_bytes(data)
            with pytest.raises(ServiceError, match=re.escape(str(path))):
                api.status("job-x", root=root)
            assert path.read_bytes() == data

    def test_a_changed_digit_is_set_aside_not_ingested(self, tmp_path):
        """One digit of an axis value changed: still valid JSON, but the
        service sets the file aside and counts it rejected; no job with
        that spec reaches the store."""
        root = tmp_path / "root"
        spec = build_spec(KERNEL, {"mem_latency": [16, 32]}, cores=CORES,
                          size=SIZE)
        spool_submission(root, spec, "job-digit")
        path = root / "inbox" / "job-digit.json"
        path.write_bytes(changed(path.read_bytes(), b"32", b"33",
                                 b"mem_latency"))
        with CampaignService(root) as service:
            assert service.store.jobs == {}
            assert service.monitor.counters["rejected"] == 1
        assert [entry.name for entry in (root / "inbox").iterdir()] \
            == ["job-digit.corrupt"]


class TestMailbox:
    def test_a_changed_fence_digit_is_set_aside_never_applied(
            self, tmp_path):
        """A zombie's completion under its stale fence 1, with that
        digit changed to the live fence 2: the dispatcher sets the
        message aside, and the point stays leased to the live node."""
        root = tmp_path / "root"
        now = [1000.0]
        dispatcher = ClusterDispatcher(
            root, clock=lambda: now[0], lease_seconds=30.0,
            node_deadline_seconds=120.0, grace_seconds=120.0,
            policy=SupervisorPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.0,
                                  max_delay=0.0)))
        nodes = {name: FilesystemTransport(root, name)
                 for name in ("zombie", "live")}
        with dispatcher:
            job = dispatcher.submit(KERNEL, {"noc.latency": [2]},
                                    cores=CORES, size=SIZE)
            fences = {}
            for name, transport in nodes.items():
                now[0] += 31.0   # the zombie's lease, once granted, lapses
                dispatcher.step()
                transport.send("dispatcher", {"type": "register",
                                              "node": name, "workers": 1})
                transport.send("dispatcher", {"type": "request",
                                              "node": name, "slots": 1})
                dispatcher.step()
                [fences[name]] = [message["fence"] for message
                                  in transport.receive(name)
                                  if message["type"] == "grant"]
            assert fences == {"zombie": 1, "live": 2}
            nodes["zombie"].send("dispatcher", {
                "type": "complete", "node": "zombie", "job": job,
                "index": 0, "fence": 1, "cache_key": None,
                "verified": True, "failure": None})
            box = root / "mail" / "dispatcher"
            [path] = box.glob("*.msg")
            path.write_bytes(changed(path.read_bytes(), b'"fence": 1',
                                     b'"fence": 2', b"{"))
            seq = dispatcher.store.journal.seq
            dispatcher.step()
            point = dispatcher.store.jobs[job]["points"][0]
            assert point["state"] == "leased"
            assert point["lease"]["worker"] == "live"
            assert dispatcher.store.journal.seq == seq
            assert [entry.suffix for entry in box.iterdir()] \
                == [".corrupt"]


# -- the damage probe: every kind of file, every kind of damage -------------

REFUSED = object()
COPIES = 100


def damaged(original: bytes, damage: str, rng: random.Random) -> bytes:
    if damage == "truncated":
        return original[:rng.randrange(len(original))]
    if damage == "changed":
        data = bytearray(original)
        for position in rng.sample(range(len(data)), 5):
            data[position] ^= rng.randrange(1, 256)
        return bytes(data)
    return rng.randbytes(rng.randrange(1, len(original)))


def snapshot_kind(root):
    """The snapshot: refused loudly (``CampaignCorruptError``)."""
    journal = Journal(root / "journal.jsonl")
    journal.load()
    journal.append("submit", job="a")
    state = {"jobs": {"a": {"axes": {"mem_latency": [16, 32]}}}}
    journal.compact(state)
    journal.close()

    def read():
        try:
            return Journal(root / "journal.jsonl").load(readonly=True)[0]
        except CampaignCorruptError:
            return REFUSED
    return journal.snapshot_path, read, state


def spool_kind(root):
    """A spooled submission: ingested whole, or set aside and counted
    rejected with nothing journaled."""
    spec = build_spec(KERNEL, {"mem_latency": [16, 32]}, cores=CORES,
                      size=SIZE)
    spool_submission(root, spec, "job-probe")
    inbox = root / "inbox"

    def read():
        with CampaignService(root) as service:
            jobs = service.store.jobs
            rejected = service.monitor.counters["rejected"]
        if not jobs:
            assert rejected == 1
            assert [entry.name for entry in inbox.iterdir()] \
                == ["job-probe.corrupt"]
            return REFUSED
        assert list(jobs) == ["job-probe"]
        return jobs["job-probe"]["spec"]
    return inbox / "job-probe.json", read, spec


def message_kind(root):
    """A cluster message: delivered whole, or set aside undelivered."""
    message = {"type": "complete", "node": "n", "job": "job-a",
               "index": 0, "fence": 12, "cache_key": None,
               "verified": True, "failure": None}
    FilesystemTransport(root, "n").send("dispatcher", message)
    box = root / "mail" / "dispatcher"
    [path] = box.glob("*.msg")

    def read():
        messages = FilesystemTransport(root, "reader").receive("dispatcher")
        if not messages:
            assert [entry.suffix for entry in box.iterdir()] \
                == [".corrupt"]
            return REFUSED
        assert not list(box.iterdir())
        [delivered] = messages
        return delivered
    return path, read, message


def cache_kind(root):
    """A cache entry: served whole, or quarantined as a miss."""
    point = SweepPoint({"mem_latency": 16}, None, True)
    key = "cd" * 32
    ResultCache(root).put(key, point)

    def read():
        cache = ResultCache(root)
        got = cache.get(key)
        if got is None:
            assert cache.corrupt == 1
            assert len(list(cache.quarantine_dir.iterdir())) == 1
            return REFUSED
        return got
    return ResultCache(root)._entry_path(key), read, point


def checkpoint_kind(root):
    """A checkpoint: resumed whole, or refused with a CheckpointError."""
    path = root / "probe.ckpt"
    path.write_bytes(MATMUL.path.read_bytes())

    def read():
        try:
            return load_checkpoint(path)[1]
        except CheckpointError:
            return REFUSED
    return path, read, MATMUL.metadata


KINDS = {"snapshot": snapshot_kind, "spooled": spool_kind,
         "message": message_kind, "cache": cache_kind,
         "checkpoint": checkpoint_kind}


@pytest.mark.parametrize("damage", ["truncated", "changed", "random"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_a_damaged_file_is_read_exactly_or_refused(tmp_path, kind, damage):
    """Seeded damage to a whole file of each kind — cut short, five
    bytes changed, or random bytes — is read back as exactly what was
    written, or refused or set aside; never half-parsed, never a raw
    exception."""
    whole = tmp_path / "whole"
    whole.mkdir()
    _path, read, written = KINDS[kind](whole)
    assert read() == written
    rng = random.Random(f"{kind}-{damage}")
    refused = 0
    for copy in range(COPIES):
        root = tmp_path / f"root-{copy}"
        root.mkdir()
        path, read, written = KINDS[kind](root)
        path.write_bytes(damaged(path.read_bytes(), damage, rng))
        got = read()
        refused += got is REFUSED
        assert got is REFUSED or got == written
    assert refused == COPIES


class TestPreviousVersionRoot:
    def test_a_root_the_previous_version_wrote_opens_and_drains(
            self, tmp_path):
        """A snapshot with the previous 3-field header and an unframed
        spooled submission, beside one spooled by this version: the
        root opens, status and result read as before, ``serve --drain``
        settles both spooled jobs, and a compaction frames the
        snapshot."""
        root = tmp_path / "root"
        job = api.submit(KERNEL, root=root, axes=AXES, cores=CORES,
                         size=SIZE)
        table = api.result(job, root=root, wait=True).to_dict(METRICS)
        status = api.status(job, root=root)
        snapshot = root / "journal.jsonl.snap"
        _header, _, body = snapshot.read_bytes().partition(b"\n")
        snapshot.write_bytes(b"coyote-snapshot 1 %s\n%s" % (
            hashlib.sha256(body).hexdigest().encode(), body))
        old_axes, new_axes = {"noc.latency": [4]}, {"noc.latency": [8]}
        old = build_spec(KERNEL, old_axes, cores=CORES, size=SIZE)
        (root / "inbox" / "job-old.json").write_text(json.dumps(
            {"job_id": "job-old", "spec": old}, sort_keys=True, indent=1))
        spool_submission(root, build_spec(KERNEL, new_axes, cores=CORES,
                                          size=SIZE), "job-new")

        assert api.status(job, root=root) == status
        assert api.result(job, root=root).to_dict(METRICS) == table
        spooled = api.status("job-old", root=root)
        assert (spooled.state, spooled.total) \
            == ("spooled", len(spec_points(old)))
        assert cli.main(["serve", "--root", str(root), "--drain"]) \
            == cli.EXIT_OK
        for spooled_job, axes in (("job-old", old_axes),
                                  ("job-new", new_axes)):
            assert api.status(spooled_job, root=root).complete
            assert api.result(spooled_job, root=root).to_dict(METRICS) \
                == api.sweep(KERNEL, cores=CORES, size=SIZE, axes=axes,
                             on_error="skip").to_dict(METRICS)
        assert not list((root / "inbox").iterdir())
        # The next compaction writes the snapshot framed, length and all.
        with CampaignService(root) as service:
            service.store.compact()
        assert len(snapshot.read_bytes().partition(b"\n")[0].split()) == 4
        assert api.status(job, root=root) == status
