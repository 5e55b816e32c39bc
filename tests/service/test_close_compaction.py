"""A clean close compacts only once the journal outgrows its snapshot.

Rewriting the whole snapshot at every close made a warm resubmit pay
for the root's history.  A close now compacts when the journal holds
at least as many bytes as the snapshot, or when there is no snapshot
yet; otherwise it leaves the journal as a kill after the last append
would.  This file checks that the rule holds over many resubmits, that
it changes nothing a reader sees, and that a root left uncompacted
reopens to the state it was closed with.
"""

import pytest

from repro.service.journal import Journal
from repro.service.service import CampaignService, readonly_store
from repro.service.store import JobStore

KERNEL = "vector-axpy"
CORES = 2
SIZE = 64
AXES = {"noc.latency": [2, 6]}
METRICS = ("cycles", "instructions", "l1d_miss_rate")
RESUBMITS = 20


def sizes(root):
    """``(journal bytes, snapshot bytes)`` on disk."""
    return ((root / "journal.jsonl").stat().st_size,
            (root / "journal.jsonl.snap").stat().st_size)


def resubmit(root, job_id, closed=lambda: None):
    """What ``api.submit`` then ``api.result(wait=True)`` do: two
    opens, each followed by its close and then ``closed()``; returns
    the job's status and table."""
    with CampaignService(root, workers=1) as service:
        service.submit(KERNEL, AXES, cores=CORES, size=SIZE,
                       job_id=job_id)
    closed()
    with CampaignService(root, workers=1) as service:
        table = service.result(job_id, wait=True)
        status = service.status(job_id)
    closed()
    return status.to_dict(), table.to_dict(METRICS)


@pytest.fixture
def compactions(monkeypatch):
    """Counts every compaction that writes a snapshot."""
    calls = []
    compact = Journal.compact

    def counted(self, state):
        calls.append(self.path)
        compact(self, state)

    monkeypatch.setattr(Journal, "compact", counted)
    return calls


def test_warm_resubmits_compact_by_size(tmp_path, monkeypatch,
                                        compactions):
    root, twin = tmp_path / "by-size", tmp_path / "every-close"

    def always(store):
        store.compact()

    def smaller_than_its_snapshot():
        # Either it was, or the close compacted it to nothing.
        journal_bytes, snapshot_bytes = sizes(root)
        assert journal_bytes < snapshot_bytes

    def compacted():
        assert sizes(twin)[0] == 0

    for number in range(RESUBMITS + 1):     # a cold job, then warm ones
        job_id = f"job-{number:02d}"
        seen = resubmit(root, job_id, smaller_than_its_snapshot)
        with monkeypatch.context() as patch:
            patch.setattr(JobStore, "compact_if_outgrown", always)
            assert resubmit(twin, job_id, compacted) == seen, number
        if number:
            assert seen[0]["cache_hits"] == len(AXES["noc.latency"])
    by_size = sum(path.parent == root for path in compactions)
    assert by_size < RESUBMITS               # not one a close
    assert sum(path.parent == twin for path in compactions) \
        == 2 * (RESUBMITS + 1)
    assert readonly_store(root).state_dict() \
        == readonly_store(twin).state_dict()


def test_a_root_closed_without_compaction_reopens_as_it_closed(tmp_path):
    root = tmp_path / "root"
    resubmit(root, "job-cold")               # the first close compacts
    with CampaignService(root, workers=1) as service:
        service.submit(KERNEL, AXES, cores=CORES, size=SIZE,
                       job_id="job-warm")
    with CampaignService(root, workers=1) as service:
        service.result("job-warm", wait=True)   # claims and completions
        journal = service.store.journal
    closed = service.store.state_dict()
    journal_bytes, snapshot_bytes = sizes(root)
    assert 0 < journal_bytes < snapshot_bytes    # compaction was skipped
    assert (journal.bytes, journal.snapshot_bytes) \
        == (journal_bytes, snapshot_bytes)
    assert readonly_store(root).state_dict() == closed
    with CampaignService(root, workers=1) as service:
        assert service.store.state_dict() == closed
        assert service.store.journal.bytes == journal_bytes


def test_a_readonly_store_never_compacts(tmp_path, compactions):
    store = JobStore(Journal(tmp_path / "journal.jsonl")).open()
    store.submit("job", {"axes": {}}, [{"x": 1}])
    store.close()
    assert compactions == []
    reader = readonly_store(tmp_path)
    assert not reader.journal.outgrown
    reader.compact_if_outgrown()
    assert compactions == []
    assert not (tmp_path / "journal.jsonl.snap").exists()
