"""The event journal: append, replay, torn tails, compaction.

The property under test is crash consistency: after a hard kill at
*any* write boundary, reopening the journal reconstructs exactly the
events that committed — a torn final line is dropped (the event never
happened), mid-file garbage is a loud structured error, and the
snapshot/journal-reset window of compaction is harmless.
"""

import json

import pytest

from repro.resilience.checkpoint import CampaignCorruptError
from repro.service.journal import Journal


def open_journal(tmp_path, **kwargs):
    journal = Journal(tmp_path / "journal.jsonl", **kwargs)
    state, events = journal.load()
    return journal, state, events


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        journal, state, events = open_journal(tmp_path)
        assert state is None and events == []
        first = journal.append("submit", job="a")
        second = journal.append("claim", job="a", index=0)
        assert (first["seq"], second["seq"]) == (1, 2)
        journal.close()

        reopened = Journal(tmp_path / "journal.jsonl")
        state, events = reopened.load()
        assert state is None
        assert events == [first, second]
        assert reopened.seq == 2
        reopened.close()

    def test_appends_continue_the_sequence_after_reopen(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.close()
        reopened = Journal(tmp_path / "journal.jsonl")
        reopened.load()
        event = reopened.append("claim", job="a", index=0)
        assert event["seq"] == 2
        reopened.close()

    def test_append_before_load_raises(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        with pytest.raises(CampaignCorruptError, match="not open"):
            journal.append("submit", job="a")


class TestTornTail:
    def test_partial_final_line_is_dropped_and_truncated(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        committed = journal.append("submit", job="a")
        journal.append("claim", job="a", index=0)
        journal.close()
        path = tmp_path / "journal.jsonl"
        blob = path.read_bytes()
        # Kill mid-append of the second event: keep a strict prefix.
        torn = blob[:len(blob) - 7]
        path.write_bytes(torn)

        reopened = Journal(path)
        _, events = reopened.load()
        assert events == [committed]
        # The torn bytes are gone: the next append starts a clean line.
        reopened.append("claim", job="a", index=0)
        reopened.close()
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_readonly_load_does_not_truncate(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.append("claim", job="a", index=0)
        journal.close()
        path = tmp_path / "journal.jsonl"
        torn = path.read_bytes()[:-5]
        path.write_bytes(torn)

        reader = Journal(path)
        _, events = reader.load(readonly=True)
        assert len(events) == 1
        assert path.read_bytes() == torn  # untouched

    def test_every_byte_prefix_recovers(self, tmp_path):
        """A kill at *any* byte offset yields a clean recovery: the
        committed prefix of events, never an error, never a torn
        half-event."""
        journal, _, _ = open_journal(tmp_path)
        appended = [journal.append("submit", job="a", points=[{}] * 3)]
        for index in range(3):
            appended.append(journal.append("claim", job="a",
                                           index=index, worker="w"))
            appended.append(journal.append("complete", job="a",
                                           index=index, cache_key="k"))
        journal.close()
        blob = (tmp_path / "journal.jsonl").read_bytes()
        boundaries = [0]
        offset = 0
        for line in blob.splitlines(keepends=True):
            offset += len(line)
            boundaries.append(offset)

        for cut in range(len(blob) + 1):
            scratch = tmp_path / "prefix.jsonl"
            scratch.write_bytes(blob[:cut])
            reader = Journal(scratch)
            _, events = reader.load(readonly=True)
            # An event whose JSON body fully committed counts even when
            # its trailing newline did not make it to disk.
            committed = sum(1 for b in boundaries[1:] if b - 1 <= cut)
            assert events == appended[:committed], f"cut at byte {cut}"

    def test_append_after_newline_less_tail_stays_one_per_line(
            self, tmp_path):
        """The committed-body-no-newline crash window: the next append
        must not concatenate onto the tail event's line."""
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.close()
        path = tmp_path / "journal.jsonl"
        path.write_bytes(path.read_bytes().rstrip(b"\n"))

        reopened = Journal(path)
        _, events = reopened.load()
        assert len(events) == 1
        reopened.append("claim", job="a", index=0)
        reopened.close()
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["seq"] == number
                   for number, line in enumerate(lines, start=1))

    def test_midfile_corruption_is_a_loud_error(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.append("claim", job="a", index=0)
        journal.close()
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"{broken!\n" + lines[1])
        with pytest.raises(CampaignCorruptError, match="not valid JSON"):
            Journal(path).load()

    def test_non_object_line_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"[1,2]\n")
        with pytest.raises(CampaignCorruptError, match="not an event"):
            Journal(path).load()

    def test_missing_seq_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"type":"submit"}\n')
        with pytest.raises(CampaignCorruptError, match="sequence"):
            Journal(path).load()

    def test_backwards_seq_is_corrupt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"seq":2,"type":"a"}\n{"seq":1,"type":"b"}\n')
        with pytest.raises(CampaignCorruptError, match="backwards"):
            Journal(path).load()


class TestOneTailRule:
    """Every line that ends in a newline committed and must be an event;
    only the bytes after the last newline can be a torn append."""

    COMMITTED = b'{"seq":1,"type":"a"}\n'

    def load(self, path, readonly=False):
        journal = Journal(path)
        _, events = journal.load(readonly=readonly)
        assert journal.bytes == path.stat().st_size
        journal.close()
        return journal, events

    @pytest.mark.parametrize("readonly", [False, True])
    def test_a_garbage_final_line_with_its_newline_is_corrupt(
            self, tmp_path, readonly):
        path = tmp_path / "journal.jsonl"
        blob = self.COMMITTED + b'{"seq":2,"ty\n'
        path.write_bytes(blob)
        journal = Journal(path)
        with pytest.raises(CampaignCorruptError,
                           match="line 2 is not valid JSON"):
            journal.load(readonly=readonly)
        assert path.read_bytes() == blob
        assert journal.bytes == len(blob)

    def test_an_unterminated_valid_tail_is_kept_and_terminated(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        blob = self.COMMITTED + b'{"seq":2,"type":"b"}'
        path.write_bytes(blob)
        _, events = self.load(path, readonly=True)
        assert [event["seq"] for event in events] == [1, 2]
        assert path.read_bytes() == blob
        _, events = self.load(path)
        assert [event["seq"] for event in events] == [1, 2]
        assert path.read_bytes() == blob + b"\n"

    def test_an_unterminated_torn_tail_is_cut_at_its_first_byte(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        blob = self.COMMITTED + b'{"seq":2,"ty'
        path.write_bytes(blob)
        _, events = self.load(path, readonly=True)
        assert [event["seq"] for event in events] == [1]
        assert path.read_bytes() == blob
        _, events = self.load(path)
        assert [event["seq"] for event in events] == [1]
        assert path.read_bytes() == self.COMMITTED

    def test_a_file_that_is_only_a_torn_tail_empties(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"se')
        journal, events = self.load(path)
        assert events == [] and path.read_bytes() == b""
        assert journal.seq == 0

    @pytest.mark.parametrize("blob", [
        b"", COMMITTED, COMMITTED + b'{"seq":2,"type":"b"}',
        COMMITTED + b'{"seq":2,"ty', b'{"se'],
        ids=["empty", "committed", "unterminated", "torn", "only-torn"])
    def test_a_readonly_load_never_writes(self, tmp_path, blob):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(blob)
        self.load(path, readonly=True)
        assert path.read_bytes() == blob

    def test_appends_after_each_repair_keep_bytes_the_file_size(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for blob in (b"", self.COMMITTED,
                     self.COMMITTED + b'{"seq":2,"type":"b"}',
                     self.COMMITTED + b'{"seq":2,"ty'):
            path.write_bytes(blob)
            journal = Journal(path)
            journal.load()
            journal.append("claim", job="a", index=0)
            assert journal.bytes == path.stat().st_size
            journal.close()
            _, events = self.load(path)
            assert [event["seq"] for event in events] \
                == list(range(1, len(events) + 1))


class TestCompaction:
    def test_compact_folds_state_and_resets_journal(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.append("claim", job="a", index=0)
        journal.compact({"jobs": {"a": "folded"}})
        assert (tmp_path / "journal.jsonl").read_bytes() == b""
        after = journal.append("complete", job="a", index=0)
        assert after["seq"] == 3  # sequence survives compaction
        journal.close()

        reopened = Journal(tmp_path / "journal.jsonl")
        state, events = reopened.load()
        assert state == {"jobs": {"a": "folded"}}
        assert events == [after]
        reopened.close()

    def test_kill_between_snapshot_and_journal_reset(self, tmp_path):
        """The compaction crash window: snapshot replaced, old journal
        still on disk.  Replay must skip the already-folded events."""
        journal, _, _ = open_journal(tmp_path)
        folded = [journal.append("submit", job="a"),
                  journal.append("claim", job="a", index=0)]
        old_journal = (tmp_path / "journal.jsonl").read_bytes()
        journal.compact({"jobs": {"a": "folded"}})
        journal.close()
        # Simulate the kill: the pre-compaction journal reappears.
        (tmp_path / "journal.jsonl").write_bytes(old_journal)

        reopened = Journal(tmp_path / "journal.jsonl")
        state, events = reopened.load()
        assert state == {"jobs": {"a": "folded"}}
        assert events == []  # all <= snapshot.seq: skipped
        # And appends continue past the skipped history.
        assert reopened.append("complete", job="a", index=0)["seq"] \
            == len(folded) + 1
        reopened.close()

    def test_corrupt_snapshot_is_a_loud_error(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.compact({"jobs": {}})
        journal.close()
        snap = tmp_path / "journal.jsonl.snap"
        blob = bytearray(snap.read_bytes())
        blob[-3] ^= 0xFF
        snap.write_bytes(bytes(blob))
        with pytest.raises(CampaignCorruptError, match="checksum"):
            Journal(tmp_path / "journal.jsonl").load()

    def test_truncated_snapshot_is_a_loud_error(self, tmp_path):
        journal, _, _ = open_journal(tmp_path)
        journal.append("submit", job="a")
        journal.compact({"jobs": {}})
        journal.close()
        snap = tmp_path / "journal.jsonl.snap"
        snap.write_bytes(snap.read_bytes()[:-10])
        with pytest.raises(CampaignCorruptError, match="checksum"):
            Journal(tmp_path / "journal.jsonl").load()

    def test_foreign_snapshot_is_a_loud_error(self, tmp_path):
        (tmp_path / "journal.jsonl.snap").write_bytes(b"not a snapshot")
        with pytest.raises(CampaignCorruptError, match="not a service"):
            Journal(tmp_path / "journal.jsonl").load()
