"""Crash-consistent event journal: append-only JSONL plus snapshots.

The durable campaign service records every state transition (submit,
claim, heartbeat, complete, quarantine, ...) as one JSON line appended
to a journal file.  Recovery is replay: the full queue state is a pure
fold over the event stream, so a service killed at *any* write boundary
reconstructs exactly the state whose events reached the disk.

Two mechanisms make that safe:

* **Torn-tail tolerance.**  An append writes its line and newline at
  once, so every line that ends in a newline, the last one too, must
  be an event object (else
  :class:`~repro.resilience.checkpoint.CampaignCorruptError` — the disk
  lied).  Only the bytes after the last newline can be an append a
  hard kill cut short, and a strict prefix of a JSON object is never
  valid JSON: if they parse, the event committed (a writer adds its
  newline); if not, it never did (a writer truncates them away).

* **Sequence-numbered compaction.**  An unbounded journal would make
  recovery O(campaign history), so the state is periodically folded
  into a checksummed snapshot (atomic via temp file + ``os.replace``),
  after which the journal is atomically reset.  Every event carries a
  monotonic ``seq`` and the snapshot records the last seq it folded in;
  replay skips journal events already covered by the snapshot.  A kill
  between the two replaces is therefore harmless: the old journal's
  events are all ``<= snapshot.seq`` and replay ignores them.

When compaction runs: every ``compact_every`` appends (the job store's
setting), and at a clean close once the journal holds at least as many
bytes as the snapshot, or there is no snapshot yet
(:attr:`Journal.outgrown`).  A close that skips it leaves the files a
kill after the last append leaves, which replay already handles.

Durability scope: flush-to-OS per append, which survives process kills
(SIGKILL included).  Pass ``fsync=True`` to also survive host power
loss at the cost of one ``fsync`` per event.

A journal built without a path has no file behind it: the same
sequence-numbered events are kept in memory and handed back by
:meth:`Journal.load`, nothing is serialised, and compaction has
nothing to fold.  An in-process sweep is a job in a store over such a
journal (``repro.coyote.parallel.ParallelSweep``).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.resilience.checkpoint import CampaignCorruptError
from repro.utils.atomic import write_atomically

JOURNAL_FORMAT = 1
_SNAPSHOT_MAGIC = b"coyote-snapshot"


class Journal:
    """One append-only JSONL event log with snapshot compaction.

    The owner (the job store) folds events into state; the journal only
    guarantees that what :meth:`append` returned is what :meth:`replay`
    yields after any crash.
    """

    def __init__(self, path: str | Path | None = None, *,
                 fsync: bool = False):
        self.path = Path(path) if path is not None else None
        self.snapshot_path = (self.path.with_name(self.path.name + ".snap")
                              if path is not None else None)
        self.fsync = fsync
        self._handle = None
        self._memory: list[dict] = []   # the history when there is no file
        self._seq = 0
        self.appends = 0
        # Bytes in the journal file and in the snapshot (``None``: no
        # snapshot yet), counted at load, append and compact.
        self.bytes = 0
        self.snapshot_bytes: int | None = None

    @property
    def seq(self) -> int:
        """The sequence number of the most recent event."""
        return self._seq

    # -- recovery ----------------------------------------------------------

    def load(self, *, readonly: bool = False
             ) -> tuple[dict | None, list[dict]]:
        """Read ``(snapshot_state, events)`` and open for appending.

        ``snapshot_state`` is ``None`` when no snapshot exists; the
        events are exactly those not yet folded into the snapshot, in
        append order.  Also primes the internal sequence counter so new
        appends continue the history.  ``readonly=True`` only replays —
        it neither opens the file for appending nor mends its tail, so
        a live writer is never disturbed.
        """
        if self.path is None:
            return None, list(self._memory)
        state, snap_seq = self._read_snapshot()
        committed, tail = self._read_lines()
        # A tail that parses committed; only its newline was cut off.
        tail_event = self._parse(tail, len(committed) + 1) if tail else None
        if tail_event is not None:
            committed.append(tail_event)
        events = []
        last_seq = snap_seq
        for event in committed:
            seq = event.get("seq")
            if not isinstance(seq, int):
                raise CampaignCorruptError(
                    f"{self.path}: journal event without a sequence "
                    f"number", path=self.path)
            if seq <= snap_seq:
                continue  # already folded into the snapshot
            if seq <= last_seq:
                raise CampaignCorruptError(
                    f"{self.path}: journal sequence went backwards "
                    f"({seq} after {last_seq})", path=self.path)
            last_seq = seq
            events.append(event)
        self._seq = max(snap_seq, last_seq)
        if not readonly:
            self._end_tail(tail, committed=tail_event is not None)
            self._open_for_append()
        return state, events

    def _read_lines(self) -> tuple[list[dict], bytes]:
        """The events of every line that ends in a newline, and the
        bytes after the last newline (the tail, ``b""`` for none)."""
        data = self.path.read_bytes() if self.path.exists() else b""
        self.bytes = len(data)
        lines = data.split(b"\n")
        tail = lines.pop()
        events = []
        for number, line in enumerate(lines, start=1):
            event = self._parse(line, number)
            if event is None:
                raise CampaignCorruptError(
                    f"{self.path}: journal line {number} is not valid "
                    f"JSON (mid-file corruption)", path=self.path)
            events.append(event)
        return events, tail

    def _parse(self, line: bytes, number: int) -> dict | None:
        """Journal line ``number`` as an event; ``None`` if not JSON."""
        try:
            event = json.loads(line)
        except ValueError:
            return None
        if not isinstance(event, dict):
            raise CampaignCorruptError(
                f"{self.path}: journal line {number} is not an event "
                f"object", path=self.path)
        return event

    def _end_tail(self, tail: bytes, *, committed: bool) -> None:
        """End the file on a newline before appending: a ``committed``
        tail gets the newline a kill cut off, a torn one is truncated
        away from its first byte."""
        if committed:
            with self.path.open("ab") as handle:
                handle.write(b"\n")
            self.bytes += 1
        elif tail:
            self.bytes -= len(tail)
            os.truncate(self.path, self.bytes)

    # -- appending ---------------------------------------------------------

    def _open_for_append(self) -> None:
        self.close()
        self._handle = self.path.open("ab")

    def append(self, type: str, **fields: Any) -> dict:
        """Durably append one event; returns it (with its ``seq``)."""
        if self.path is not None and self._handle is None:
            raise CampaignCorruptError(
                f"{self.path}: journal is not open (call load() first)",
                path=self.path)
        self._seq += 1
        event = {"seq": self._seq, "type": type, **fields}
        if self.path is None:
            self._memory.append(event)
        else:
            line = json.dumps(event, sort_keys=True,
                              separators=(",", ":")).encode()
            self._handle.write(line + b"\n")
            self._handle.flush()
            self.bytes += len(line) + 1
            if self.fsync:
                os.fsync(self._handle.fileno())
        self.appends += 1
        return event

    # -- compaction --------------------------------------------------------

    @property
    def outgrown(self) -> bool:
        """Whether a close should compact: the journal holds at least
        as many bytes as the snapshot, or there is no snapshot yet.

        After a close, replay at open reads less than twice the
        snapshot's bytes, and each compaction follows at least as many
        appended bytes as the snapshot it replaces.  Never true for a
        journal not open for appending (no file, a read-only load).
        """
        return (self._handle is not None
                and (self.snapshot_bytes is None
                     or self.bytes >= self.snapshot_bytes))

    def compact(self, state: dict) -> None:
        """Fold ``state`` into a fresh snapshot and reset the journal.

        Crash-safe at every boundary: the snapshot replace and the
        journal reset are each atomic, and the seq guard makes the
        window between them harmless (see the module docstring).
        """
        self.appends = 0
        if self.path is None:
            return  # the whole history stays replayable in memory
        body = json.dumps({"format": JOURNAL_FORMAT, "seq": self._seq,
                           "state": state},
                          sort_keys=True).encode()
        digest = hashlib.sha256(body).hexdigest()
        header = b"%s %d %s\n" % (_SNAPSHOT_MAGIC, JOURNAL_FORMAT,
                                  digest.encode("ascii"))
        write_atomically(self.snapshot_path, header, body, fsync=self.fsync)
        self.snapshot_bytes = len(header) + len(body)
        # Reset the journal atomically: replace it with an empty file.
        write_atomically(self.path)
        self.bytes = 0
        self._open_for_append()

    def _read_snapshot(self) -> tuple[dict | None, int]:
        self.snapshot_bytes = None
        if not self.snapshot_path.exists():
            return None, 0
        with self.snapshot_path.open("rb") as handle:
            header = handle.readline(256)
            body = handle.read()
        self.snapshot_bytes = len(header) + len(body)
        parts = header.split()
        if len(parts) != 3 or parts[0] != _SNAPSHOT_MAGIC:
            raise CampaignCorruptError(
                f"{self.snapshot_path} is not a service snapshot",
                path=self.snapshot_path)
        if hashlib.sha256(body).hexdigest().encode("ascii") != parts[2]:
            raise CampaignCorruptError(
                f"{self.snapshot_path} failed its checksum (snapshot "
                f"is corrupt or truncated)", path=self.snapshot_path)
        payload = json.loads(body)
        if payload.get("format") != JOURNAL_FORMAT:
            raise CampaignCorruptError(
                f"{self.snapshot_path}: snapshot format "
                f"{payload.get('format')} is not supported",
                path=self.snapshot_path)
        return payload["state"], int(payload["seq"])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
