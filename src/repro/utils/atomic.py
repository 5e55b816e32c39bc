"""Whole-file writes that nobody sees half done, and the checksummed
header that tells a damaged file from a whole one."""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path


def write_atomically(path: Path, *chunks: bytes,
                     fsync: bool = False) -> Path:
    """Write ``chunks`` to ``path`` through a temp file beside it that is
    renamed over it: a reader, a crash or a failed write leaves the old
    file or the whole new one, never part of one.  The temp file is
    ``.<name>-*.tmp``, so no glob for the destination's suffix meets it.
    ``fsync`` puts the bytes on disk before the rename."""
    fd, scratch = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-",
                                   suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(scratch, path)
    except BaseException:
        os.unlink(scratch)
        raise
    return path


def frame(magic: bytes, version: int, body: bytes) -> bytes:
    """The header line written before ``body``: ``magic``, ``version``,
    the body's sha256 and its length."""
    return b"%s %d %s %d\n" % (
        magic, version, hashlib.sha256(body).hexdigest().encode("ascii"),
        len(body))


def body_ok(parts: list[bytes], body: bytes) -> bool:
    """Whether ``body`` has the length and sha256 that the split header
    line ``parts`` of a :func:`frame` names."""
    return (parts[3] == b"%d" % len(body)
            and hashlib.sha256(body).hexdigest().encode("ascii") == parts[2])
