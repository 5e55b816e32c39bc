"""Whole-file writes that nobody sees half done, and the one checksummed
frame that tells a damaged file from a whole one."""

from __future__ import annotations

import hashlib
import os
from pathlib import Path


def write_atomically(path: Path, *chunks: bytes,
                     fsync: bool = False) -> Path:
    """Write ``chunks`` to ``path`` through a temp file beside it that is
    renamed over it: a reader, a crash or a failed write leaves the old
    file or the whole new one, never part of one.  The temp file is
    ``.<name>-*.tmp``, so no glob for the destination's suffix meets it;
    it is created as a plain ``open`` would be, so the file gets the
    process umask's mode.  ``fsync`` puts the bytes on disk before the
    rename."""
    scratch = path.parent / f".{path.name}-{os.urandom(8).hex()}.tmp"
    fd = os.open(scratch, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


class FrameError(ValueError):
    """A file :func:`read_framed` refuses, named in the message.
    ``format`` is its header's when the magic matched, else ``None``."""

    def __init__(self, message: str, format: int | None = None):
        super().__init__(message)
        self.format = format


def read_framed(path: Path, magic: bytes, formats) -> tuple[int, bytes]:
    """``(format, body)`` of a file written as ``frame(magic, format,
    body) + body``, ``format`` one of ``formats``: one open, one read,
    one sha256.  The length is checked when the header has one (the
    sha256 covers every byte).  Any other file raises
    :class:`FrameError`; ``OSError`` passes through."""
    with open(path, "rb") as handle:
        data = handle.read()
    end = data.find(b"\n", 0, 256)   # no header is longer
    parts = data[:end].split(b" ") if end >= 0 else ()
    if not (3 <= len(parts) <= 4 and parts[0] == magic
            and parts[1].isdigit()):
        raise FrameError(f"{path} is not a {magic.decode()} file")
    version, body = int(parts[1]), data[end + 1:]
    if version not in formats:
        expected = " or ".join(map(str, formats))
        raise FrameError(f"{path}: {magic.decode()} format {version} is "
                         f"not supported (expected {expected})", version)
    if (parts[3:] not in ([], [b"%d" % len(body)])
            or hashlib.sha256(body).hexdigest().encode() != parts[2]):
        raise FrameError(f"{path} failed its checksum (the file is "
                         f"damaged or truncated)", version)
    return version, body
