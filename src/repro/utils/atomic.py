"""Whole-file writes that nobody sees half done."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_atomically(path: Path, *chunks: bytes) -> Path:
    """Write ``chunks`` to ``path`` through a temp file beside it that is
    renamed over it: a reader, a crash or a failed write leaves the old
    file or the whole new one, never part of one.  The temp file is
    ``.<name>-*.tmp``, so no glob for the destination's suffix meets it."""
    fd, scratch = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-",
                                   suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(scratch, path)
    except BaseException:
        os.unlink(scratch)
        raise
    return path
