"""``write_atomically`` gives its file the mode a plain ``open`` would."""

import os
import stat

import pytest

from repro.utils.atomic import write_atomically


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_file_mode_follows_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        path = write_atomically(tmp_path / "entry.res", b"body")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == b"body"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.res"]
