"""Advisory file locking for a campaign service's root.

Two service processes pointed at the same root must not both append to
its journal: each write is individually safe, but the two would
interleave events and fencing tokens, and the survivor's journal would
describe neither campaign.  :class:`PathLock` makes that mistake loud —
the second process fails fast with a :class:`CampaignLockError` naming
the path and, when readable, the PID holding it.

The lock is ``fcntl.flock`` on a sidecar ``<path>.lock`` file, so it
works on paths that do not exist yet and never interferes with the
atomic-replace discipline on the data file itself.  Locks are advisory
and process-scoped: the kernel drops them automatically when the holder
dies, so a SIGKILLed service never leaves a stale lock behind.  On
platforms without ``fcntl`` (Windows) the lock degrades to a no-op
rather than blocking campaigns entirely.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.coyote.errors import SimulationError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


class CampaignLockError(SimulationError):
    """Another process already holds the lock for this campaign path."""


class PathLock:
    """An advisory, non-blocking lock guarding one on-disk path.

    Usage::

        lock = PathLock(journal_path)
        lock.acquire()     # raises CampaignLockError if already held
        try:
            ...            # exclusive use of journal_path
        finally:
            lock.release()

    Also usable as a context manager.  Re-acquiring a lock this process
    already holds is an error (it would paper over double-open bugs).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.lock_path = self.path.with_name(self.path.name + ".lock")
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    @property
    def fd(self) -> int | None:
        """The lock's file descriptor while held (``None`` otherwise).

        Forked children inherit this descriptor, and an inherited
        ``flock`` keeps the lock alive for as long as *any* copy of the
        descriptor stays open — an orphaned worker would block a
        restarted service until it died.  Holders that fork workers
        should close this descriptor in the child.
        """
        return self._fd if self._fd is not None and self._fd >= 0 \
            else None

    def acquire(self) -> "PathLock":
        if self._fd is not None:
            raise CampaignLockError(
                f"lock on {self.path} is already held by this process")
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            self._fd = -1
            return self
        fd = os.open(self.lock_path,
                     os.O_RDWR | os.O_CREAT, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            holder = self._read_holder(fd)
            os.close(fd)
            raise CampaignLockError(
                f"{self.path} is in use by another process"
                f"{holder}: two writers would silently interleave "
                f"their events") from None
        # Record the holder PID for the diagnostic on the losing side.
        try:
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode())
        except OSError:
            pass
        self._fd = fd
        return self

    @staticmethod
    def _read_holder(fd: int) -> str:
        try:
            os.lseek(fd, 0, os.SEEK_SET)
            pid = os.read(fd, 64).decode("ascii", "replace").strip()
            return f" (pid {pid})" if pid else ""
        except OSError:
            return ""

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None or fd < 0:
            return
        try:
            os.close(fd)  # closing drops the flock
        except OSError:
            pass

    def __enter__(self) -> "PathLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
