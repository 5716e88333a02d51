"""Run ownership: a kernel lock per run.

Two orchestrators sharing one cache root must never both own the same
run journal — concurrent appends would interleave records from two
dispatch loops and the replay would see units "complete" that the
surviving orchestrator never verified.  Ownership is an exclusive,
non-blocking ``flock`` on ``<cache>/runs/<run_id>.lease``, held from
:func:`~repro.journal.run.open_run` until ``RunJournal.close``.  The
kernel drops the lock when the last descriptor of its open file goes
away — a clean exit, an exception, a SIGKILL — so a dead owner's run
is claimable at once and a live owner's never is, with no expiry, no
heartbeat and no liveness probe.  Four rules keep that true:

1. **Forked children close the lock files they inherit** (the
   ``register_at_fork`` hook below).  A child's descriptor shares the
   parent's open file, so a pool worker that outlived a SIGKILLed
   orchestrator would otherwise keep pinning its run.
2. **Only the lock holder unlinks the file** (on release).  A claimant
   that opened the path just before such an unlink ends up locking an
   orphaned inode; it sees the path no longer names that inode and
   retries.
3. **A registry probe never fails a claim.**  The registry asks
   "running?" by taking a *shared* non-blocking lock for an instant
   (:func:`lease_held`); a claimant that collides with one retries for
   up to :data:`CLAIM_RETRY_S`.  Only an exclusive holder refuses it.
4. **A refusal names the owner.**  The holder writes its pid into the
   file after locking — unsynced: the pid is a message for the
   refused, not state anyone replays.
"""

from __future__ import annotations

import fcntl
import os
import time
from typing import Optional, Set

__all__ = [
    "CLAIM_RETRY_S",
    "Lease",
    "LeaseHeldError",
    "lease_held",
]

#: How long a claim keeps retrying past shared registry probes (rule 3).
CLAIM_RETRY_S = 2.0


class LeaseHeldError(RuntimeError):
    """The run is owned by a live orchestrator."""


class _LockFile:
    """One open lock file; a forked child closes its copy (rule 1)."""

    def __init__(self, path: str, flags: int) -> None:
        self.fd: Optional[int] = os.open(path, flags, 0o644)
        _open_files.add(self)

    def close(self) -> None:
        fd, self.fd = self.fd, None
        _open_files.discard(self)
        if fd is not None:
            os.close(fd)


_open_files: Set[_LockFile] = set()


def _close_inherited() -> None:
    # Closing the child's descriptor leaves the parent's lock alone;
    # only an explicit LOCK_UN would drop it for both.
    for lock_file in list(_open_files):
        lock_file.close()


os.register_at_fork(after_in_child=_close_inherited)


def _names(fd: int, path: str) -> bool:
    """Whether ``path`` still names the inode open on ``fd`` (rule 2)."""
    try:
        on_disk = os.stat(path)
    except FileNotFoundError:
        return False
    held = os.fstat(fd)
    return (on_disk.st_dev, on_disk.st_ino) == (held.st_dev, held.st_ino)


def lease_held(path: str) -> bool:
    """Whether a live process holds the lease at ``path`` (rule 3)."""
    try:
        probe = _LockFile(path, os.O_RDONLY)
    except FileNotFoundError:
        return False
    try:
        fcntl.flock(probe.fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
    except BlockingIOError:
        return True
    finally:
        probe.close()
    return False


class Lease:
    """An exclusive claim on one run, held until :meth:`release`.

    Args:
        path: lease file location (sibling of the run directory, so a
            fresh-run wipe of the directory cannot destroy a live
            claim).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[_LockFile] = None

    @property
    def held(self) -> bool:
        return self._file is not None

    def acquire(self) -> "Lease":
        """Claim the run, or refuse if a live process owns it.

        Raises:
            LeaseHeldError: a live orchestrator owns the run (naming
                its pid), or shared probes outlasted
                :data:`CLAIM_RETRY_S`.
        """
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        deadline = time.monotonic() + CLAIM_RETRY_S
        while True:
            lock_file = _LockFile(self.path, os.O_RDWR | os.O_CREAT)
            try:
                if self._lock(lock_file.fd, deadline):
                    pid = f"{os.getpid()}\n".encode("ascii")
                    os.pwrite(lock_file.fd, pid, 0)
                    os.ftruncate(lock_file.fd, len(pid))
                    self._file = lock_file
                    return self
            except BaseException:
                lock_file.close()
                raise
            lock_file.close()

    def _lock(self, fd: int, deadline: float) -> bool:
        """Lock ``fd`` exclusively: ``True`` once it is the path's file,
        ``False`` to retry with a fresh open."""
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            try:
                fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
            except BlockingIOError:
                owner = os.pread(fd, 32, 0).decode("ascii", "replace")
                raise LeaseHeldError(
                    f"run lease {self.path} is held by pid "
                    f"{owner.strip() or '?'}"
                ) from None
            if time.monotonic() >= deadline:
                raise LeaseHeldError(
                    f"run lease {self.path} stayed probed for "
                    f"{CLAIM_RETRY_S}s"
                ) from None
            time.sleep(0.001)
            return False  # only registry probes share it (rule 3)
        return _names(fd, self.path)  # rule 2

    def release(self) -> None:
        """Drop the claim (idempotent): unlink the file, then unlock."""
        lock_file, self._file = self._file, None
        if lock_file is None:
            return
        if _names(lock_file.fd, self.path):
            os.unlink(self.path)
        lock_file.close()

