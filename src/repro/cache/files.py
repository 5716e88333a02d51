"""The one IO seam: every whole-file write and every fsync.

Callers choose ``durable`` (DESIGN.md §8): the run manifest is durable
because replay trusts it; a cache object and ``unit_timings.json``
are not, because losing one costs a miss or a dispatch-order hint,
never a result.  ``os.fsync`` is looked up at call time, so
whatever swaps it sees every fsync.  Outside the code salt, and
imports nothing from ``repro``.
"""

from __future__ import annotations

import os
import tempfile
from typing import IO

__all__ = ["sync", "write_atomic"]


def sync(handle: IO[bytes]) -> None:
    """Make everything written to ``handle`` durable: one ``fsync``."""
    os.fsync(handle.fileno())


def write_atomic(path: str, data: bytes, *, durable: bool) -> None:
    """Replace ``path`` with ``data`` whole, creating its directory.

    With ``durable`` the bytes are fsync'd before the rename.  The temp
    file is removed on any failure, and the error re-raised.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                sync(handle)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
