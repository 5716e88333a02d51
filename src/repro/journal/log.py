"""The append-only record log: crc-framed records, commits, torn-tail replay.

Every record is one frame (format 4, :data:`LOG_FORMAT`)::

    >I JSON length | >I blob length | >I crc32(JSON + blob) | JSON | blob

The JSON object is the record; the blob is an opaque byte string that
rides in the same frame (a ``UNIT_DONE`` record's encoded result,
deflated JSON from :mod:`repro.cache.codec` — a valid frame *is* its
payload, so "record without payload" and "payload without record" are
not states the log can be in).

Durability is two calls.  :meth:`RecordLog.append` hands the frame to
the OS with one ``write`` — it survives a SIGKILL of this process, not
a power loss.  :meth:`RecordLog.commit` is one ``fsync``
(:func:`repro.cache.files.sync`) of everything appended since the last
commit; a caller that needs a record to survive anything commits before
it returns (the run journal decides which record kinds do, DESIGN.md
§12).  ``fsync`` covers the whole file, so the unsynced bytes are always
a *suffix* of the log.

The write is **not** atomic — a kill mid-``write`` leaves a torn final
frame, and a power loss can leave an unsynced suffix short or
zero-filled — so replay applies the classic write-ahead rule: parse
frames front to back, stop at the first incomplete, checksum-failing
or undecodable frame, and ignore everything from there on.  Re-opening
for append truncates the file back to the last valid frame boundary so
torn bytes can never prefix a fresh record.

Record kinds (DESIGN.md §12): ``UNIT_DISPATCHED``, ``UNIT_DONE``,
``UNIT_QUARANTINED``, ``RUN_SEALED``.

Kill-after hook: the chaos harness's ``--kill-parent`` mode needs a
*seeded point* at which the orchestrator dies.  Wall-clock points are
useless here (a full 8-node fleet run takes ~0.1 s), so the point is
**count-based**: when ``REPRO_JOURNAL_KILL_AFTER=N`` is set, the
process SIGKILLs itself immediately after the Nth commit across every
log in the process — after the fsync, so the journal state at death is
exactly N durable commits (plus whatever intents the OS still holds).
Tests swap the kill action for an exception to exercise the same path
in-process.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.files import sync
from repro.obs import spans as obs

__all__ = [
    "KILL_AFTER_ENV",
    "LOG_FORMAT",
    "RECORD_KINDS",
    "RecordLog",
    "replay_records",
    "set_kill_action",
]

#: The frame layout's version, written into every run manifest; a
#: journal of any other format is refused on resume, never parsed.
#: Format 4 is format 3's frame with a blob of deflated canonical JSON
#: (format 3 stored a deflated pickle, format 2 the raw pickle).
LOG_FORMAT = 4

_HEADER = struct.Struct(">III")  # JSON length, blob length, crc32(JSON+blob)

RECORD_KINDS = (
    "UNIT_DISPATCHED",
    "UNIT_DONE",
    "UNIT_QUARANTINED",
    "RUN_SEALED",
)

#: Count-based seeded kill point for the parent-kill chaos mode.
KILL_AFTER_ENV = "REPRO_JOURNAL_KILL_AFTER"

_commits_this_process = 0


def _default_kill_action() -> None:  # pragma: no cover — kills the process
    os.kill(os.getpid(), signal.SIGKILL)


_kill_action: Callable[[], None] = _default_kill_action


def set_kill_action(action: Optional[Callable[[], None]]) -> None:
    """Swap the kill-after action (tests inject a raise; None resets).

    Also resets the process-wide commit counter, so each configured
    kill point counts from the swap.
    """
    global _kill_action, _commits_this_process
    _kill_action = action if action is not None else _default_kill_action
    _commits_this_process = 0


def _maybe_kill_after_commit() -> None:
    global _commits_this_process
    raw = os.environ.get(KILL_AFTER_ENV)
    if raw is None:
        return
    try:
        threshold = int(raw)
    except ValueError:
        return
    _commits_this_process += 1
    if _commits_this_process >= threshold:
        _kill_action()


_Frame = Tuple[Dict[str, Any], memoryview]


def _read_frames(path: str) -> Tuple[List[_Frame], int]:
    """Every valid ``(record, blob)`` frame of the log, front to back,
    and the byte offset the last one ends at.  Blobs are views into the
    one read of the file, never copies; a missing file is ``([], 0)``."""
    try:
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
    except FileNotFoundError:
        return [], 0
    frames: List[_Frame] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        json_length, blob_length, crc = _HEADER.unpack_from(data, offset)
        json_start = offset + _HEADER.size
        blob_start = json_start + json_length
        end = blob_start + blob_length
        if end > len(data):
            break  # torn tail: header written, body incomplete
        if zlib.crc32(data[json_start:end]) != crc:
            break  # torn/corrupt frame: stop, ignore the rest
        try:
            record = json.loads(bytes(data[json_start:blob_start]))
        except (ValueError, RecursionError):
            break  # not JSON (a zero-filled span), not UTF-8, too deep
        if not isinstance(record, dict):
            break
        frames.append((record, data[blob_start:end]))
        offset = end
    return frames, offset


def replay_records(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse the log front to back; stop at the first torn frame.

    Returns:
        ``(records, valid_length)``: every fully-written record in
        append order (blobs are skipped, not copied), and the byte
        offset of the last valid frame boundary.  A missing file
        replays as ``([], 0)``.
    """
    frames, valid = _read_frames(path)
    return [record for record, _blob in frames], valid


@dataclass
class RecordLog:
    """One run's append-only record stream.

    Opening for append replays first and truncates any torn tail, so
    the file always ends on a frame boundary before new records land.
    The log keeps record metadata only: blobs found by the replay are
    handed over once (:meth:`take_blobs`) and appended blobs are never
    retained.
    """

    path: str
    _handle: Any = field(init=False, default=None, repr=False)
    _records: List[Dict[str, Any]] = field(
        init=False, default_factory=list, repr=False
    )
    _blobs: List[_Frame] = field(init=False, default_factory=list, repr=False)
    _uncommitted: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        frames, valid = _read_frames(self.path)
        self._records = [record for record, _blob in frames]
        self._blobs = [frame for frame in frames if len(frame[1])]
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "ab")
        if self._handle.tell() > valid:
            self._handle.truncate(valid)
            self._handle.seek(valid)

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Every record, replay order (replayed + appended)."""
        return list(self._records)

    def take_blobs(self) -> List[_Frame]:
        """The replayed ``(record, blob)`` frames that carry a blob,
        handed over exactly once — the log drops its reference."""
        blobs, self._blobs = self._blobs, []
        return blobs

    def append(self, kind: str, blob: bytes = b"", **fields: Any) -> None:
        """Hand one frame to the OS: one ``write``, no fsync.

        The record survives the death of this process; it survives a
        power loss only once :meth:`commit` has returned.
        """
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        record = {"kind": kind, **fields}
        # Telemetry never rides this log (RECORD_KINDS is closed, and
        # the kill-after counter must only ever count journal commits);
        # the span below lands in the sidecar instead.
        with obs.span("journal.append", cat="journal", kind=kind):
            body = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            crc = zlib.crc32(blob, zlib.crc32(body))
            self._handle.write(b"".join((
                _HEADER.pack(len(body), len(blob), crc), body, blob,
            )))
            self._handle.flush()
        self._uncommitted = True
        self._records.append(record)

    def commit(self) -> None:
        """Make everything appended so far durable: one ``fsync`` (none
        when nothing was appended since the last commit)."""
        if not self._uncommitted:
            return
        with obs.span("journal.fsync", cat="journal"):
            sync(self._handle)
        self._uncommitted = False
        _maybe_kill_after_commit()

    def close(self) -> None:
        """Commit anything still pending (dispatch intents an unwinding
        run left behind), then close the file."""
        if self._handle is not None:
            try:
                self.commit()
            finally:
                self._handle.close()
                self._handle = None
