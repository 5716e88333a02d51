"""The append-only record log: crc-framed records, commits, torn-tail replay.

Every record is one frame (format 5, :data:`LOG_FORMAT`)::

    >I record length | >I blob length | >I crc32(record + blob) | record | blob

The record is a fixed binary struct, one layout per kind, led by the
kind's code byte (its position in :data:`RECORD_KINDS`, from 1).  A
unit is named by its index in the run manifest's ``units`` list (the
run journal owns that mapping, :mod:`repro.journal.run`)::

    UNIT_DISPATCHED   >BIH      code, unit, attempt                   7 B
    UNIT_DONE         >BIdB32s  code, unit, wall, executed, digest   46 B
    UNIT_QUARANTINED  >BIH + s  code, unit, fault length, UTF-8 fault
    RUN_SEALED        >BH + s   code, digest length, UTF-8 digest

so a dispatch intent is a 19-byte frame and a completion 58 bytes plus
its blob.  ``executed`` is one byte, 0 or 1; the digest is the codec's
sha256 as 32 raw bytes, handed in and out as hex.  The blob is an
opaque byte string that rides in the same frame (a ``UNIT_DONE``
record's encoded result, deflated JSON from :mod:`repro.cache.codec` —
a valid frame *is* its payload, so "record without payload" and
"payload without record" are not states the log can be in).

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
frames front to back, stop at the first incomplete or checksum-failing
frame, or the first whose record is not a valid record of its kind
(unknown code, wrong length, ``executed`` not 0 or 1, bad UTF-8), and
ignore everything from there on.  Re-opening for append truncates the
file back to the last valid frame boundary so torn bytes can never
prefix a fresh record.

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
#: Format 5 is format 4's frame with a binary record naming its unit by
#: manifest index (format 4 wrote a JSON record naming it by id; format
#: 3 stored a deflated pickle blob, format 2 the raw pickle).
LOG_FORMAT = 5

_HEADER = struct.Struct(">III")  # record length, blob length, crc32

RECORD_KINDS = (
    "UNIT_DISPATCHED",
    "UNIT_DONE",
    "UNIT_QUARANTINED",
    "RUN_SEALED",
)

_DISPATCHED = struct.Struct(">BIH")  # code, unit, attempt
_DONE = struct.Struct(">BIdB32s")  # code, unit, wall, executed, digest
_QUARANTINED = struct.Struct(">BIH")  # code, unit, fault length; fault
_SEALED = struct.Struct(">BH")  # code, digest length; digest

Record = Dict[str, Any]


def _encode_record(kind: str, fields: Record) -> bytes:
    """``kind``'s record with ``fields`` in that kind's layout.

    Raises:
        ValueError: an unknown kind, a missing field, or a value its
            layout cannot hold (a negative or too-large index or
            attempt, a digest that is not 32 bytes of hex, a string
            past 65 535 UTF-8 bytes).
    """
    try:
        if kind == "UNIT_DISPATCHED":
            return _DISPATCHED.pack(1, fields["unit"], fields["attempt"])
        if kind == "UNIT_DONE":
            digest = bytes.fromhex(fields["digest"])
            if len(digest) != 32:
                raise ValueError(f"digest is {len(digest)} bytes, not 32")
            return _DONE.pack(
                2, fields["unit"], fields["wall"], bool(fields["executed"]),
                digest,
            )
        if kind == "UNIT_QUARANTINED":
            fault = fields["fault"].encode("utf-8")
            return _QUARANTINED.pack(3, fields["unit"], len(fault)) + fault
        if kind == "RUN_SEALED":
            digest = fields["digest"].encode("utf-8")
            return _SEALED.pack(4, len(digest)) + digest
    except (KeyError, AttributeError, TypeError, ValueError,
            struct.error) as error:
        raise ValueError(f"{kind} record: {error}") from None
    raise ValueError(f"unknown record kind {kind!r}")


def _decode_record(body: memoryview) -> Optional[Record]:
    """The record ``body`` holds, or ``None`` when it is no valid record
    of its kind: an unknown code, the wrong length for its kind,
    ``executed`` not 0 or 1, or a string that is not UTF-8."""
    size = len(body)
    code = body[0] if size else 0
    try:
        if code == 1 and size == _DISPATCHED.size:
            _code, unit, attempt = _DISPATCHED.unpack(body)
            return {
                "kind": "UNIT_DISPATCHED", "unit": unit, "attempt": attempt,
            }
        if code == 2 and size == _DONE.size:
            _code, unit, wall, executed, digest = _DONE.unpack(body)
            if executed > 1:
                return None
            return {
                "kind": "UNIT_DONE", "unit": unit, "wall": wall,
                "executed": executed == 1, "digest": digest.hex(),
            }
        if code == 3 and size >= _QUARANTINED.size:
            _code, unit, length = _QUARANTINED.unpack_from(body)
            if size == _QUARANTINED.size + length:
                fault = str(body[_QUARANTINED.size:], "utf-8")
                return {
                    "kind": "UNIT_QUARANTINED", "unit": unit, "fault": fault,
                }
        if code == 4 and size >= _SEALED.size:
            _code, length = _SEALED.unpack_from(body)
            if size == _SEALED.size + length:
                digest = str(body[_SEALED.size:], "utf-8")
                return {"kind": "RUN_SEALED", "digest": digest}
    except UnicodeDecodeError:
        pass
    return None


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


Frame = Tuple[Record, memoryview]


def _read_frames(path: str) -> Tuple[List[Frame], int]:
    """Every valid ``(record, blob)`` frame of the log, front to back,
    and the byte offset the last one ends at.  Blobs are views into the
    one read of the file, never copies; a missing file is ``([], 0)``."""
    try:
        with open(path, "rb") as handle:
            data = memoryview(handle.read())
    except FileNotFoundError:
        return [], 0
    frames: List[Frame] = []
    offset = 0
    while offset + _HEADER.size <= len(data):
        record_length, blob_length, crc = _HEADER.unpack_from(data, offset)
        record_start = offset + _HEADER.size
        blob_start = record_start + record_length
        end = blob_start + blob_length
        if end > len(data):
            break  # torn tail: header written, body incomplete
        if zlib.crc32(data[record_start:end]) != crc:
            break  # torn/corrupt frame: stop, ignore the rest
        record = _decode_record(data[record_start:blob_start])
        if record is None:
            break  # no valid record (a zero-filled span decodes to none)
        frames.append((record, data[blob_start:end]))
        offset = end
    return frames, offset


def replay_records(path: str) -> Tuple[List[Record], int]:
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
    The replayed frames are handed over once (:meth:`take_frames`);
    appended records and blobs are never retained.
    """

    path: str
    _handle: Any = field(init=False, default=None, repr=False)
    _frames: List[Frame] = field(init=False, default_factory=list, repr=False)
    _uncommitted: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        self._frames, valid = _read_frames(self.path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._handle = open(self.path, "ab")
        if self._handle.tell() > valid:
            self._handle.truncate(valid)
            self._handle.seek(valid)

    def take_frames(self) -> List[Frame]:
        """The replayed ``(record, blob)`` frames, in log order, handed
        over exactly once — the log drops its reference."""
        frames, self._frames = self._frames, []
        return frames

    def append(self, kind: str, blob: bytes = b"", **fields: Any) -> None:
        """Hand one frame to the OS: one ``write``, no fsync.

        The record survives the death of this process; it survives a
        power loss only once :meth:`commit` has returned.

        Raises:
            ValueError: ``fields`` do not fit ``kind``'s layout
                (:func:`_encode_record`); nothing is written.
        """
        body = _encode_record(kind, fields)
        # Telemetry never rides this log (RECORD_KINDS is closed, and
        # the kill-after counter must only ever count journal commits);
        # the span below lands in the sidecar instead.
        with obs.span("journal.append", cat="journal", kind=kind):
            crc = zlib.crc32(blob, zlib.crc32(body))
            self._handle.write(b"".join((
                _HEADER.pack(len(body), len(blob), crc), body, blob,
            )))
            self._handle.flush()
        self._uncommitted = True

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
