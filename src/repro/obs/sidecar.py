"""The journaled telemetry sidecar: ``trace.jsonl``.

Each traced run writes one plain file *next to* its journal — never
through it.  The journal's record log is a closed, digest-relevant
set (``repro.journal.log.RECORD_KINDS``) with kill-injection counting
appends; telemetry must not perturb either, so the sidecar appends to
its own file in the same run directory.

``trace.jsonl`` holds one JSON value per line, one line per record.
Appends are flushed per record, so a SIGKILLed orchestrator loses at
most the record being written; readers skip torn or garbage lines
instead of failing.  A resumed run *appends* a new ``segment`` header
(fresh pid, fresh monotonic epoch) rather than truncating, so an
interrupted run's trace holds every process segment that worked on it.
What the pool did in a segment — dispatches, completions, crashes,
kills, retries — is its ``pool.*`` instants and unit spans.

Segment headers are JSON objects and carry the only wall-clock in the
whole telemetry stream: a ``(unix_ns, mono_ns)`` anchor pair captured
back-to-back at segment open, letting the exporter place each
segment's monotonic timestamps on one absolute axis (DESIGN.md §14).

Every span and instant the tracer emits is written as a compact *row*
(DESIGN.md §14)::

    span:    ["s"|"a", thread, id, parent, ts, dur, label(, args)]
    instant: ["i", thread, parent, ts, label(, args)]

``"s"``/``"a"`` are the sync/async modes, ``ts`` is an offset from the
segment header's ``mono_ns``, and ``args`` is omitted when empty.
``thread``, ``label`` and ``args`` are interned per segment, each in
its own table: the first row that uses a ``(pid, tid, thread name)``
carries that triple as a list, the first that uses a ``(cat, name)``
carries ``[cat, name]``, and the first that uses an args dict carries
the dict; each such row gives its value the table's next index, which
later rows carry instead.  Args are keyed by their exact compact JSON
text, so ``1``, ``1.0`` and ``true`` stay distinct.  A table holds at
most :data:`TABLE_LIMIT` values; past that, new values are written
inline and get no index, on both sides.  The writer advances a table
only once the row's line was written, so a failed write cannot desync
writer and reader.

Each row is then deflated into its segment's one raw-deflate stream
(``zlib.compressobj(wbits=-15)``, zlib's defaults otherwise), created
at :meth:`~TelemetrySidecar.open_segment`.  The row is sync-flushed,
so it ends on a byte boundary, and the flush's constant tail
``00 00 ff ff`` is dropped, as RFC 7692's permessage-deflate does; the
line is the unpadded base64 of what is left, written as a JSON string.
Headers and object lines stay plain JSON objects, and one record is
still one flushed line, so the torn-tail rule and the segment count
stay line-based.  :meth:`~TelemetrySidecar.write` holds one lock over
the row's encoding, its compression, the write and the table advance,
so two emitting threads never interleave in the stream or the tables.
A failed write retires the stream: the rest of that segment is written
as plain rows.

:func:`read_trace` is the one decoder: it rebuilds rows into exactly
the dicts the tracer emitted, each with an ``args`` dict of its own.
A ``str`` line is re-padded, given its tail back and inflated in its
segment's stream; the first one that does not inflate to a row (one
inflating to :data:`repro.cache.codec.MAX_INFLATED` bytes included)
retires that stream, and the segment's later ``str`` lines are
skipped.  Plain rows and object lines (headers, and records written
before rows existed) read as before, as do rows written before labels
and args were interned (``cat`` and ``name`` inline, a ``str`` in the
label slot).
"""

from __future__ import annotations

import base64
import copy
import json
import os
import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "TelemetrySidecar",
    "read_trace",
    "segments",
    "trace_path",
]

TRACE_NAME = "trace.jsonl"

Record = Dict[str, Any]
#: The ``(table, value)`` pairs a row introduces, applied once it is
#: written (writer) or fully decoded (reader).
Fresh = List[Tuple[Any, Any]]

_encode = json.JSONEncoder(separators=(",", ":")).encode

#: What every sync flush ends with; dropped from each deflated row and
#: given back before it is inflated (RFC 7692, section 7.2.1).
_TAIL = b"\x00\x00\xff\xff"

#: Values each per-segment table (threads, labels, args) interns at
#: most; later new values are written inline, so a run with unique args
#: (cache keys, unit ids) keeps the writer's tables bounded.
TABLE_LIMIT = 4096

_SPAN_FIELDS = ("id", "parent", "ts", "dur")
_INSTANT_FIELDS = ("parent", "ts")
_KEYS = {
    "span": frozenset(
        ("t", "pid", "tid", "thread", "mode", "cat", "name", "args")
        + _SPAN_FIELDS
    ),
    "instant": frozenset(
        ("t", "pid", "tid", "thread", "cat", "name", "args")
        + _INSTANT_FIELDS
    ),
}
_TAGS = {"sync": "s", "async": "a"}
#: Row tag -> (the record's fixed keys, its fields between the thread
#: and the label).
_ROWS: Dict[str, Tuple[Record, Tuple[str, ...]]] = {
    "s": ({"t": "span", "mode": "sync"}, _SPAN_FIELDS),
    "a": ({"t": "span", "mode": "async"}, _SPAN_FIELDS),
    "i": ({"t": "instant"}, _INSTANT_FIELDS),
}


def trace_path(run_directory: str) -> str:
    return os.path.join(run_directory, TRACE_NAME)


class TelemetrySidecar:
    """Appender for one process segment of a run's telemetry."""

    def __init__(self, directory: str) -> None:
        self.trace_path = trace_path(directory)
        self._fh = None
        self._mono_ns = 0
        self._threads: Dict[Tuple[Any, Any, Any], int] = {}
        self._labels: Dict[Tuple[str, str], int] = {}
        self._args: Dict[str, int] = {}
        self._deflate: Any = None
        self._lock = threading.Lock()

    def open_segment(self, run_id: Optional[str] = None) -> int:
        """Append (and flush) this process's segment header."""
        try:
            with open(self.trace_path, "rb") as fh:
                data = fh.read()
        except OSError:  # no trace yet
            data = b""
        seq = _count_segments(data)
        torn = data[-1:] not in (b"", b"\n")
        self._fh = open(self.trace_path, "a", encoding="utf-8")
        if torn:
            # End a killed segment's torn last line, so this header
            # starts a line of its own: rows decode against it.
            self._fh.write("\n")
        self._threads, self._labels, self._args = {}, {}, {}
        self._deflate = zlib.compressobj(wbits=-15)
        # Captured back-to-back: the segment's only wall-clock, used
        # solely at export time to align monotonic spans.
        unix_ns = time.time_ns()
        self._mono_ns = time.monotonic_ns()
        self.write({
            "t": "segment",
            "seq": seq,
            "pid": os.getpid(),
            "run_id": run_id,
            "unix_ns": unix_ns,
            "mono_ns": self._mono_ns,
        })
        return seq

    def _line(
        self, record: Record
    ) -> Optional[Tuple[str, Fresh]]:
        """``record``'s row text and the ``(table, key)`` pairs the row
        introduces, or None for anything that is not a tracer span or
        instant (written as an object line instead)."""
        kind = record.get("t")
        if kind == "span":
            tag = _TAGS.get(record.get("mode"))
        elif kind == "instant":
            tag = "i"
        else:
            return None
        if tag is None or record.keys() != _KEYS[kind]:
            return None
        ts, dur, args = record["ts"], record.get("dur", 0), record["args"]
        span_id, parent = record.get("id", 0), record["parent"]
        pid, tid, name = thread = (
            record["pid"], record["tid"], record["thread"]
        )
        label = (record["cat"], record["name"])
        if not (type(ts) is type(dur) is type(pid) is type(tid)
                is type(span_id) is int
                and (parent is None or type(parent) is int)
                and type(name) is type(label[0]) is type(label[1]) is str
                and type(args) is dict):
            return None
        # Every field but the interned values is an int or null, so the
        # row is formatted directly; only args go through the encoder,
        # once, and that text is both their key and their inline form.
        fresh: Fresh = []
        parent = "null" if parent is None else parent
        ts -= self._mono_ns
        fields = (f"{parent},{ts}" if tag == "i"
                  else f"{span_id},{parent},{ts},{dur}")
        text = (f'["{tag}",{_slot(self._threads, thread, fresh)},{fields},'
                f"{_slot(self._labels, label, fresh)}")
        if args:
            text += "," + _slot(self._args, _encode(args), fresh)
        return text + "]", fresh

    def write(self, record: Record) -> None:
        """Append one record; flushed so a SIGKILL loses ≤1 line."""
        if self._fh is None:
            return
        with self._lock:
            try:
                line = self._line(record)
                if line is None:
                    text = _encode(record)
                elif self._deflate is None:  # retired
                    text = line[0]
                else:
                    packed = self._deflate.compress(line[0].encode())
                    packed += self._deflate.flush(zlib.Z_SYNC_FLUSH)
                    packed = base64.b64encode(packed[:-len(_TAIL)])
                    text = '"' + packed.decode().rstrip("=") + '"'
                self._fh.write(text + "\n")
                self._fh.flush()
            except (OSError, TypeError, ValueError, RecursionError,
                    zlib.error):
                # Telemetry must never take the run down.  The stream
                # may now hold a row the file does not, so it retires.
                self._deflate = None
                return
            for table, key in line[1] if line is not None else ():
                if len(table) < TABLE_LIMIT:
                    table[key] = len(table)

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def _slot(table: Dict[Any, int], key: Any, fresh: Fresh) -> str:
    """What a row carries for ``key``: its index in ``table``, else the
    value in full (a tuple as a JSON list, args text as it is), noting
    in ``fresh`` that the row introduces ``key``."""
    index = table.get(key)
    if index is None:
        fresh.append((table, key))
        return _encode(list(key)) if type(key) is tuple else key
    return str(index)


def _is_thread(value: Any) -> bool:
    return type(value) is list and len(value) == 3


def _is_label(value: Any) -> bool:
    return (type(value) is list and len(value) == 2
            and type(value[0]) is type(value[1]) is str)


def _is_args(value: Any) -> bool:
    return type(value) is dict


def _lookup(
    value: Any,
    table: List[Any],
    introduces: Callable[[Any], bool],
    fresh: Fresh,
) -> Any:
    """The value an interned slot holding ``value`` stands for, or None:
    an index into ``table``, or a value ``introduces`` accepts, which
    is noted in ``fresh``."""
    if type(value) is int:
        return table[value] if 0 <= value < len(table) else None
    if introduces(value):
        fresh.append((table, value))
        return value
    return None


Tables = Tuple[List[Any], List[Any], List[Any]]


def _rebuild(
    row: List[Any], mono_ns: Optional[int], tables: Tables
) -> Optional[Record]:
    """The tracer record ``row`` encodes, or None if it encodes none.

    ``tables`` are the segment's thread, label and args tables; a row
    that introduces a value appends it to its table, as the writer's
    did."""
    layout = _ROWS.get(row[0]) if row and type(row[0]) is str else None
    if layout is None or mono_ns is None:
        return None
    fixed, fields = layout
    head, tail = row[2:2 + len(fields)], row[2 + len(fields):]
    threads, labels, args = tables
    fresh: Fresh = []
    thread = _lookup(row[1], threads, _is_thread, fresh)
    if tail and type(tail[0]) is str:
        # Written before labels and args were interned: cat and name
        # inline, then the args dict, if any.
        label, tail = tail[:2], tail[2:]
    else:
        label = _lookup(tail[0], labels, _is_label, fresh) if tail else None
        tail = tail[1:]
        if len(tail) == 1:
            # The table keeps its dict; each record gets a copy.
            tail = [copy.deepcopy(_lookup(tail[0], args, _is_args, fresh))]
    if thread is None or label is None or len(label) != 2 or len(tail) > 1:
        return None
    record = dict(zip(fields, head), **fixed)
    record["pid"], record["tid"], record["thread"] = thread
    record["cat"], record["name"] = label
    record["args"] = tail[0] if tail else {}
    if not (type(record["ts"]) is type(record.get("dur", 0))
            is type(record["pid"]) is type(record["tid"]) is int
            and type(record["thread"]) is str
            and type(record["args"]) is dict):
        return None
    for table, value in fresh:
        if len(table) < TABLE_LIMIT:
            table.append(value)
    record["ts"] += mono_ns
    return record


def _inflate(line: str, inflater: Any) -> Optional[List[Any]]:
    """The row the deflated ``line`` holds, inflated in its segment's
    stream ``inflater``, or None if it holds none."""
    # Deferred: repro.cache imports the core, whose kernel imports obs.
    from repro.cache import codec

    try:
        packed = base64.b64decode(line + "=" * (-len(line) % 4),
                                  validate=True)
        text = inflater.decompress(packed + _TAIL, codec.MAX_INFLATED)
        if len(text) >= codec.MAX_INFLATED:
            return None
        row = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError, zlib.error):
        return None
    return row if type(row) is list else None


def read_trace(path: str) -> List[Record]:
    """Every record of a trace file, in append order.

    Object lines pass through; row lines, plain or deflated, are
    rebuilt against the last segment header.  Anything else — a torn
    tail, garbage, bytes that are not UTF-8, a row with no header
    before it, a deflated row after its stream was retired — is
    skipped (crash tolerance).  A missing file reads as ``[]``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return []
    records: List[Record] = []
    mono_ns: Optional[int] = None
    tables: Tables = ([], [], [])
    inflater: Any = None
    for line in data.split(b"\n"):
        try:
            value = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            continue  # torn tail from a SIGKILLed writer, or garbage
        if type(value) is str:
            # A deflated row: the first that holds none retires the
            # stream, as later rows may refer back into it.
            value = None if inflater is None else _inflate(value, inflater)
            if value is None:
                inflater = None
        if type(value) is list:
            value = _rebuild(value, mono_ns, tables)
        elif type(value) is dict and value.get("t") == "segment":
            anchor = value.get("mono_ns")
            mono_ns = anchor if type(anchor) is int else None
            tables = ([], [], [])
            inflater = zlib.decompressobj(wbits=-15)
        if type(value) is dict:
            records.append(value)
    return records


def _count_segments(data: bytes) -> int:
    """How many segment headers the trace bytes ``data`` hold — the
    count ``segments(read_trace(...))`` gives, without rebuilding a
    row: only lines that name a segment are decoded."""
    count = 0
    for line in data.split(b"\n"):
        if b'"segment"' not in line:
            continue
        try:
            value = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            continue  # torn tail or garbage, as read_trace skips it
        if type(value) is dict and value.get("t") == "segment":
            count += 1
    return count


def segments(records: List[Record]) -> List[Record]:
    """The segment headers in a trace, in append order."""
    return [r for r in records if r.get("t") == "segment"]
