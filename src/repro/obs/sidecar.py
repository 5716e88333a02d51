"""Journaled telemetry sidecars: ``trace.jsonl`` + ``metrics.json``.

Each traced run writes two plain files *next to* its journal — never
through it.  The journal's record log is a closed, digest-relevant
set (``repro.journal.log.RECORD_KINDS``) with kill-injection counting
appends; telemetry must not perturb either, so the sidecar appends to
its own files in the same run directory:

* ``trace.jsonl`` — one JSON value per line, one line per record.
  Appends are flushed per record, so a SIGKILLed orchestrator loses at
  most the record being written; readers skip torn or garbage lines
  instead of failing.  A resumed run *appends* a new ``segment`` header
  (fresh pid, fresh monotonic epoch) rather than truncating, so an
  interrupted run's trace holds every process segment that worked on
  it.
* ``metrics.json`` — ``{"segments": [...]}``, rewritten atomically
  (:func:`repro.cache.files.write_atomic`, not durable) at segment
  close with that segment's counter snapshot appended.  A killed
  segment simply contributes no metrics entry; its spans are still in
  ``trace.jsonl``.

Segment headers are JSON objects and carry the only wall-clock in the
whole telemetry stream: a ``(unix_ns, mono_ns)`` anchor pair captured
back-to-back at segment open, letting the exporter place each
segment's monotonic timestamps on one absolute axis (DESIGN.md §14).

Every span and instant the tracer emits is written as a compact *row*
(DESIGN.md §14)::

    span:    ["s"|"a", thread, id, parent, ts, dur, cat, name(, args)]
    instant: ["i", thread, parent, ts, cat, name(, args)]

``"s"``/``"a"`` are the sync/async modes, ``ts`` is an offset from the
segment header's ``mono_ns``, ``args`` is omitted when empty, and
``thread`` is a per-segment index: the first row of each
``(pid, tid, thread name)`` carries that triple as a list in its place,
which assigns it the next index.  :func:`read_trace` is the one
decoder: it rebuilds rows into exactly the dicts the tracer emitted
and passes object lines (headers, and records written before rows
existed) through unchanged.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TelemetrySidecar",
    "read_metrics",
    "read_trace",
    "segments",
    "trace_path",
]

TRACE_NAME = "trace.jsonl"
METRICS_NAME = "metrics.json"

Record = Dict[str, Any]

_encode = json.JSONEncoder(separators=(",", ":")).encode

_SPAN_FIELDS = ("id", "parent", "ts", "dur", "cat", "name")
_INSTANT_FIELDS = ("parent", "ts", "cat", "name")
_KEYS = {
    "span": frozenset(
        ("t", "pid", "tid", "thread", "mode", "args") + _SPAN_FIELDS
    ),
    "instant": frozenset(
        ("t", "pid", "tid", "thread", "args") + _INSTANT_FIELDS
    ),
}
_TAGS = {"sync": "s", "async": "a"}
#: Row tag -> (the record's fixed keys, its fields after the thread).
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
        self.directory = directory
        self.trace_path = trace_path(directory)
        self.metrics_path = os.path.join(directory, METRICS_NAME)
        self._fh = None
        self.segment_seq: Optional[int] = None
        self._mono_ns = 0
        self._threads: Dict[Tuple[Any, Any, Any], int] = {}

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
        self.segment_seq = seq
        self._threads = {}
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

    def _row(self, record: Record) -> Optional[List[Any]]:
        """``record`` as a row, or None for anything that is not a
        tracer span or instant (written as an object line instead)."""
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
        pid, tid, name = thread = (
            record["pid"], record["tid"], record["thread"]
        )
        if not (type(ts) is type(dur) is type(pid) is type(tid) is int
                and type(name) is str and type(args) is dict):
            return None
        index = self._threads.get(thread)
        row = [tag, list(thread) if index is None else index]
        if tag == "i":
            row += (record["parent"], ts - self._mono_ns, record["cat"],
                    record["name"])
        else:
            row += (record["id"], record["parent"], ts - self._mono_ns, dur,
                    record["cat"], record["name"])
        if args:
            row.append(args)
        return row

    def write(self, record: Record) -> None:
        """Append one record; flushed so a SIGKILL loses ≤1 line."""
        if self._fh is None:
            return
        try:
            row = self._row(record)
            self._fh.write(_encode(record if row is None else row) + "\n")
            self._fh.flush()
        except (OSError, TypeError, ValueError, RecursionError):
            return  # telemetry must never take the run down
        if row is not None and type(row[1]) is list:
            self._threads[tuple(row[1])] = len(self._threads)

    def write_metrics(self, snapshot: Dict[str, Any]) -> None:
        """Append this segment's metrics snapshot to ``metrics.json``
        (a ``segments`` value that is not a list is treated as empty)."""
        payload = read_metrics(self.metrics_path)
        if not isinstance(payload.get("segments"), list):
            payload["segments"] = []
        payload["segments"].append({
            "seq": self.segment_seq,
            "pid": os.getpid(),
            "metrics": snapshot,
        })
        # Deferred: repro.cache imports the core, whose kernel imports obs.
        from repro.cache.files import write_atomic

        try:
            data = json.dumps(payload, indent=2, sort_keys=True)
            write_atomic(self.metrics_path, data.encode("utf-8"),
                         durable=False)
        except (OSError, TypeError, ValueError):
            pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def _rebuild(
    row: List[Any], mono_ns: Optional[int], threads: List[List[Any]]
) -> Optional[Record]:
    """The tracer record ``row`` encodes, or None if it encodes none.

    ``threads`` is the segment's thread table; a row introducing a
    thread appends to it, as the writer's did."""
    layout = _ROWS.get(row[0]) if row and type(row[0]) is str else None
    if layout is None or mono_ns is None:
        return None
    fixed, fields = layout
    end = 2 + len(fields)
    if len(row) not in (end, end + 1):
        return None
    thread = row[1]
    introduced = type(thread) is list and len(thread) == 3
    if type(thread) is int and 0 <= thread < len(threads):
        thread = threads[thread]
    elif not introduced:
        return None
    record = dict(zip(fields, row[2:end]), **fixed)
    record["pid"], record["tid"], record["thread"] = thread
    record["args"] = row[end] if len(row) > end else {}
    if not (type(record["ts"]) is type(record.get("dur", 0))
            is type(record["pid"]) is type(record["tid"]) is int
            and type(record["thread"]) is str
            and type(record["args"]) is dict):
        return None
    if introduced:
        threads.append(thread)
    record["ts"] += mono_ns
    return record


def read_trace(path: str) -> List[Record]:
    """Every record of a trace file, in append order.

    Object lines pass through; row lines are rebuilt against the last
    segment header.  Anything else — a torn tail, garbage, bytes that
    are not UTF-8, a row with no header before it — is skipped
    (crash tolerance).  A missing file reads as ``[]``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return []
    records: List[Record] = []
    mono_ns: Optional[int] = None
    threads: List[List[Any]] = []
    for line in data.split(b"\n"):
        try:
            value = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError):
            continue  # torn tail from a SIGKILLed writer, or garbage
        if type(value) is list:
            value = _rebuild(value, mono_ns, threads)
        elif type(value) is dict and value.get("t") == "segment":
            anchor = value.get("mono_ns")
            mono_ns = anchor if type(anchor) is int else None
            threads = []
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


def read_metrics(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def segments(records: List[Record]) -> List[Record]:
    """The segment headers in a trace, in append order."""
    return [r for r in records if r.get("t") == "segment"]
