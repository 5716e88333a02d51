"""Journaled telemetry sidecars: ``trace.jsonl`` + ``metrics.json``.

Each traced run writes two plain files *next to* its journal — never
through it.  The journal's record log is a closed, digest-relevant
set (``repro.journal.log.RECORD_KINDS``) with kill-injection counting
appends; telemetry must not perturb either, so the sidecar appends to
its own files in the same run directory:

* ``trace.jsonl`` — one JSON object per line.  Appends are flushed per
  record, so a SIGKILLed orchestrator loses at most the record being
  written; readers skip torn or garbage lines instead of failing.  A
  resumed run *appends* a new ``segment`` header (fresh pid, fresh
  monotonic epoch) rather than truncating, so an interrupted run's
  trace holds every process segment that worked on it.
* ``metrics.json`` — ``{"segments": [...]}``, rewritten atomically at
  segment close with that segment's counter snapshot appended.  A
  killed segment simply contributes no metrics entry; its spans are
  still in ``trace.jsonl``.

Segment headers carry the only wall-clock in the whole telemetry
stream: a ``(unix_ns, mono_ns)`` anchor pair captured back-to-back at
segment open, letting the exporter place each segment's monotonic
timestamps on one absolute axis (DESIGN.md §14).
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

    def open_segment(self, run_id: Optional[str] = None) -> int:
        """Append (and flush) this process's segment header."""
        seq = 0
        if os.path.exists(self.trace_path):
            for record in read_trace(self.trace_path):
                if record.get("t") == "segment":
                    seq += 1
        self._fh = open(self.trace_path, "a", encoding="utf-8")
        self.segment_seq = seq
        self.write({
            "t": "segment",
            "seq": seq,
            "pid": os.getpid(),
            "run_id": run_id,
            # Captured back-to-back: the segment's only wall-clock,
            # used solely at export time to align monotonic spans.
            "unix_ns": time.time_ns(),
            "mono_ns": time.monotonic_ns(),
        })
        return seq

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record; flushed so a SIGKILL loses ≤1 line."""
        if self._fh is None:
            return
        try:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        except (OSError, TypeError, ValueError):
            pass  # telemetry must never take the run down

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
        tmp = self.metrics_path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            os.replace(tmp, self.metrics_path)
        except (OSError, TypeError, ValueError):
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


def read_trace(path: str) -> List[Dict[str, Any]]:
    """Read a trace file, skipping torn/garbage lines (crash tolerance)."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from a SIGKILLed writer
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records


def read_metrics(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def segments(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The segment headers in a trace, in append order."""
    return [r for r in records if r.get("t") == "segment"]
