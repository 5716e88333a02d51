"""The benchmark's own instruments: spans, timing proxies, process-tree reads.

Everything here observes the program from outside.  The traced run hands
the drivers a :class:`TimedCache` / :class:`TimedJournal` in place of the
real objects and swaps ``os.fsync`` for a counting wrapper; spans stay in
memory (:class:`Spans`) and are written out when the benchmark ends.
End-to-end metrics never come from a run with these installed.

Run as a script this module is the traced server launcher::

    python instruments.py FSYNC_OUT serve start --cache-dir ...

which installs the fsync counter, runs ``python -m repro`` with the
remaining arguments, and dumps the fsync durations to ``FSYNC_OUT`` at
exit — the only way to see the job thread's fsyncs from outside.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple


def median(values: List[float]) -> float:
    """The median; 0.0 for no samples (an empty fsync list is a count
    of zero, not an error)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Spans:
    """In-memory span store: ``(name, layer, parent, start, end)`` rows.

    Single-threaded by design — the orchestrating thread is the only
    caller (pool callbacks run on it; the journal heartbeat thread never
    touches the proxies) — so the parent of a span is simply the top of
    the open stack.
    """

    def __init__(self) -> None:
        self.rows: List[List[Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[int]:
        index = len(self.rows)
        parent = self._open[-1] if self._open else None
        row = [name, layer, parent, time.perf_counter(), None]
        self.rows.append(row)
        self._open.append(index)
        try:
            yield index
        finally:
            row[4] = time.perf_counter()
            self._open.pop()

    def descendants(self, root: int) -> List[List[Any]]:
        """Rows under ``root`` (rows are appended in start order, so a
        row's parent always precedes it)."""
        inside = {root}
        out = []
        for index in range(root + 1, len(self.rows)):
            row = self.rows[index]
            if row[2] in inside:
                inside.add(index)
                out.append(row)
        return out

    def busy(self, root: int, layer: str) -> float:
        """Seconds the outermost ``layer`` spans under ``root`` cover."""
        inside = {root: False}  # index -> already under a `layer` span
        total = 0.0
        for index in range(root + 1, len(self.rows)):
            name, row_layer, parent, start, end = self.rows[index]
            if parent not in inside:
                continue
            covered = inside[parent]
            if row_layer == layer and not covered:
                total += end - start
                covered = True
            inside[index] = covered
        return total

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: each span minus what its children cover."""
        children = [0.0] * len(self.rows)
        for name, layer, parent, start, end in self.rows:
            if parent is not None:
                children[parent] += end - start
        totals: Dict[str, float] = {}
        for index, (name, layer, parent, start, end) in enumerate(self.rows):
            totals[layer] = totals.get(layer, 0.0) + (
                end - start - children[index]
            )
        return totals

    def export(self) -> List[Dict[str, Any]]:
        return [
            {"id": index, "name": name, "layer": layer, "parent": parent,
             "start_s": start, "dur_s": end - start}
            for index, (name, layer, parent, start, end)
            in enumerate(self.rows)
        ]


class TimedCache:
    """``ResultCache`` stand-in that spans every ``get``/``put``."""

    def __init__(self, cache: Any, spans: Spans) -> None:
        self._cache = cache
        self._spans = spans

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cache, name)

    def get(self, key: str, default: Any = None) -> Any:
        with self._spans.span("cache.get", "cache"):
            return self._cache.get(key, default)

    def put(self, key: str, payload: Any) -> None:
        with self._spans.span("cache.put", "cache"):
            self._cache.put(key, payload)


class TimedJournal:
    """``RunJournal`` stand-in that spans every durable call."""

    def __init__(self, journal: Any, spans: Spans) -> None:
        self._journal = journal
        self._spans = spans

    def __getattr__(self, name: str) -> Any:
        return getattr(self._journal, name)

    def record_dispatched(self, unit_id: str, attempt: int) -> None:
        with self._spans.span("journal.record_dispatched", "journal"):
            self._journal.record_dispatched(unit_id, attempt)

    def record_done(self, unit_id: str, payload: Any, wall_s: float,
                    executed: bool = True) -> None:
        with self._spans.span("journal.record_done", "journal"):
            self._journal.record_done(
                unit_id, payload, wall_s, executed=executed
            )

    def record_quarantined(self, unit_id: str, fault_kind: str) -> None:
        with self._spans.span("journal.record_quarantined", "journal"):
            self._journal.record_quarantined(unit_id, fault_kind)

    def seal(self, digest: str) -> None:
        with self._spans.span("journal.seal", "journal"):
            self._journal.seal(digest)

    def close(self) -> None:
        with self._spans.span("journal.close", "journal"):
            self._journal.close()


@contextlib.contextmanager
def counted_fsync(
    spans: Optional[Spans] = None,
) -> Iterator[List[Tuple[float, float]]]:
    """Swap ``os.fsync`` for a timing wrapper; yields ``(start, seconds)``
    pairs (``perf_counter`` is system-wide on Linux, so a client can
    window a server's fsyncs by its own clock).

    With ``spans`` each fsync also becomes a span under whatever call is
    open, so a journal span's self time excludes the disk wait.
    """
    real = os.fsync
    durations: List[Tuple[float, float]] = []

    def fsync(fd: Any) -> None:
        started = time.perf_counter()
        if spans is None:
            real(fd)
        else:
            with spans.span("fsync", "fsync"):
                real(fd)
        durations.append((started, time.perf_counter() - started))

    os.fsync = fsync
    try:
        yield durations
    finally:
        os.fsync = real


# -- process tree ------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None  # raced an exit
    # comm may contain spaces and parentheses; fields resume after the
    # last ')'.  Index 0 below is field 3 (state) of proc(5).
    return raw[raw.rfind(")") + 2:].split()


def process_tree() -> List[int]:
    """This process and every live descendant (children, grandchildren)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    me = os.getpid()
    tree = [me]
    frontier = {me}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier}
        tree.extend(frontier)
    return tree


def tree_cpu_s() -> float:
    """user+sys CPU of the whole tree, reaped descendants included.

    Each live process contributes its own utime+stime plus the
    cutime+cstime of children it has already waited for; a reaped child
    is no longer in ``/proc``, so nothing is counted twice.
    """
    ticks = 0
    for pid in process_tree():
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _TICK


def tree_peak_rss_mb() -> float:
    """Largest resident-set high-water mark of any live tree member."""
    peak_kb = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii",
                      errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def disk_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.lstat(os.path.join(dirpath, name)).st_size
            except OSError:
                continue
    return total


def _serve_launcher(argv: List[str]) -> None:
    import runpy

    fsync_out, repro_args = argv[0], argv[1:]
    sys.argv = ["repro"] + repro_args
    with counted_fsync() as durations:
        try:
            runpy.run_module("repro", run_name="__main__")
        finally:  # ``python -m repro`` leaves through SystemExit
            with open(fsync_out, "w", encoding="utf-8") as handle:
                json.dump(durations, handle)


if __name__ == "__main__":
    _serve_launcher(sys.argv[1:])
