"""Hierarchical span tracer: thread/process-aware, monotonic-clock only.

The tracer records *spans* (named intervals with a parent, a category,
and free-form args) and *instants* (point events) into a per-process
buffer — plain ``list.append`` under the GIL, no locks on the hot
path — or straight into a *sink* callable (the telemetry sidecar's
line writer).  Worker processes run their own local tracer around each
attempt and ship the drained records back over the existing event
pipes, so one ``trace.jsonl`` ends up holding the whole tree:

    run → pipeline → unit → attempt → (cache/journal/kernel spans)

Two invariants keep telemetry out of the determinism surface
(DESIGN.md §14):

* **Monotonic clocks only.**  Every timestamp is ``time.monotonic_ns()``
  (system-wide on Linux, so parent and forked-worker timestamps are
  directly comparable).  Wall-clock only ever appears in the sidecar's
  per-segment *anchor* pair, captured once at segment open and used at
  export time.
* **Strictly out-of-band.**  Records never enter unit payloads, cache
  keys, journal records, or digests; the ``obs`` package is excluded
  from :func:`repro.cache.keys.code_salt`.

Span records are flat JSON-serializable dicts::

    {"t": "span", "name": ..., "cat": ..., "pid": ..., "tid": ...,
     "thread": ..., "id": n, "parent": m|None, "ts": mono_ns,
     "dur": ns, "mode": "sync"|"async", "args": {...}}

``mode: "async"`` marks spans that overlap on one thread (concurrent
in-flight units in the dispatch loop); the Chrome exporter renders
them as async b/e pairs instead of stack slices.

``args`` must come back from the sidecar exactly as emitted, so
:meth:`Tracer.begin` and :meth:`Tracer.instant` refuse, with a
``TypeError`` naming the argument, what JSON cannot return as it was:
a tuple (it reads back as a list) or a dict key that is not a ``str``
(it reads back as a string).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "absorb",
    "activate",
    "current",
    "deactivate",
    "enabled",
    "instant",
    "span",
]

Record = Dict[str, Any]
Sink = Callable[[Record], None]


def _refuse_inexact(name: str, value: Any) -> None:
    """Raise ``TypeError`` if the arg ``name``'s ``value`` is or holds a
    tuple or a non-``str`` dict key, at any depth."""
    kind = type(value)
    if kind is tuple:
        raise TypeError(
            f"trace arg {name!r} holds a tuple, which reads back as a list"
        )
    if kind is dict:
        for key in value:
            if type(key) is not str:
                raise TypeError(
                    f"trace arg {name!r} holds a dict key of type "
                    f"{type(key).__name__}, which reads back as a str"
                )
        value = value.values()
    elif kind is not list:
        return
    for item in value:
        _refuse_inexact(name, item)


def _args(args: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """A copy of ``args`` that JSON returns exactly.

    Raises:
        TypeError: an arg name is not a ``str``, or an arg holds a
            tuple or a non-``str`` dict key.
    """
    copied = dict(args or ())
    for name, value in copied.items():
        if type(name) is not str:
            raise TypeError(
                f"trace arg name {name!r} is a {type(name).__name__}, "
                f"not a str"
            )
        _refuse_inexact(name, value)
    return copied


class Span:
    """An open span handle; mutate ``args`` freely before ``end``."""

    __slots__ = (
        "name", "cat", "args", "span_id", "parent_id",
        "tid", "thread", "start_ns", "mode",
    )

    def __init__(
        self,
        name: str,
        cat: str,
        args: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        mode: str,
    ) -> None:
        self.name = name
        self.cat = cat
        self.args = args
        self.span_id = span_id
        self.parent_id = parent_id
        self.tid = threading.get_ident()
        self.thread = threading.current_thread().name
        self.start_ns = time.monotonic_ns()
        self.mode = mode


class _SpanContext:
    """Context manager yielded by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_: Span) -> None:
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.args.setdefault("error", exc_type.__name__)
        self._tracer.end(self._span)
        return False


class _NullContext:
    """Reusable, reentrant no-op context (tracing disabled)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _NullContext()


class Tracer:
    """Collects span/instant records for one process.

    With ``sink`` set, completed records go straight to the sink (the
    sidecar appender) and are not retained; with ``sink=None`` they
    accumulate in an in-memory buffer until :meth:`drain` — the mode
    worker processes use before shipping records over the event pipe.
    """

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self._sink = sink
        self._buffer: List[Record] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()

    # -- internals -------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _emit(self, record: Record) -> None:
        if self._sink is not None:
            self._sink(record)
        else:
            self._buffer.append(record)

    # -- span lifecycle --------------------------------------------

    def begin(
        self,
        name: str,
        cat: str = "run",
        args: Optional[Dict[str, Any]] = None,
        *,
        attach: bool = True,
    ) -> Span:
        """Open a span.

        ``attach=True`` (default) pushes it onto the calling thread's
        stack so nested spans parent under it.  ``attach=False`` opens
        a *floating* (async) span: it still parents under the current
        top-of-stack, but does not become a parent itself — the mode
        used for overlapping in-flight unit spans in dispatch loops.

        Raises:
            TypeError: ``args`` holds what the sidecar cannot return
                exactly (a tuple, a non-``str`` key); nothing opens.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_ = Span(
            name, cat, _args(args), next(self._ids), parent,
            "sync" if attach else "async",
        )
        if attach:
            stack.append(span_.span_id)
        return span_

    def end(self, span_: Span) -> None:
        """Close a span and emit its record."""
        if span_.mode == "sync":
            stack = self._stack()
            if stack and stack[-1] == span_.span_id:
                stack.pop()
            elif span_.span_id in stack:  # tolerate mis-nesting
                stack.remove(span_.span_id)
        self._emit({
            "t": "span",
            "name": span_.name,
            "cat": span_.cat,
            "pid": os.getpid(),
            "tid": span_.tid,
            "thread": span_.thread,
            "id": span_.span_id,
            "parent": span_.parent_id,
            "ts": span_.start_ns,
            "dur": time.monotonic_ns() - span_.start_ns,
            "mode": span_.mode,
            "args": span_.args,
        })

    def span(
        self, name: str, cat: str = "run",
        args: Optional[Dict[str, Any]] = None,
    ) -> _SpanContext:
        return _SpanContext(self, self.begin(name, cat, args))

    def instant(
        self, name: str, cat: str = "run",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit a point event (``args`` checked as :meth:`begin` does)."""
        stack = self._stack()
        self._emit({
            "t": "instant",
            "name": name,
            "cat": cat,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "parent": stack[-1] if stack else None,
            "ts": time.monotonic_ns(),
            "args": _args(args),
        })

    def absorb(self, records: Iterable[Record]) -> None:
        """Append already-complete records (worker-shipped spans)."""
        for record in records:
            self._emit(record)

    def drain(self) -> List[Record]:
        """Pop and return everything buffered (sink-less tracers)."""
        records, self._buffer = self._buffer, []
        return records


# -- ambient (process-global) tracer -------------------------------
#
# One active tracer per process, activated for the duration of a run.
# Every instrumentation site goes through the module-level helpers
# below, which collapse to a single global read + early-out when no
# tracer is active — cheap enough to leave in hot-ish paths.

_active: Optional[Tracer] = None


def activate(tracer: Tracer) -> Tracer:
    global _active
    _active = tracer
    return tracer


def deactivate() -> None:
    global _active
    _active = None


def current() -> Optional[Tracer]:
    return _active


def enabled() -> bool:
    return _active is not None


def span(name: str, cat: str = "run", **args: Any):
    """Ambient span context; a shared no-op when tracing is off.

    Yields the :class:`Span` (mutate ``.args`` for end-time fields) or
    ``None`` when disabled — guard with ``if sp is not None``.
    """
    tracer = _active
    if tracer is None:
        return _NULL
    return _SpanContext(tracer, tracer.begin(name, args=args, cat=cat))


def instant(name: str, cat: str = "run", **args: Any) -> None:
    tracer = _active
    if tracer is not None:
        tracer.instant(name, cat, args)


def absorb(records: Iterable[Record]) -> None:
    """Feed worker-shipped records into the active tracer, if any."""
    tracer = _active
    if tracer is not None:
        tracer.absorb(records)


def _reset_after_fork() -> None:
    # A forked child (pool worker) must not inherit the parent's
    # tracer: its sink holds the parent's sidecar file handle and
    # concurrent appends from two processes would interleave lines.
    # Workers run their own buffered tracer per attempt instead.
    global _active
    _active = None


os.register_at_fork(after_in_child=_reset_after_fork)
