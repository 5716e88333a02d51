"""repro.obs — unified observability: spans, the sidecar, export.

One layer answers "where did this run spend its time": a hierarchical
span :mod:`tracer <repro.obs.spans>` (run → pipeline → unit → attempt,
plus cache/journal/pool/serve internals), the crash-tolerant
:mod:`telemetry sidecar <repro.obs.sidecar>` (``trace.jsonl``) written
next to each run journal, and :mod:`exporters <repro.obs.export>` for
Chrome/Perfetto traces and Prometheus text exposition.  The stack's counters are plain
dataclass fields on their owners (``CacheStats``, ``PoolCounters``,
``ServeMetrics``; DESIGN.md §14); this package only renders them.

Telemetry is strictly out-of-band: records never enter unit payloads,
cache keys, journal records, or digests, and this package is excluded
from the cache's code salt — tracing on vs off is bit-identical
(DESIGN.md §14).

The one-call entry point for pipelines is :func:`run_tracing`::

    with obs.run_tracing(journal, enabled_=args.trace):
        FleetDriver(config, journal=journal).run()
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional

from repro.obs.export import chrome_trace, render_prometheus
from repro.obs.sidecar import (
    TelemetrySidecar,
    read_trace,
    segments,
    trace_path,
)
from repro.obs.spans import (
    Span,
    Tracer,
    absorb,
    activate,
    current,
    deactivate,
    enabled,
    instant,
    span,
)

__all__ = [
    "Span",
    "TelemetrySidecar",
    "Tracer",
    "absorb",
    "activate",
    "chrome_trace",
    "current",
    "deactivate",
    "enabled",
    "instant",
    "read_trace",
    "render_prometheus",
    "run_tracing",
    "segments",
    "span",
    "trace_path",
]


@contextlib.contextmanager
def run_tracing(
    journal: Any,
    enabled_: bool = True,
    **root_args: Any,
) -> Iterator[Optional[Tracer]]:
    """Trace one (journaled) run: sidecar segment + ambient tracer.

    Opens a telemetry sidecar next to ``journal``'s record log (a
    resumed run appends a fresh process segment), activates an ambient
    tracer whose sink is the sidecar, and wraps everything in a root
    ``run`` span.  On exit — success, failure, or cancellation — the
    root span is closed, the tracer deactivated and the segment's file
    closed.

    No-ops (yields ``None``) when disabled or when the run has no
    journal directory to attach sidecars to.
    """
    directory = getattr(journal, "directory", None)
    if not enabled_ or not directory:
        yield None
        return
    sidecar = TelemetrySidecar(directory)
    sidecar.open_segment(run_id=getattr(journal, "run_id", None))
    tracer = activate(Tracer(sink=sidecar.write))
    root = tracer.begin(
        "run", cat="run",
        args={"run_id": getattr(journal, "run_id", None), **root_args},
    )
    try:
        yield tracer
    finally:
        tracer.end(root)
        deactivate()
        sidecar.close()
