"""repro.obs — unified observability: spans, metrics, sidecars, export.

One layer answers "where did this run spend its time": a hierarchical
span :mod:`tracer <repro.obs.spans>` (run → pipeline → unit → attempt,
plus cache/journal/pool/serve internals), a
:mod:`metrics registry <repro.obs.metrics>` unifying the stack's
counters behind one atomic-snapshot API, crash-tolerant
:mod:`telemetry sidecars <repro.obs.sidecar>` written next to each run
journal, and :mod:`exporters <repro.obs.export>` for Chrome/Perfetto
traces and Prometheus text exposition.

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
from typing import Any, Callable, Dict, Iterator, Optional

from repro.obs.export import chrome_trace, render_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    counter_property,
)
from repro.obs.sidecar import (
    TelemetrySidecar,
    read_metrics,
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
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "Span",
    "TelemetrySidecar",
    "Tracer",
    "absorb",
    "activate",
    "chrome_trace",
    "counter_property",
    "current",
    "deactivate",
    "enabled",
    "instant",
    "read_metrics",
    "read_trace",
    "render_prometheus",
    "run_tracing",
    "segments",
    "span",
    "trace_path",
]


def default_metrics_snapshot() -> Dict[str, Any]:
    """Process-wide metrics every traced run records: pool counters."""
    # Deferred: resilience builds on this package's spans.
    from repro.resilience.pool import shared_pool_counters

    return {"pool": shared_pool_counters()}


@contextlib.contextmanager
def run_tracing(
    journal: Any,
    enabled_: bool = True,
    metrics_provider: Optional[Callable[[], Dict[str, Any]]] = None,
    **root_args: Any,
) -> Iterator[Optional[Tracer]]:
    """Trace one (journaled) run: sidecar segment + ambient tracer.

    Opens a telemetry sidecar next to ``journal``'s record log (a
    resumed run appends a fresh process segment), activates an ambient
    tracer whose sink is the sidecar, and wraps everything in a root
    ``run`` span.  On exit — success, failure, or cancellation — the
    tracer is deactivated and the segment's metrics snapshot (default:
    the shared pool counters, plus anything ``metrics_provider``
    returns) is appended to ``metrics.json``.

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
        try:
            snapshot = default_metrics_snapshot()
            if metrics_provider is not None:
                snapshot.update(metrics_provider())
        except Exception as exc:
            snapshot = {"error": f"{type(exc).__name__}: {exc}"}
        sidecar.write_metrics(snapshot)
        sidecar.close()
