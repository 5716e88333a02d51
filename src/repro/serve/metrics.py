"""Serve observability: one structured snapshot for the ``metrics`` verb.

Aggregates the four layers a control-plane operator cares about —
admission (queue depth/limit, accepted/rejected/deduplicated/adopted
counters), jobs (per-status population), the shared worker pool
(:func:`~repro.resilience.pool.shared_pool_counters`), and the
durable substrate (journal unit counters and cache stats accumulated
across finished jobs).  Everything is plain JSON-serializable ints and
strings so the snapshot travels the wire protocol unchanged.

Storage lives in a :class:`~repro.obs.metrics.MetricsRegistry`
(DESIGN.md §14): the int fields below are registry-backed properties,
so the server's ``metrics.submitted += 1`` call sites are unchanged
while the same counters feed the Prometheus exposition
(``repro serve metrics --prometheus``) and the telemetry sidecars.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.obs.metrics import MetricsRegistry, counter_property
from repro.resilience.pool import shared_pool_counters
from repro.serve.jobs import Job

__all__ = ["ServeMetrics"]

_JOURNAL_PREFIX = "serve.journal."
_CACHE_PREFIX = "serve.cache."


class ServeMetrics:
    """Monotonic server-lifetime counters + live gauges on demand."""

    FIELDS = (
        "submitted",
        "rejected",
        "deduplicated",
        "adopted",
        "invalid",
        "events_emitted",
        "events_dropped",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Track which journal/cache total keys exist so snapshots can
        # rebuild the nested dicts without scanning the whole registry.
        self._journal_keys: Dict[str, bool] = {}
        self._cache_keys: Dict[str, bool] = {}

    submitted = counter_property("serve.submitted")
    rejected = counter_property("serve.rejected")
    deduplicated = counter_property("serve.deduplicated")
    adopted = counter_property("serve.adopted")
    invalid = counter_property("serve.invalid")
    events_emitted = counter_property("serve.events_emitted")
    events_dropped = counter_property("serve.events_dropped")

    @property
    def journal_totals(self) -> Dict[str, int]:
        return {
            key: self.registry.counter(_JOURNAL_PREFIX + key).value
            for key in self._journal_keys
        }

    @property
    def cache_totals(self) -> Dict[str, int]:
        return {
            key: self.registry.counter(_CACHE_PREFIX + key).value
            for key in self._cache_keys
        }

    def absorb_result(self, result: Dict[str, Any]) -> None:
        """Fold one finished job's journal/cache counters into totals."""
        for key, value in (result.get("journal") or {}).items():
            if isinstance(value, int):
                self._journal_keys[key] = True
                self.registry.counter(_JOURNAL_PREFIX + key).inc(value)
        for key, value in (result.get("cache") or {}).items():
            if isinstance(value, int):
                self._cache_keys[key] = True
                self.registry.counter(_CACHE_PREFIX + key).inc(value)

    def snapshot(
        self,
        jobs: Iterable[Job],
        queue_depth: int,
        queue_limit: int,
        accepting: bool,
        draining: bool,
    ) -> Dict[str, Any]:
        """The full ``metrics`` reply body."""
        by_status: Dict[str, int] = {}
        for job in jobs:
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "queue": {
                "depth": int(queue_depth),
                "limit": int(queue_limit),
                "accepting": bool(accepting),
                "draining": bool(draining),
            },
            "jobs": {
                "by_status": by_status,
                "submitted": self.submitted,
                "rejected": self.rejected,
                "deduplicated": self.deduplicated,
                "adopted": self.adopted,
                "invalid": self.invalid,
            },
            "events": {
                "emitted": self.events_emitted,
                "dropped": self.events_dropped,
            },
            "pool": shared_pool_counters(),
            "journal": dict(self.journal_totals),
            "cache": dict(self.cache_totals),
        }
