"""Serve observability: one structured snapshot for the ``metrics`` verb.

Aggregates the four layers a control-plane operator cares about —
admission (queue depth/limit, accepted/rejected/deduplicated/adopted
counters), jobs (per-status population), the shared worker pool
(:func:`~repro.resilience.pool.shared_pool_counters`), and the
durable substrate (journal unit counters and cache stats accumulated
across finished jobs).  Everything is plain JSON-serializable ints and
strings so the snapshot travels the wire protocol unchanged.

The counters are plain fields (DESIGN.md §14): the server's event loop
is their one writer (``metrics.submitted += 1``), and the same
snapshot feeds the Prometheus exposition (``repro serve metrics
--prometheus``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

from repro.resilience.pool import shared_pool_counters
from repro.serve.jobs import Job

__all__ = ["ServeMetrics"]


@dataclass
class ServeMetrics:
    """Monotonic server-lifetime counters + live gauges on demand."""

    submitted: int = 0
    rejected: int = 0
    deduplicated: int = 0
    adopted: int = 0
    invalid: int = 0
    events_emitted: int = 0
    events_dropped: int = 0
    journal_totals: Counter = field(default_factory=Counter)
    cache_totals: Counter = field(default_factory=Counter)

    def absorb_result(self, result: Dict[str, Any]) -> None:
        """Fold one finished job's journal/cache counters into totals."""
        for totals, counts in (
            (self.journal_totals, result.get("journal")),
            (self.cache_totals, result.get("cache")),
        ):
            totals.update({
                key: value for key, value in (counts or {}).items()
                if isinstance(value, int)
            })

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
