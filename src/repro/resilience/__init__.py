"""Resilient execution substrate (DESIGN.md §11).

The paper's thesis applied to our own harness: learning-agent
experiments only belong in a long-running service when the layer that
executes them survives worker death, hangs, and corrupted state — and
proves it under injected faults.  This package supplies that layer:

* :mod:`~repro.resilience.pool` — a supervised worker pool
  (per-worker queues, liveness checks, targeted kill + respawn) and
  the process-wide warm instance of it;
* :mod:`~repro.resilience.policy` — retry/backoff policy with
  deterministic seeded jitter;
* :mod:`~repro.resilience.supervisor` — the dispatch loop: retries,
  poison-unit quarantine records, explicit holes instead of dying;
* :mod:`~repro.resilience.executor` — :func:`run_units`, the one unit
  executor every pipeline runs through (replay → cache → dispatch →
  journal, §11.1);
* :mod:`~repro.resilience.chaos` — seeded fault injection
  (crash / hang / slow workers, corrupted cache writes) and the
  ``repro chaos`` harness's building blocks.
"""

from repro.resilience.chaos import (
    CHAOS_FAULT_KINDS,
    ChaosCache,
    ChaosPlan,
    active_plan,
)
from repro.resilience.executor import Plan, UnitsOutcome, WorkUnit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import (
    PoolCounters,
    SupervisedPool,
    shared_pool,
    shared_pool_counters,
    shutdown_shared_pool,
)
from repro.resilience.supervisor import (
    AttemptFailure,
    DispatchCancelled,
    DispatchOutcome,
    QuarantineRecord,
    supervised_map,
)

__all__ = [
    "AttemptFailure",
    "CHAOS_FAULT_KINDS",
    "ChaosCache",
    "ChaosPlan",
    "DispatchCancelled",
    "DispatchOutcome",
    "Plan",
    "PoolCounters",
    "QuarantineRecord",
    "RetryPolicy",
    "SupervisedPool",
    "UnitsOutcome",
    "WorkUnit",
    "active_plan",
    "run_units",
    "shared_pool",
    "shared_pool_counters",
    "shutdown_shared_pool",
    "supervised_map",
]
