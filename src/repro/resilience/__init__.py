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

from importlib import import_module
from typing import Any

#: Re-exported name -> the submodule that defines it.  Resolved on
#: first attribute access (PEP 562), so importing one submodule (the
#: control plane needs only ``supervisor``'s exception) loads neither
#: the worker pool nor ``multiprocessing``.
_EXPORTS = {
    "AttemptFailure": "supervisor",
    "CHAOS_FAULT_KINDS": "chaos",
    "ChaosCache": "chaos",
    "ChaosPlan": "chaos",
    "DispatchCancelled": "supervisor",
    "DispatchOutcome": "supervisor",
    "Plan": "executor",
    "PoolCounters": "pool",
    "QuarantineRecord": "supervisor",
    "RetryPolicy": "policy",
    "SupervisedPool": "pool",
    "UnitsOutcome": "executor",
    "WorkUnit": "executor",
    "activated": "chaos",
    "active_plan": "chaos",
    "run_units": "executor",
    "shared_pool": "pool",
    "shared_pool_counters": "pool",
    "shutdown_shared_pool": "pool",
    "supervised_map": "supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.resilience' has no attribute {name!r}"
        )
    value = getattr(import_module(f"repro.resilience.{module}"), name)
    globals()[name] = value
    return value
