"""The campaign engine: a sweep as an executor plan.

:class:`SweepRunner` executes a :class:`~repro.sweep.spec.CampaignSpec`
the same way ``reproduce_all`` executes the paper's artifacts: through
the one unit executor, :func:`repro.resilience.executor.run_units`
(DESIGN.md §11.1).  Every cell is first probed in the content-addressed
result cache under its ``sweep::`` key; only misses are dispatched, and
they go longest-first (estimated node-seconds) through the process-wide
warm worker pool.  A warm re-run therefore executes zero cells, and
editing one axis of a campaign re-executes only the changed cells —
everything else loads.

Cell results are pure functions of cell coordinates, so completion
order and worker count cannot change a record bit; the
:class:`~repro.sweep.safety.CampaignReport` digest pins this.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.cache import ResultCache, sweep_unit_key
from repro.obs import spans as obs
from repro.resilience.chaos import ChaosPlan
from repro.resilience.executor import Plan, WorkUnit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.quarantine import QuarantineLog
from repro.sweep.safety import CampaignReport, SafetyRecord
from repro.sweep.spec import CampaignSpec
from repro.sweep.units import SweepUnit, run_unit

__all__ = ["SweepRunner", "sweep_plan"]


def _cell_key(unit: SweepUnit) -> str:
    return sweep_unit_key(unit.cache_payload())


def sweep_plan(spec: CampaignSpec) -> Plan:
    """The sweep plan: every cell in canonical expansion order, ids
    :meth:`SweepUnit.unit_id` (what the journal's manifest lists), cost
    the cell's estimated node-seconds — the biggest fleets land first so
    they never trail the makespan."""
    return Plan(
        "sweep",
        tuple(
            WorkUnit(unit.unit_id(), unit, cost=unit.estimated_cost())
            for unit in spec.expand()
        ),
        cache_key=_cell_key,
    )


class SweepRunner:
    """Run one campaign, incrementally and (optionally) in parallel.

    Args:
        spec: the campaign grid.
        workers: worker processes; 1 runs cells inline, >1 dispatches
            cache misses onto the shared warm pool through the
            supervised dispatcher (DESIGN.md §11) — cells whose workers
            die or stall retry, poison cells become explicit report
            holes.
        cache: consult (and fill) this result cache per cell; ``None``
            recomputes everything.
        resilience: retry/backoff/deadline policy for pooled dispatch.
        quarantine: where poisoned cells are persisted (optional).
        chaos: fault-injection plan override (tests/harness only).
        journal: crash-consistent run ledger (DESIGN.md §12): journaled
            cells replay instead of probing the cache or executing,
            completions (cache hits included) are recorded durably, and
            the campaign seals with the report digest.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        resilience: Optional[RetryPolicy] = None,
        quarantine: Optional[QuarantineLog] = None,
        chaos: Optional[ChaosPlan] = None,
        journal: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.workers = workers
        self.cache = cache
        self.resilience = resilience
        self.quarantine = quarantine
        self.chaos = chaos
        self.journal = journal

    def run(self) -> CampaignReport:
        """Execute the grid and aggregate the safety scoreboard."""
        with obs.span(
            "pipeline", cat="sweep",
            campaign=self.spec.name, workers=self.workers,
        ):
            started = time.perf_counter()
            records: Dict[str, SafetyRecord] = {}

            def collect(
                unit: WorkUnit, record: SafetyRecord, _wall: Optional[float]
            ) -> None:
                records[unit.unit_id] = record

            outcome = run_units(
                sweep_plan(self.spec),
                run_unit,
                workers=self.workers,
                cache=self.cache,
                journal=self.journal,
                policy=self.resilience,
                quarantine=self.quarantine,
                chaos=self.chaos,
                on_result=collect,
            )
            # executed / from_cache are run accounting, not results:
            # they stay out of the campaign digest.  Journal-replayed
            # cells are neither (the ``[journal: ...]`` line counts them).
            report = CampaignReport.build(
                self.spec.name,
                records.values(),
                executed=outcome.executed,
                from_cache=outcome.cached,
                wall_seconds=time.perf_counter() - started,
                holes=outcome.holes,
            )
            outcome.seal(report.digest)
            return report
