"""The campaign engine: a sweep as an executor plan of node runs.

:class:`SweepRunner` executes a :class:`~repro.sweep.spec.CampaignSpec`
the same way ``reproduce_all`` executes the paper's artifacts: through
the one unit executor, :func:`repro.resilience.executor.run_units`
(DESIGN.md §11.1).  Its work unit is the distinct node run
(:class:`~repro.fleet.config.NodeRun`), not the cell: a node's result
depends only on its own inputs, so the smaller fleets of a scale axis
and every rack outside a fault's blast radius repeat node runs that
the plan lists once.  Every node run is first probed in the
content-addressed result cache under its ``sweep::`` key; only misses
are dispatched, through the process-wide warm worker pool.  A warm
re-run therefore executes nothing, and editing one axis of a campaign
executes only the node runs no cell had before.

Each cell's :class:`~repro.sweep.safety.SafetyRecord` is then assembled
from its nodes' results, exactly as the per-cell oracle
:func:`~repro.sweep.units.run_unit` builds it; node results are pure
functions of their coordinates, so completion order and worker count
cannot change a record bit, and the
:class:`~repro.sweep.safety.CampaignReport` digest pins this.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.cache import ResultCache, sweep_unit_key
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.config import NodeRun
from repro.fleet.node import NodeResult
from repro.obs import spans as obs
from repro.resilience.chaos import ChaosPlan
from repro.resilience.executor import Plan, WorkUnit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import QuarantineRecord
from repro.sweep.safety import CampaignReport, SafetyRecord
from repro.sweep.spec import CampaignSpec
from repro.sweep.units import SweepUnit, run_node

__all__ = ["SweepRunner", "sweep_plan"]


def _run_key(run: NodeRun) -> str:
    return sweep_unit_key(run.cache_payload())


def _plan(cells: Sequence[SweepUnit]) -> Plan:
    # A repeated id keeps its first position (and an equal run).
    runs = {run.unit_id(): run for cell in cells for run in cell.node_runs()}
    return Plan(
        "sweep",
        tuple(
            WorkUnit(unit_id, run, cost=float(run.duration_s))
            for unit_id, run in runs.items()
        ),
        cache_key=_run_key,
    )


def sweep_plan(spec: CampaignSpec) -> Plan:
    """The sweep plan: every distinct node run of the grid once, in
    first-appearance order over the canonical cell expansion; ids
    :meth:`NodeRun.unit_id` (what the journal's manifest lists), cost
    the run's simulated seconds."""
    return _plan(spec.expand())


class SweepRunner:
    """Run one campaign, incrementally and (optionally) in parallel.

    Args:
        spec: the campaign grid.
        workers: worker processes; 1 runs node runs inline, >1
            dispatches cache misses onto the shared warm pool through
            the supervised dispatcher (DESIGN.md §11) — node runs whose
            workers die or stall retry, and every cell containing a
            poisoned node run becomes an explicit report hole.
        cache: consult (and fill) this result cache per node run;
            ``None`` recomputes everything.
        resilience: retry/backoff/deadline policy for pooled dispatch.
        quarantine: a list each poisoned node run's record is
            appended to (optional).
        chaos: fault-injection plan override (tests/harness only).
        journal: crash-consistent run ledger (DESIGN.md §12): journaled
            node runs replay instead of probing the cache or executing,
            completions (cache hits included) are recorded durably, and
            the campaign seals with the report digest.
        cancel: cooperative stop switch for pooled dispatch.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        resilience: Optional[RetryPolicy] = None,
        quarantine: Optional[List[QuarantineRecord]] = None,
        chaos: Optional[ChaosPlan] = None,
        journal: Any = None,
        cancel: Optional[threading.Event] = None,
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
        self.cancel = cancel

    def run(self) -> CampaignReport:
        """Execute the grid's node runs and assemble the scoreboard."""
        with obs.span(
            "pipeline", cat="sweep",
            campaign=self.spec.name, workers=self.workers,
        ):
            started = time.perf_counter()
            cells = self.spec.expand()
            results: Dict[str, NodeResult] = {}

            def collect(
                unit: WorkUnit, result: NodeResult, _wall: Optional[float]
            ) -> None:
                results[unit.unit_id] = result

            outcome = run_units(
                _plan(cells),
                run_node,
                workers=self.workers,
                cache=self.cache,
                journal=self.journal,
                policy=self.resilience,
                quarantine=self.quarantine,
                chaos=self.chaos,
                cancel=self.cancel,
                on_result=collect,
            )
            # A cell with a quarantined node run is a hole.
            records: List[SafetyRecord] = []
            holes: List[str] = []
            for cell in cells:
                ids = [run.unit_id() for run in cell.node_runs()]
                if any(unit_id not in results for unit_id in ids):
                    holes.append(cell.unit_id())
                    continue
                aggregate = FleetAggregate.from_results(
                    results[unit_id] for unit_id in ids
                )
                records.append(SafetyRecord.from_fleet(cell, aggregate))
            # executed / from_cache are run accounting, not results:
            # they stay out of the campaign digest.  Journal-replayed
            # node runs are neither (the ``[journal: ...]`` line counts
            # them).
            report = CampaignReport.build(
                self.spec.name,
                records,
                executed=outcome.executed,
                from_cache=outcome.cached,
                wall_seconds=time.perf_counter() - started,
                holes=holes,
                quarantined=outcome.holes,
            )
            outcome.seal(report.digest)
            return report
