"""Experiment driver: fleets and reproductions as executor plans.

Both pipelines here run their work units through the one unit executor,
:func:`repro.resilience.executor.run_units` (DESIGN.md §11.1), and each
is three small pieces — a plan, a pure unit function, and an
order-independent reducer:

* :class:`FleetDriver` (DESIGN.md §5) shards the nodes of a
  :class:`~repro.fleet.config.FleetConfig` into chunks.  Each node's
  spec and seed derive only from ``(fleet seed, node_id)``, so chunk
  shape and completion order cannot affect results: aggregates from
  ``workers=1`` and ``workers=N`` are bit-identical (the tests pin
  :meth:`~repro.fleet.aggregate.FleetAggregate.digest`).

* :func:`reproduce_all` (DESIGN.md §7, §8) runs every paper
  table/figure as independent ``(artifact, series)`` units (see
  :data:`ARTIFACT_SPECS`), so a parallel pass scales past the twelve
  artifacts.  Every unit is deterministic given its arguments alone,
  so parallel, cached and resumed passes reproduce the serial rows
  exactly, and so does :func:`run_artifact`, which runs one artifact's
  units in-process with any arguments.  Executed unit walls are
  recorded (and persisted with the cache) and fed back into
  longest-first dispatch.

The warm worker pool lives in :mod:`repro.resilience.pool`; its three
accessors are re-exported here for callers that import them from the
driver.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.cache import ResultCache, unit_key
from repro.experiments import harvest, memory, overclock, tables
from repro.experiments.common import ExperimentResult, experiment_digest
from repro.obs import spans as obs
from repro.fleet.aggregate import FleetAggregate, FleetAggregateBuilder
from repro.fleet.config import FleetConfig
from repro.fleet.node import NodeResult
from repro.fleet.scenario import FleetScenario
from repro.resilience.chaos import ChaosPlan
from repro.resilience.executor import Plan, WorkUnit, run_units
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import (
    shared_pool,
    shared_pool_counters,
    shutdown_shared_pool,
)
from repro.resilience.supervisor import QuarantineRecord

__all__ = [
    "ARTIFACTS",
    "ARTIFACT_SPECS",
    "Artifact",
    "ArtifactRun",
    "FleetDriver",
    "artifact_units",
    "assemble_artifact",
    "reproduce_all",
    "reproduce_plan",
    "run_artifact",
    "run_series_unit",
    "runs_digest",
    "select_artifacts",
    "shared_pool",
    "shared_pool_counters",
    "shutdown_shared_pool",
]


#: The smallest fleet chunk, in nodes, that :meth:`FleetDriver.chunks`
#: cuts from a shard holding at least that many.
MIN_CHUNK_NODES = 2


def _run_shard(
    payload: Tuple[FleetConfig, Tuple[int, ...]]
) -> List[NodeResult]:
    config, node_ids = payload
    return FleetScenario(config).run(node_ids)


class FleetDriver:
    """Run a fleet across worker processes and aggregate the results.

    Args:
        config: the fleet to simulate.
        workers: worker processes; ``1`` (or a one-chunk fleet) runs
            in-process with no pool at all.
        resilience: retry/backoff/deadline policy for pooled dispatch
            (default :class:`~repro.resilience.policy.RetryPolicy`()).
        quarantine: a list each poisoned chunk's record is
            appended to (optional).
        chaos: fault-injection plan override (tests/harness only; the
            ``REPRO_CHAOS_PLAN`` environment variable otherwise).
        journal: crash-consistent run ledger (DESIGN.md §12).  A
            journaled run uses the *manifest's* frozen chunk plan,
            replays journaled chunks instead of re-simulating them,
            records every dispatch/completion durably, and seals with
            the aggregate digest.
        cancel: cooperative stop switch for pooled dispatch
            (:func:`~repro.resilience.supervisor.supervised_map`).
    """

    def __init__(
        self,
        config: FleetConfig,
        workers: int = 1,
        resilience: Optional[RetryPolicy] = None,
        quarantine: Optional[List[QuarantineRecord]] = None,
        chaos: Optional[ChaosPlan] = None,
        journal: Any = None,
        cancel: Optional[threading.Event] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        self.workers = min(workers, config.n_nodes)
        self.resilience = resilience
        self.quarantine = quarantine
        self.chaos = chaos
        self.journal = journal
        self.cancel = cancel

    def shards(self) -> List[Tuple[int, ...]]:
        """Round-robin node-id shards, one per worker.

        Round-robin (not contiguous chunks) spreads the heterogeneous
        SKU/agent mix evenly, so no worker gets all the expensive
        nodes.  Kept as the coarse partition; :meth:`chunks` subdivides
        it for work-stealing-style dispatch.
        """
        return [
            tuple(range(w, self.config.n_nodes, self.workers))
            for w in range(self.workers)
        ]

    def chunks(self) -> List[Tuple[int, ...]]:
        """Node-id chunks, the fleet's work units.

        Several small chunks per worker (rather than one shard each)
        keep the pool busy when node costs are skewed — a straggler
        holds back only its own chunk, and idle workers pull the
        remaining chunks instead of waiting.  Chunks subdivide the
        round-robin shards, preserving the even SKU/agent spread: up to
        four near-equal slices per shard, but never one smaller than
        :data:`MIN_CHUNK_NODES` unless the shard itself is (a unit's
        fixed stack cost is about one short node's simulation —
        DESIGN.md §5).
        """
        chunks: List[Tuple[int, ...]] = []
        for shard in self.shards():
            count = max(1, min(4, len(shard) // MIN_CHUNK_NODES))
            size, extra = divmod(len(shard), count)
            start = 0
            for index in range(count):
                end = start + size + (index < extra)
                chunks.append(shard[start:end])
                start = end
        return chunks

    def chunk_plan(self) -> Dict[str, List[int]]:
        """Unit id -> node ids, in dispatch order: the one place the
        chunk-id format is built (the journal freezes this mapping into
        its manifest, :func:`~repro.journal.pipelines.open_fleet_journal`).
        """
        return {
            f"chunk{index:03d}(n{chunk[0]}+{len(chunk)})": list(chunk)
            for index, chunk in enumerate(self.chunks())
        }

    def plan(self) -> Plan:
        """The executor plan: the journal's frozen chunks when journaled
        (never re-derived — a resume under a different ``--workers``
        executes exactly the un-journaled chunks of the original plan),
        else :meth:`chunk_plan`.  Cost is the chunk length."""
        if self.journal is None:
            chunks = self.chunk_plan()
        else:
            frozen = self.journal.manifest["plan"]["chunks"]
            chunks = {
                unit_id: frozen[unit_id] for unit_id in self.journal.units
            }
        return Plan(
            "fleet",
            tuple(
                WorkUnit(
                    unit_id,
                    (self.config, tuple(int(n) for n in nodes)),
                    cost=float(len(nodes)),
                )
                for unit_id, nodes in chunks.items()
            ),
        )

    def run(self) -> FleetAggregate:
        """Simulate the whole fleet and return the aggregate.

        Chunks run through :func:`~repro.resilience.executor.run_units`
        (DESIGN.md §11.1); each finished chunk streams into a
        :class:`FleetAggregateBuilder` as it lands.  The reduction is
        order-independent and the builder canonicalizes node order, and
        chunk shape cannot move a node's simulation (DESIGN.md §5), so
        inline, pooled, and interrupted-then-resumed runs produce a
        bit-identical digest.  Chunks that exhaust their retries are
        quarantined — the aggregate reports their node ids as explicit
        ``holes`` instead of the run dying.
        """
        with obs.span(
            "pipeline", cat="fleet",
            nodes=self.config.n_nodes, workers=self.workers,
        ):
            builder = FleetAggregateBuilder()
            hole_nodes: List[int] = []
            outcome = run_units(
                self.plan(),
                _run_shard,
                workers=self.workers,
                journal=self.journal,
                policy=self.resilience,
                quarantine=self.quarantine,
                chaos=self.chaos,
                cancel=self.cancel,
                on_result=lambda _unit, results, _wall: builder.add_many(
                    results
                ),
                on_hole=lambda unit: hole_nodes.extend(unit.payload[1]),
            )
            aggregate = builder.build(holes=hole_nodes)
            outcome.seal(aggregate.digest)
            return aggregate


# -- reproduce-all ----------------------------------------------------------

class Artifact(NamedTuple):
    """One paper artifact as work units (DESIGN.md §7).

    ``series(**kwargs)`` lists canonical unit keys without simulating
    anything, ``unit(key, **kwargs)`` runs one key to a small picklable
    payload seeded only by its arguments, and ``assemble(units,
    **kwargs)`` derives the rows — so shard shape and completion order
    cannot affect a single row bit.
    """

    series: Callable[..., List[Optional[str]]]
    unit: Callable[..., Any]
    assemble: Callable[..., ExperimentResult]


def _whole(function: Callable[..., ExperimentResult]) -> Artifact:
    """A single-kernel artifact (the tables, the fig5 time series): one
    ``None`` unit whose payload *is* the result."""
    return Artifact(
        series=lambda **_kwargs: [None],
        unit=lambda _key, **kwargs: function(**kwargs),
        assemble=lambda units, **_kwargs: units[None],
    )


#: Artifact registry: name -> (artifact, kwargs builder).  The kwargs
#: builder takes the duration scale (1.0 full, ~0.33 for --quick) and
#: returns the experiment's arguments — the same values
#: ``examples/reproduce_paper.py`` has always used.
ARTIFACT_SPECS: Dict[
    str, Tuple[Artifact, Callable[[float], Dict[str, Any]]]
] = {
    "table1": (_whole(tables.table1_taxonomy), lambda s: {}),
    "table2": (_whole(tables.table2_learning_agents), lambda s: {}),
    "fig1": (Artifact(overclock.fig1_series, overclock.fig1_unit,
                      overclock.fig1_assemble),
             lambda s: {"seconds": int(900 * s)}),
    "fig2": (Artifact(overclock.fig2_series, overclock.fig2_unit,
                      overclock.fig2_assemble),
             lambda s: {"seconds": int(600 * s)}),
    "fig3": (Artifact(overclock.fig3_series, overclock.fig3_unit,
                      overclock.fig3_assemble),
             lambda s: {"seconds": int(600 * s)}),
    "fig4": (Artifact(overclock.fig4_series, overclock.fig4_unit,
                      overclock.fig4_assemble),
             lambda s: {"seconds": int(300 * s) + 200}),
    "fig5": (_whole(overclock.fig5_actuator_safeguard),
             lambda s: {"seconds": int(900 * s)}),
    "fig6-left": (Artifact(harvest.fig6_invalid_data_series,
                           harvest.fig6_invalid_data_unit,
                           harvest.fig6_invalid_data_assemble),
                  lambda s: {"seconds": int(240 * s)}),
    "fig6-middle": (Artifact(harvest.fig6_broken_model_series,
                             harvest.fig6_broken_model_unit,
                             harvest.fig6_broken_model_assemble),
                    lambda s: {"seconds": int(240 * s)}),
    "fig6-right": (Artifact(harvest.fig6_delayed_predictions_series,
                            harvest.fig6_delayed_predictions_unit,
                            harvest.fig6_delayed_predictions_assemble),
                   lambda s: {"seconds": int(240 * s)}),
    "fig7": (Artifact(memory.fig7_series, memory.fig7_unit,
                      memory.fig7_assemble),
             lambda s: {"seconds": int(1500 * s)}),
    "fig8": (Artifact(memory.fig8_series, memory.fig8_unit,
                      memory.fig8_assemble),
             lambda s: {"seconds": int(920 * s)}),
}

#: Canonical artifact order (paper order).
ARTIFACTS: Tuple[str, ...] = tuple(ARTIFACT_SPECS)


def run_artifact(name: str, **kwargs: Any) -> ExperimentResult:
    """Run one paper artifact in-process: every unit of its series in
    canonical order, then its assembly.  A kwarg left out takes the
    artifact's own default.

    Raises:
        ValueError: ``name`` is not an artifact.
    """
    if name not in ARTIFACT_SPECS:
        raise ValueError(f"unknown artifact: {name!r}")
    artifact = ARTIFACT_SPECS[name][0]
    units = {
        key: artifact.unit(key, **kwargs)
        for key in artifact.series(**kwargs)
    }
    return artifact.assemble(units, **kwargs)


@dataclass
class ArtifactRun:
    """One reproduced artifact plus its wall time.

    ``holes`` lists the quarantined unit ids of a *partial* artifact —
    one whose work units kept failing under supervision and were
    poisoned (DESIGN.md §11).  Empty on every complete run, so the
    field is invisible to the overwhelmingly common case.
    """

    name: str
    result: ExperimentResult
    wall_seconds: float
    holes: Tuple[str, ...] = ()

    @property
    def partial(self) -> bool:
        return bool(self.holes)


def _hole_run(
    name: str, holes: Sequence[str], wall_seconds: float
) -> ArtifactRun:
    """Placeholder run for an artifact with quarantined units.

    The artifact cannot be assembled (its ``assemble`` step needs every
    series payload), so the run degrades to an explicit partial: the
    result names each quarantined unit instead of fabricating rows.
    """
    ordered = sorted(holes)
    result = ExperimentResult(
        name=name,
        title=f"PARTIAL — {len(ordered)} unit(s) quarantined",
        columns=["unit", "status"],
        rows=[{"unit": unit, "status": "quarantined"} for unit in ordered],
        notes=[
            "units exhausted their retry budget and were quarantined; "
            "see the [quarantine: …] line or the run journal for "
            "failure records",
        ],
    )
    return ArtifactRun(name, result, wall_seconds, holes=tuple(ordered))


def run_series_unit(payload: Tuple[str, Optional[str], float]) -> Any:
    """The reproduce unit function: one ``(artifact, series, scale)``
    scenario to its payload."""
    name, series, scale = payload
    artifact, kwargs_builder = ARTIFACT_SPECS[name]
    return artifact.unit(series, **kwargs_builder(scale))


def artifact_units(name: str, scale: float) -> List[Tuple[str, Optional[str]]]:
    """The ``(artifact, series)`` work units of one artifact.

    Single-kernel artifacts yield one ``(name, None)`` unit; decomposed
    artifacts yield one unit per series key, in canonical key order.
    """
    artifact, kwargs_builder = ARTIFACT_SPECS[name]
    return [(name, key) for key in artifact.series(**kwargs_builder(scale))]


def select_artifacts(only: Optional[Sequence[str]]) -> List[str]:
    """``only`` validated and put in canonical (paper) order.

    Raises:
        ValueError: ``only`` names an artifact that does not exist.
    """
    unknown = set(only or ()) - set(ARTIFACTS)
    if unknown:
        raise ValueError(f"unknown artifacts: {sorted(unknown)}")
    return [n for n in ARTIFACTS if only is None or n in only]


# -- incremental reproduction (DESIGN.md §8) ---------------------------------


def _wall_key(name: str, series: Optional[str], scale: float) -> str:
    return f"{name}/{series or ''}@{scale!r}"


def _cache_key(payload: Tuple[str, Optional[str], float]) -> str:
    name, series, scale = payload
    _artifact, kwargs_builder = ARTIFACT_SPECS[name]
    return unit_key(name, series, scale, kwargs_builder(scale))


def _dispatch_costs(
    payloads: Sequence[Tuple[str, Optional[str], float]],
    walls: Mapping[str, float],
) -> List[float]:
    """Per-unit dispatch cost: the recorded wall in ``walls`` (keyed by
    unit id) where known, calibrated estimate otherwise.

    The estimate is the artifact's simulated seconds split across its
    units (tables get a nominal epsilon).  Measured walls (seconds) and
    that heuristic live on different scales, so when both appear in one
    work list the heuristic is multiplied by the median
    measured-to-estimated ratio of the units that have both — keeping
    longest-first meaningful for the not-yet-measured remainder.
    Purely cosmetic for results (dispatch order cannot affect a row
    bit); it only shapes the makespan.
    """
    n_units = Counter(name for name, _series, _scale in payloads)
    estimated: List[float] = []
    measured: List[Optional[float]] = []
    ratios: List[float] = []
    for name, series, scale in payloads:
        _artifact, kwargs_builder = ARTIFACT_SPECS[name]
        seconds = kwargs_builder(scale).get("seconds", 0)
        estimate = max(float(seconds), 1.0) / n_units[name]
        wall = walls.get(_wall_key(name, series, scale))
        estimated.append(estimate)
        measured.append(wall)
        if wall is not None:
            ratios.append(wall / estimate)
    if not ratios:
        return estimated
    ratios.sort()
    calibration = ratios[len(ratios) // 2]
    return [
        estimate * calibration if wall is None else wall
        for estimate, wall in zip(estimated, measured)
    ]


def reproduce_plan(
    only: Optional[Sequence[str]],
    scale: float,
    walls: Optional[Mapping[str, float]] = None,
) -> Plan:
    """The reproduce plan: every ``(artifact, series)`` unit of the
    selected artifacts in canonical order, ids ``artifact/series@scale``
    (what the journal's manifest lists), costs from
    :func:`_dispatch_costs` over the recorded ``walls`` (none: every
    cost is the estimate).

    Raises:
        ValueError: ``only`` names an artifact that does not exist.
    """
    payloads = [
        (name, series, scale)
        for name in select_artifacts(only)
        for _name, series in artifact_units(name, scale)
    ]
    return Plan(
        "reproduce",
        tuple(
            WorkUnit(_wall_key(*payload), payload, cost=cost)
            for payload, cost in zip(
                payloads, _dispatch_costs(payloads, walls or {})
            )
        ),
        cache_key=_cache_key,
    )


@contextlib.contextmanager
def _recorded_walls(
    cache: Optional[ResultCache],
) -> Iterator[Tuple[Dict[str, float], Dict[str, float]]]:
    """Yield ``(recorded, executed)``: the cache's persisted ``last``
    wall per unit id, and an empty dict for the pass to record its
    executed walls into.  On exit — success or not, completed units are
    already cached, so their walls are kept too — the executed walls
    are merged into the cache's ``unit_timings.json``."""
    executed: Dict[str, float] = {}
    if cache is None:
        yield {}, executed
        return
    recorded = {
        unit_id: summary["last"]
        for unit_id, summary in cache.load_unit_timings().items()
    }
    try:
        yield recorded, executed
    finally:
        if executed:
            cache.save_unit_timings(executed)


def assemble_artifact(
    name: str,
    scale: float,
    units: Dict[Optional[str], Any],
    wall_seconds: float,
) -> ArtifactRun:
    artifact, kwargs_builder = ARTIFACT_SPECS[name]
    return ArtifactRun(
        name, artifact.assemble(units, **kwargs_builder(scale)), wall_seconds
    )


def runs_digest(runs: Sequence[ArtifactRun]) -> str:
    """One digest over a whole reproduce pass: names, row digests, holes.

    Canonical (sorted by artifact name) and wall-independent, so an
    interrupted-then-resumed pass seals with the same digest as an
    uninterrupted one iff every artifact's rows agree bit-for-bit.
    """
    payload = json.dumps(
        [
            {
                "name": run.name,
                "digest": experiment_digest(run.result),
                "holes": list(run.holes),
            }
            for run in sorted(runs, key=lambda r: r.name)
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class _ArtifactReducer:
    """Fold unit payloads into artifacts; emit them in canonical order.

    Order-independent: units may land in any order (longest-first
    dispatch, pool completion order, replay-then-execute); an artifact
    assembles the moment its last unit lands, and finished artifacts
    are buffered and released in plan order — the ``on_result``
    streaming contract.  An artifact with a quarantined unit cannot be
    assembled and degrades to an explicit partial (:func:`_hole_run`).
    """

    def __init__(
        self,
        plan: Plan,
        on_result: Optional[Callable[[ArtifactRun], None]],
        executed_walls: Dict[str, float],
    ) -> None:
        self.on_result = on_result
        self.executed_walls = executed_walls
        self.runs: List[ArtifactRun] = []
        self.remaining = Counter(unit.payload[0] for unit in plan.units)
        self.names = list(self.remaining)  # plan (canonical) order
        self.collected: Dict[str, Dict[Optional[str], Any]] = {
            name: {} for name in self.names
        }
        self.walls = dict.fromkeys(self.names, 0.0)
        self.holes: Dict[str, List[str]] = {name: [] for name in self.names}
        self.assembled: Dict[str, ArtifactRun] = {}

    def add(
        self, unit: WorkUnit, payload: Any, wall: Optional[float]
    ) -> None:
        name, series, scale = unit.payload
        if wall is not None:
            self.executed_walls[unit.unit_id] = wall
            self.walls[name] += wall
        self.collected[name][series] = payload
        self._settle(name, scale)

    def hole(self, unit: WorkUnit) -> None:
        name, _series, scale = unit.payload
        self.holes[name].append(unit.unit_id)
        self._settle(name, scale)

    def _settle(self, name: str, scale: float) -> None:
        self.remaining[name] -= 1
        if self.remaining[name]:
            return
        units = self.collected.pop(name)
        if self.holes[name]:
            self.assembled[name] = _hole_run(
                name, self.holes[name], self.walls[name]
            )
        else:
            self.assembled[name] = assemble_artifact(
                name, scale, units, self.walls[name]
            )
        while len(self.runs) < len(self.names):
            ready = self.assembled.pop(self.names[len(self.runs)], None)
            if ready is None:
                break
            self.runs.append(ready)
            if self.on_result is not None:
                self.on_result(ready)


def reproduce_all(
    parallel: bool = False,
    workers: Optional[int] = None,
    scale: float = 1.0,
    only: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[ArtifactRun], None]] = None,
    cache: Optional[ResultCache] = None,
    resilience: Optional[RetryPolicy] = None,
    quarantine: Optional[List[QuarantineRecord]] = None,
    chaos: Optional[ChaosPlan] = None,
    journal: Any = None,
    cancel: Optional[threading.Event] = None,
) -> List[ArtifactRun]:
    """Regenerate every table and figure, serially or sharded.

    Args:
        parallel: shard the pass across worker processes (one
            ``(artifact, series)`` scenario per unit); otherwise units
            run inline, pool-free.
        workers: pool size (default: CPU count, capped at the number of
            pending units).
        scale: duration scale; ``~0.33`` is the ``--quick`` pass.
        only: restrict to these artifact names (canonical order kept).
        on_result: called with each run as soon as it is available, in
            canonical order — lets callers stream output during a
            minutes-long full pass instead of printing at the end.
        cache: consult (and fill) this result cache per work unit —
            unchanged units load instead of executing, so a warm re-run
            assembles every figure without running a single simulation,
            bit-identically (DESIGN.md §8).  ``None`` disables caching.
        resilience: retry/backoff/deadline policy for pooled dispatch
            (default :class:`RetryPolicy`(); DESIGN.md §11).
        quarantine: a list each poisoned unit's record is
            appended to (optional).
        chaos: fault-injection plan override (tests/harness only).
        journal: crash-consistent run ledger (DESIGN.md §12): journaled
            units replay instead of executing (or probing the cache),
            completions are recorded durably, and the pass seals with
            :func:`runs_digest`.
        cancel: cooperative stop switch for pooled dispatch.

    Returns:
        Runs in canonical (paper) order regardless of completion order.
        Each run's ``wall_seconds`` is the *sum* of its executed units'
        walls (its CPU cost — zero on a warm cache), not its elapsed
        span.
    """
    with obs.span(
        "pipeline", cat="reproduce", scale=scale, parallel=parallel
    ), _recorded_walls(cache) as (recorded_walls, executed_walls):
        plan = reproduce_plan(only, scale, recorded_walls)
        reducer = _ArtifactReducer(plan, on_result, executed_walls)
        outcome = run_units(
            plan,
            run_series_unit,
            workers=(workers or os.cpu_count() or 1) if parallel else 1,
            cache=cache,
            journal=journal,
            policy=resilience,
            quarantine=quarantine,
            chaos=chaos,
            cancel=cancel,
            on_result=reducer.add,
            on_hole=reducer.hole,
        )
        outcome.seal(lambda: runs_digest(reducer.runs))
        return reducer.runs
