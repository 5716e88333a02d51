"""Journal bindings for the three long-running pipelines.

Each pipeline gets a **config payload** (the exact dict its
deterministic ``run_id`` hashes over and its manifest records) and an
``open_*_journal`` helper whose unit list is the pipeline's own plan
(:meth:`FleetDriver.chunk_plan`, :func:`reproduce_plan`,
:func:`sweep_plan`) — unit identities are built in one place and
cannot drift from what the executor will run.  The payload is also
sufficient to *reconstruct* the pipeline: :data:`PIPELINES` is the one
per-kind table of "payload → config → journal → run → digest", and
:func:`resume_pipeline` / :func:`baseline_digest` are the only two
ladders over it — ``repro runs resume``, the ``--kill-parent`` and
``--kill-server`` chaos harnesses, and every ``repro serve`` job go
through them, so a resume needs no memory of the original command line.

The fleet chunk plan is frozen into the manifest, so a resume under a
different ``--workers`` replays the *original* chunking — chunk shape
cannot move results, but the journal's unit list must stay stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.experiments.driver import (
    FleetDriver,
    reproduce_all,
    reproduce_plan,
    runs_digest,
    select_artifacts,
)
from repro.fleet.config import FaultPlan, FleetConfig
from repro.journal.run import RunJournal, open_run
from repro.obs import run_tracing
from repro.sweep.runner import SweepRunner, sweep_plan
from repro.sweep.spec import CampaignSpec

__all__ = [
    "PIPELINES",
    "Pipeline",
    "baseline_digest",
    "fleet_config_from_payload",
    "fleet_payload",
    "open_fleet_journal",
    "open_reproduce_journal",
    "open_sweep_journal",
    "reproduce_payload",
    "reproduce_selection_from_payload",
    "resume_pipeline",
    "spec_from_payload",
    "sweep_payload",
]


# -- fleet -------------------------------------------------------------------


def fleet_payload(config: FleetConfig) -> Dict[str, Any]:
    fault = None
    if config.fault is not None:
        fault = {
            "racks": list(config.fault.racks),
            "start_s": config.fault.start_s,
            "duration_s": config.fault.duration_s,
            "probability": config.fault.probability,
            "kind": config.fault.kind,
        }
    return {
        "n_nodes": config.n_nodes,
        "agent": config.agent,
        "seed": config.seed,
        "duration_s": config.duration_s,
        "rack_size": config.rack_size,
        "fault": fault,
    }


def fleet_config_from_payload(payload: Dict[str, Any]) -> FleetConfig:
    fault = payload.get("fault")
    plan = None
    if fault is not None:
        plan = FaultPlan(
            racks=tuple(int(r) for r in fault["racks"]),
            start_s=int(fault["start_s"]),
            duration_s=int(fault["duration_s"]),
            probability=float(fault["probability"]),
            kind=str(fault["kind"]),
        )
    return FleetConfig(
        n_nodes=int(payload["n_nodes"]),
        agent=str(payload["agent"]),
        seed=int(payload["seed"]),
        duration_s=int(payload["duration_s"]),
        rack_size=int(payload["rack_size"]),
        fault=plan,
    )


def open_fleet_journal(
    cache_root: str, config: FleetConfig, workers: int, **options: Any
) -> RunJournal:
    """Journal for one fleet run; the chunk plan freezes in the manifest.

    The run id hashes the fleet *config* only (not ``workers``): the
    same fleet maps to the same journal no matter the pool size, and a
    resume adopts the manifest's chunk plan (``verify_units=False``)
    rather than re-deriving chunks from the current worker count.
    ``options`` (here and in the two openers below) are
    :func:`~repro.journal.run.open_run`'s ``resume``, ``run_id`` and
    ``lease_ttl_s``.
    """
    driver = FleetDriver(config, workers=workers)
    chunks = driver.chunk_plan()
    return open_run(
        cache_root,
        kind="fleet",
        config=fleet_payload(config),
        plan={"chunks": chunks, "workers": driver.workers},
        units=list(chunks),
        verify_units=False,
        **options,
    )


# -- reproduce-all -----------------------------------------------------------


def reproduce_payload(
    only: Optional[Sequence[str]], scale: float
) -> Dict[str, Any]:
    """Canonical reproduce payload: validated names in paper order.

    Raises:
        ValueError: ``only`` names an artifact that does not exist.
    """
    return {
        "artifacts": select_artifacts(only),
        "scale": float(scale),
    }


def reproduce_selection_from_payload(
    payload: Dict[str, Any],
) -> Tuple[List[str], float]:
    names = [str(n) for n in payload["artifacts"]]
    return names, float(payload["scale"])


def open_reproduce_journal(
    cache_root: str,
    only: Optional[Sequence[str]],
    scale: float,
    **options: Any,
) -> RunJournal:
    config = reproduce_payload(only, scale)
    return open_run(
        cache_root,
        kind="reproduce",
        config=config,
        plan={"artifacts": config["artifacts"]},
        units=reproduce_plan(config["artifacts"], scale).unit_ids,
        **options,
    )


# -- sweep -------------------------------------------------------------------


def sweep_payload(spec: CampaignSpec) -> Dict[str, Any]:
    """The :meth:`CampaignSpec.from_dict`-shaped payload of a spec."""
    return {
        "name": spec.name,
        "agents": list(spec.agents),
        "scales": list(spec.scales),
        "seeds": list(spec.seeds),
        "duration_s": spec.duration_s,
        "rack_size": spec.rack_size,
        "fault": [
            {
                "kind": axis.kind,
                "intensities": list(axis.intensities),
                "start_s": axis.start_s,
                "duration_s": axis.duration_s,
                "racks": list(axis.racks),
            }
            for axis in spec.faults
        ],
    }


def spec_from_payload(payload: Dict[str, Any]) -> CampaignSpec:
    return CampaignSpec.from_dict(payload)


def open_sweep_journal(
    cache_root: str, spec: CampaignSpec, **options: Any
) -> RunJournal:
    return open_run(
        cache_root,
        kind="sweep",
        config=sweep_payload(spec),
        plan={"campaign": spec.name},
        units=sweep_plan(spec).unit_ids,
        **options,
    )


# -- the per-kind table ------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """How one pipeline kind is rebuilt from its payload and run.

    ``config_from_payload`` inverts the kind's ``*_payload``;
    ``open_journal(cache_root, config, workers, **open_run_options)``
    claims the run's journal; ``run(config, workers, cache, journal)``
    drives the pipeline to its result; ``digest(result)`` is what the
    run seals with; ``cached`` says whether the kind has a cache tier.
    """

    config_from_payload: Callable[[Dict[str, Any]], Any]
    open_journal: Callable[..., RunJournal]
    run: Callable[[Any, int, Optional[ResultCache], Any], Any]
    digest: Callable[[Any], str]
    cached: bool = True


PIPELINES: Dict[str, Pipeline] = {
    "fleet": Pipeline(
        config_from_payload=fleet_config_from_payload,
        open_journal=open_fleet_journal,
        run=lambda config, workers, _cache, journal: FleetDriver(
            config, workers=workers, journal=journal
        ).run(),
        digest=lambda aggregate: aggregate.digest(),
        cached=False,
    ),
    "reproduce": Pipeline(
        config_from_payload=reproduce_selection_from_payload,
        open_journal=lambda root, selection, _workers, **options: (
            open_reproduce_journal(root, *selection, **options)
        ),
        run=lambda selection, workers, cache, journal: reproduce_all(
            parallel=workers > 1, workers=workers, only=selection[0],
            scale=selection[1], cache=cache, journal=journal,
        ),
        digest=runs_digest,
    ),
    "sweep": Pipeline(
        config_from_payload=spec_from_payload,
        open_journal=lambda root, spec, _workers, **options: (
            open_sweep_journal(root, spec, **options)
        ),
        run=lambda spec, workers, cache, journal: SweepRunner(
            spec, workers=workers, cache=cache, journal=journal
        ).run(),
        digest=lambda report: report.digest(),
    ),
}


def baseline_digest(kind: str, payload: Dict[str, Any]) -> str:
    """The uninterrupted digest of ``payload``: the pipeline run inline
    in this process with no journal and no cache — the ground truth the
    kill-parent and kill-server proofs compare a resumed run against."""
    pipeline = PIPELINES[kind]
    config = pipeline.config_from_payload(payload)
    return pipeline.digest(pipeline.run(config, 1, None, None))


def resume_pipeline(
    cache_root: str,
    kind: str,
    payload: Dict[str, Any],
    run_id: str,
    *,
    workers: int,
    use_cache: bool = True,
    tap: Callable[[RunJournal], Any] = lambda journal: journal,
    trace: bool = True,
    **span_args: Any,
) -> Tuple[Any, RunJournal, Optional[ResultCache]]:
    """Adopt-or-create run ``run_id`` and drive it to its seal.

    The one "payload → config → ``open_*_journal(resume=True)`` →
    pipeline" ladder: journaled units replay, only the rest execute.
    ``tap`` wraps the journal the pipeline records through (``repro
    serve`` turns durable records into events with it); the run is
    traced (:func:`~repro.obs.run_tracing`) unless ``trace`` is off,
    with ``span_args`` on its root span.  The journal is closed — lease
    released — on the way out, success or not.

    Returns:
        ``(result, journal, cache)``: the closed journal still carries
        its stats and seal; ``cache`` is ``None`` for an uncached kind
        or ``use_cache=False``.
    """
    pipeline = PIPELINES[kind]
    config = pipeline.config_from_payload(payload)
    cache = (
        ResultCache(cache_root) if use_cache and pipeline.cached else None
    )
    with pipeline.open_journal(
        cache_root, config, workers, resume=True, run_id=run_id
    ) as journal:
        recorder = tap(journal)
        with run_tracing(journal, enabled_=trace, kind=kind, **span_args):
            result = pipeline.run(config, workers, cache, recorder)
    return result, journal, cache
