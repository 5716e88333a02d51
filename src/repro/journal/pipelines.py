"""The per-kind pipeline table and the one launch ladder over it.

Each pipeline kind (``fleet`` / ``reproduce`` / ``sweep``) has a
**config payload** — the exact dict its deterministic ``run_id`` hashes
over and its manifest records — and an ``open_*_journal`` helper whose
unit list is the pipeline's own plan (:meth:`FleetDriver.chunk_plan`,
:func:`reproduce_plan`, :func:`sweep_plan`), so unit identities are
built in one place and cannot drift from what the executor will run.

:data:`PIPELINES` is the only per-kind knowledge in ``src/repro``: CLI
args → config, config ↔ payload, journal opener, driver, digest, parts,
report printer.  :func:`launch` is the only ladder over it — result
cache, journal, :func:`~repro.obs.run_tracing`, driver, ``close()``,
composed once (DESIGN.md §11.2).  ``repro fleet |
reproduce-all | sweep run | run``, ``repro runs resume``, every ``repro
serve`` job and every ``repro chaos`` proof start a pipeline through
it; the payload alone rebuilds the pipeline, so a resume needs no
memory of the original command line.

The fleet chunk plan is frozen into the manifest, so a resume under a
different ``--workers`` replays the *original* chunking — chunk shape
cannot move results, but the journal's unit list must stay stable.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache import ResultCache
from repro.experiments.common import experiment_digest
from repro.experiments.driver import (
    ArtifactRun,
    FleetDriver,
    reproduce_all,
    reproduce_plan,
    runs_digest,
    select_artifacts,
)
from repro.fleet.config import FaultPlan, FleetConfig
from repro.journal.run import RunJournal, open_run
from repro.obs import run_tracing
from repro.resilience import QuarantineRecord
from repro.sweep.runner import SweepRunner, sweep_plan
from repro.sweep.spec import CampaignSpec, load_spec

__all__ = [
    "PIPELINES",
    "Launch",
    "Pipeline",
    "baseline_digest",
    "fleet_config_from_payload",
    "fleet_payload",
    "launch",
    "open_fleet_journal",
    "open_reproduce_journal",
    "open_sweep_journal",
    "print_report",
    "reproduce_payload",
    "reproduce_selection_from_payload",
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
    :func:`~repro.journal.run.open_run`'s ``resume`` and ``run_id``.
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


def fleet_config_from_args(args: Any) -> FleetConfig:
    """The fleet the shared ``--nodes/--agent/--seconds/--seed`` group
    describes (plus ``repro fleet``'s ``--rack-size`` and ``--fault-*``
    burst) — the one place CLI args become a :class:`FleetConfig`.

    Raises:
        ValueError: ``--fault-racks`` names no rack.
    """
    fault = None
    if args.fault_racks is not None:
        racks = tuple(int(r) for r in args.fault_racks.split(",") if r != "")
        if not racks:
            raise ValueError("--fault-racks needs at least one rack index")
        fault = FaultPlan(
            racks=racks,
            start_s=args.fault_start,
            duration_s=args.fault_duration,
            probability=args.fault_probability,
            kind=args.fault_kind,
        )
    return FleetConfig(
        n_nodes=args.nodes,
        agent=args.agent,
        seed=args.seed,
        duration_s=args.seconds,
        rack_size=args.rack_size,
        fault=fault,
    )


def _report_fleet(launched: "Launch") -> None:
    print(launched.result.render())
    # The pool is capped at one worker per node.
    workers = min(launched.workers, launched.config.n_nodes)
    print(f"[{workers} worker(s), {launched.wall_s:.1f}s wall]")


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


def print_artifact(run: ArtifactRun) -> None:
    """Print one finished artifact (reproduce's ``stream``)."""
    print(run.result.render())
    # The digest line is what the CI cache smoke diffs between a cold
    # and a warm pass — cached assembly must be bit-identical.
    print(f"[digest {run.result.name} {experiment_digest(run.result)}]")
    print(f"[{run.wall_seconds:.1f}s wall]\n", flush=True)


def _report_reproduce(launched: "Launch") -> None:
    runs = launched.result
    mode = "parallel/series" if launched.workers > 1 else "serial"
    partial = sum(1 for run in runs if run.partial)
    summary = f"[reproduce-all: {len(runs)} artifacts"
    if partial:
        summary += f" ({partial} PARTIAL)"
    print(f"{summary}, {mode}, {launched.wall_s:.1f}s wall total]")


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


def spec_from_args(args: Any) -> CampaignSpec:
    """The campaign ``SPEC`` / ``--spec`` names.

    Raises:
        ValueError: no spec given, unreadable, or invalid.
    """
    if not args.spec:
        raise ValueError("a sweep needs --spec SPEC.toml")
    try:
        return load_spec(args.spec)
    except OSError as error:
        raise ValueError(f"cannot read {args.spec}: {error}") from error


def _report_sweep(launched: "Launch") -> None:
    report = launched.result
    print(report.render())
    print(
        f"[sweep: {len(report.records)} cells, "
        f"{report.executed} executed, "
        f"{report.from_cache} from cache, "
        f"{report.wall_seconds:.1f}s wall]"
    )


# -- the per-kind table ------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """Everything ``src/repro`` knows about one pipeline kind.

    ``config_from_args(args)`` reads the kind's shared flag group
    (:mod:`repro.flags`); ``payload(config)`` / ``config_from_payload``
    are the manifest round trip; ``open_journal(cache_root, config,
    workers, **open_run_options)`` claims the run's journal;
    ``run(config, workers, cache, journal, *, resilience, quarantine,
    cancel, on_result)`` hands all of that to the kind's driver
    (``on_result`` streams finished pieces — only ``reproduce`` has any
    before the end); ``digest(result)`` is what the run seals with;
    ``parts(result)`` names each separately-digested piece as ``name →
    (digest, quarantined unit ids)``; ``report(launch)`` prints the
    result the way the kind's CLI command does, with ``stream`` as the
    ``on_result`` that prints pieces as they land; ``cached`` says
    whether the kind has a cache tier.
    """

    config_from_args: Callable[[Any], Any]
    payload: Callable[[Any], Dict[str, Any]]
    config_from_payload: Callable[[Dict[str, Any]], Any]
    open_journal: Callable[..., RunJournal]
    run: Callable[..., Any]
    digest: Callable[[Any], str]
    parts: Callable[[Any], Dict[str, Tuple[str, Sequence[str]]]]
    report: Callable[["Launch"], None]
    stream: Optional[Callable[[Any], None]] = None
    cached: bool = True


PIPELINES: Dict[str, Pipeline] = {
    "fleet": Pipeline(
        config_from_args=fleet_config_from_args,
        payload=fleet_payload,
        config_from_payload=fleet_config_from_payload,
        open_journal=open_fleet_journal,
        run=lambda config, workers, _cache, journal, on_result, **dispatch: (
            FleetDriver(
                config, workers=workers, journal=journal, **dispatch
            ).run()
        ),
        digest=lambda aggregate: aggregate.digest(),
        parts=lambda aggregate: {"fleet": (
            aggregate.digest(), [f"n{n}" for n in aggregate.holes]
        )},
        report=_report_fleet,
        cached=False,
    ),
    "reproduce": Pipeline(
        config_from_args=lambda args: reproduce_selection_from_payload(
            reproduce_payload(args.only, args.scale)
        ),
        payload=lambda selection: reproduce_payload(*selection),
        config_from_payload=reproduce_selection_from_payload,
        open_journal=lambda root, selection, _workers, **options: (
            open_reproduce_journal(root, *selection, **options)
        ),
        run=lambda selection, workers, cache, journal, **dispatch: (
            reproduce_all(
                workers=workers, only=selection[0], scale=selection[1],
                cache=cache, journal=journal, **dispatch
            )
        ),
        digest=runs_digest,
        parts=lambda runs: {
            run.name: (experiment_digest(run.result), run.holes)
            for run in runs
        },
        report=_report_reproduce,
        stream=print_artifact,
    ),
    "sweep": Pipeline(
        config_from_args=spec_from_args,
        payload=sweep_payload,
        config_from_payload=spec_from_payload,
        open_journal=lambda root, spec, _workers, **options: (
            open_sweep_journal(root, spec, **options)
        ),
        run=lambda spec, workers, cache, journal, on_result, **dispatch: (
            SweepRunner(
                spec, workers=workers, cache=cache, journal=journal,
                **dispatch
            ).run()
        ),
        digest=lambda report: report.digest(),
        parts=lambda report: {
            "campaign": (report.digest(), report.quarantined)
        },
        report=_report_sweep,
    ),
}


# -- the launch ladder -------------------------------------------------------


@dataclass(frozen=True)
class Launch:
    """What one trip down :func:`launch` leaves behind.

    ``journal`` is closed (lease released) but still carries its stats
    and seal; it is ``None`` for an unjournaled launch, as ``cache`` is
    for an uncached kind or launch.  ``quarantine`` holds the units
    this launch poisoned (a replayed hole was poisoned by an earlier
    one); the journal's ``UNIT_QUARANTINED`` frames are their durable
    record.
    """

    kind: str
    config: Any
    workers: int
    result: Any
    journal: Optional[RunJournal]
    cache: Optional[ResultCache]
    quarantine: List[QuarantineRecord]
    wall_s: float

    @property
    def counters(self) -> Dict[str, int]:
        """The journal's replay/execute split (a serve job's counters,
        the ``re-executed`` arithmetic of the kill proofs)."""
        return {**asdict(self.journal.stats), "total": len(self.journal.units)}


def launch(
    kind: str,
    config: Any,
    *,
    workers: int,
    cache_root: Optional[str] = None,
    journaled: bool = True,
    resume: bool = False,
    run_id: Optional[str] = None,
    open_cache: Optional[Callable[[str], ResultCache]] = ResultCache,
    tap: Callable[[RunJournal], Any] = lambda journal: journal,
    trace: bool = True,
    policy: Any = None,
    cancel: Optional[threading.Event] = None,
    on_result: Optional[Callable[[Any], None]] = None,
    **span_args: Any,
) -> Launch:
    """Run one ``kind`` pipeline over ``config`` — the one launch ladder.

    Composes, exactly once for every caller: the result cache
    (``open_cache(cache_root)``; ``None`` or an uncached kind: no
    cache), the list the poisoned units' records land in, the run
    journal (``journaled``; fresh, or ``resume`` — adopt-or-create
    ``run_id``: journaled units replay, only the rest execute), the
    telemetry sidecar (:func:`~repro.obs.run_tracing`, a no-op without
    a journal or with ``trace`` off; ``span_args`` land on its root
    span), the kind's driver, and the journal's ``close()`` — lease
    released — on the way out, success or not.  ``tap`` wraps the
    journal the driver records through (``repro serve`` turns durable
    records into events with it); ``cancel`` stops pooled dispatch
    (a serve job's cancel switch).

    Raises:
        ValueError: ``resume`` without a journal to resume.
    """
    if resume and not journaled:
        raise ValueError("--resume needs the journal (no --no-journal)")
    pipeline = PIPELINES[kind]
    cache = None
    if open_cache is not None and pipeline.cached:
        cache = open_cache(cache_root)
    quarantine: List[QuarantineRecord] = []
    with contextlib.ExitStack() as stack:
        journal = recorder = None
        if journaled:
            journal = stack.enter_context(pipeline.open_journal(
                cache_root, config, workers, resume=resume, run_id=run_id
            ))
            recorder = tap(journal)
        started = time.perf_counter()
        with run_tracing(journal, enabled_=trace, kind=kind, **span_args):
            result = pipeline.run(
                config, workers, cache, recorder,
                resilience=policy, quarantine=quarantine, cancel=cancel,
                on_result=on_result,
            )
        wall_s = time.perf_counter() - started
    return Launch(
        kind, config, workers, result, journal, cache, quarantine, wall_s
    )


def baseline_digest(kind: str, payload: Dict[str, Any]) -> str:
    """The uninterrupted digest of ``payload``: the pipeline run inline
    with no journal and no cache — the ground truth the kill-parent and
    kill-server proofs compare a resumed run against."""
    pipeline = PIPELINES[kind]
    return pipeline.digest(launch(
        kind, pipeline.config_from_payload(payload),
        workers=1, journaled=False, open_cache=None,
    ).result)


def journal_status_line(journal: RunJournal) -> str:
    """The ``[journal: ...]`` summary every launched command prints.

    Deliberately not ``[cache: ...]`` — the sweep CLI contract promises
    no cache line under ``--no-cache``, and the journal is not the
    result cache.
    """
    stats = journal.stats
    state = "sealed" if journal.sealed else "open"
    return (
        f"[journal: run {journal.run_id} units={len(journal.units)} "
        f"replayed={stats.replayed} executed={stats.executed} "
        f"cached={stats.cached} quarantined={stats.quarantined} {state}]"
    )


def print_report(launched: Launch) -> None:
    """The kind's report, then the ``[cache: …]`` / ``[journal: …]`` /
    ``[quarantine: …]`` status lines of whichever layers were on."""
    PIPELINES[launched.kind].report(launched)
    cache, journal = launched.cache, launched.journal
    if cache is not None:
        print(f"[cache: {cache.stats.render()} dir={cache.directory}]")
    if journal is not None:
        print(journal_status_line(journal))
    records = launched.quarantine
    if records:
        units = ", ".join(sorted(r.unit_id for r in records))
        print(f"[quarantine: {len(records)} unit(s) — {units}]")
