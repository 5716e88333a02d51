"""Serve jobs: admission-time validation and journaled execution.

A job is one fleet / reproduce / sweep invocation expressed as the
journal's own canonical config payload (DESIGN.md §12) — which makes
three properties fall out for free:

* **deterministic identity**: the job's ``run_id`` is
  :func:`~repro.journal.run.derive_run_id` over the same payload the
  journal hashes, so resubmitting the same work maps to the same run
  journal (and an active duplicate can be deduplicated at admission);
* **crash-equivalence**: the server executes every job with
  ``resume=True``, i.e. "adopt this run's journal if it exists, else
  start it" — a job is indistinguishable from a resume of itself, so a
  SIGKILLed server's restart re-adopts interrupted jobs with zero
  re-execution of journaled units;
* **reconstruction**: an adopted run's manifest alone rebuilds the job
  (:func:`job_from_run_info`), no memory of the original submission
  needed.

Execution happens in a worker thread (``asyncio.to_thread``); the
server's event loop stays responsive.  Progress streams out through a
:class:`JournalTap` — a delegating wrapper around the run journal whose
record hooks double as event emitters, so "what the client sees" is
exactly "what became durable", in order.  Cancellation is cooperative
and two-pronged: the job's cancel event, passed down the launch
ladder as ``cancel=``, stops pooled dispatch between poll iterations
(in-flight workers killed, pool kept warm), and the tap's
dispatch-intent hook stops inline (``workers=1``) execution between
units.  Either way the journal is left unsealed — resumable — and the
lease is released.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional

from repro.journal.registry import RunInfo
from repro.journal.run import DoneItem, RunJournal, derive_run_id
from repro.resilience.supervisor import DispatchCancelled

__all__ = [
    "JOB_KINDS",
    "Job",
    "JobCancelled",
    "JournalTap",
    "execute_job",
    "job_from_run_info",
    "job_from_submission",
]

JOB_KINDS = ("fleet", "reproduce", "sweep")

#: Statuses a job can end in (no further events after these).
TERMINAL_STATUSES = (
    "done", "failed", "cancelled", "expired", "drained",
)

Emit = Callable[..., None]


class JobCancelled(DispatchCancelled):
    """Inline-path cancellation, raised between units by the tap."""


@dataclass
class Job:
    """One admitted (or adopted) unit of control-plane work."""

    job_id: str
    kind: str
    payload: Dict[str, Any]
    run_id: str
    workers: int = 2
    deadline_s: Optional[float] = None
    adopted: bool = False
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    digest: Optional[str] = None
    error: Optional[str] = None
    counters: Dict[str, int] = field(default_factory=dict)
    cancel: threading.Event = field(default_factory=threading.Event)
    cancel_reason: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def request_cancel(self, reason: str) -> None:
        """Arm cooperative cancellation (first reason wins)."""
        if self.cancel_reason is None:
            self.cancel_reason = reason
        self.cancel.set()

    def view(self) -> Dict[str, Any]:
        """The wire-serializable status snapshot of this job."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "run_id": self.run_id,
            "status": self.status,
            "workers": self.workers,
            "deadline_s": self.deadline_s,
            "adopted": self.adopted,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "digest": self.digest,
            "error": self.error,
            "counters": dict(self.counters),
        }


def _normalized_payload(kind: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """Validate + canonicalize a submission config for ``kind``.

    Round-trips through the kind's own payload constructors
    (:data:`~repro.journal.pipelines.PIPELINES`), so the admission-time
    ``run_id`` matches the journal the execution will open bit-for-bit.

    Raises:
        ValueError: unknown kind, or malformed config for this kind.
    """
    from repro.journal.pipelines import PIPELINES

    pipeline = PIPELINES.get(kind)
    if pipeline is None:
        raise ValueError(
            f"unknown job kind {kind!r} (expected one of {JOB_KINDS})"
        )
    try:
        return pipeline.payload(pipeline.config_from_payload(config))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"malformed {kind} config: {type(exc).__name__}: {exc}"
        ) from exc


def job_from_submission(
    job_id: str, message: Dict[str, Any]
) -> Job:
    """Build a validated job from a ``submit`` message.

    Raises:
        ValueError: unknown kind, malformed config, or bad knobs.
    """
    kind = message.get("kind")
    config = message.get("config")
    if not isinstance(kind, str):
        raise ValueError("submit needs a 'kind' string")
    if not isinstance(config, dict):
        raise ValueError("submit needs a 'config' object")
    payload = _normalized_payload(kind, config)
    raw_workers = message.get("workers")
    workers = 2 if raw_workers is None else int(raw_workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    deadline_s = message.get("deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
        if deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
    return Job(
        job_id=job_id,
        kind=kind,
        payload=payload,
        run_id=derive_run_id(kind, payload),
        workers=workers,
        deadline_s=deadline_s,
    )


def job_from_run_info(job_id: str, info: RunInfo) -> Job:
    """Rebuild an adoptable job from an interrupted run's manifest."""
    payload = dict(info.manifest.get("config", {}))
    workers = int(info.manifest.get("plan", {}).get("workers", 2) or 2)
    return Job(
        job_id=job_id,
        kind=info.kind,
        payload=payload,
        run_id=info.run_id,
        workers=max(workers, 1),
        adopted=True,
    )


class JournalTap:
    """Delegating journal wrapper: durable records double as events.

    Every attribute not overridden here reaches through to the wrapped
    :class:`RunJournal`, so the pipelines use the tap exactly like the
    journal.  The overridden record hooks (a) forward to the journal
    first — an event is only ever emitted for a record that is already
    durable; a batch is forwarded whole (one commit) and its ``unit``
    events follow, in order — and (b) check the job's cancel flag on
    dispatch intent, which is the between-units cancellation point for
    inline (pool-free) execution paths.
    """

    def __init__(self, journal: RunJournal, job: Job, emit: Emit) -> None:
        self._journal = journal
        self._job = job
        self._emit = emit

    def __getattr__(self, name: str) -> Any:
        return getattr(self._journal, name)

    def _progress(self) -> Dict[str, int]:
        stats = self._journal.stats
        return {
            **asdict(stats),
            "total": len(self._journal.units),
            "done": stats.replayed + stats.executed + stats.cached,
        }

    def record_dispatched(self, unit_id: str, attempt: int) -> None:
        if self._job.cancel.is_set():
            raise JobCancelled(
                f"job {self._job.job_id} cancelled before dispatching "
                f"{unit_id}"
            )
        self._journal.record_dispatched(unit_id, attempt)

    def record_done_many(self, items: Iterable[DoneItem]) -> None:
        items = list(items)
        self._journal.record_done_many(items)
        for unit_id, _payload, _wall_s, executed in items:
            self._emit(
                "unit",
                unit=unit_id,
                executed=bool(executed),
                progress=self._progress(),
            )

    def record_done(
        self,
        unit_id: str,
        payload: Any,
        wall_s: float,
        executed: bool = True,
    ) -> None:
        self.record_done_many([(unit_id, payload, wall_s, executed)])

    def record_quarantined(self, unit_id: str, fault_kind: str) -> None:
        self._journal.record_quarantined(unit_id, fault_kind)
        self._emit(
            "quarantined",
            unit=unit_id,
            fault=fault_kind,
            progress=self._progress(),
        )

    def seal(self, digest: str) -> None:
        self._journal.seal(digest)
        self._emit("sealed", digest=digest, progress=self._progress())


def execute_job(
    job: Job, cache_root: str, emit: Emit
) -> Dict[str, Any]:
    """Run one job to completion in the calling (worker) thread.

    Drives the job down the launch ladder
    (:func:`~repro.journal.pipelines.launch`) with the job's cancel
    event as its ``cancel=``: the job's journal opens in resume mode
    (adopt-or-create) and is always closed — releasing the lease — on
    the way out, success or not.

    Returns:
        ``{"digest", "journal": {...counts...}, "cache": {...stats...}}``.

    Raises:
        DispatchCancelled: the job was cancelled (journal resumable).
        Exception: whatever the pipeline raised (job failed).
    """
    from repro.journal.pipelines import PIPELINES, launch

    def tap(journal: RunJournal) -> JournalTap:
        emit(
            "started",
            run_id=journal.run_id,
            units=len(journal.units),
            replayed=journal.stats.replayed,
        )
        return JournalTap(journal, job, emit)

    # The admission→execution span: the job's whole pipeline runs
    # under a traced root whose sidecar lands next to the journal
    # (DESIGN.md §14); queue wait is admission-to-start.
    queue_wait_s = max(
        0.0, (job.started_at or time.time()) - job.submitted_at
    )
    launched = launch(
        job.kind,
        PIPELINES[job.kind].config_from_payload(job.payload),
        cache_root=cache_root,
        workers=job.workers,
        resume=True,
        run_id=job.run_id,
        tap=tap,
        cancel=job.cancel,
        job_id=job.job_id,
        adopted=job.adopted,
        queue_wait_s=round(queue_wait_s, 6),
    )
    cache = launched.cache
    return {
        "digest": launched.journal.sealed_digest,
        "journal": launched.counters,
        "cache": cache.stats.snapshot() if cache is not None else {},
    }
