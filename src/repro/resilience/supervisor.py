"""The supervised dispatcher: retries, backoff, quarantine, holes.

:func:`supervised_map` is the one dispatch loop every parallel path in
the repo now runs through (fleet chunks, reproduce-all units, sweep
cells — DESIGN.md §11).  Contract:

* every unit is a pure function of its payload, so a retry can never
  change a result bit — only the *set* of completed units can vary;
* a unit that raises, whose worker dies, or that outlives its deadline
  is retried with deterministic exponential backoff (seeded jitter,
  :class:`~repro.resilience.policy.RetryPolicy`);
* a unit that fails ``max_retries + 1`` times is *poison*: it is
  quarantined (a :class:`QuarantineRecord` for the caller; the run
  journal's ``UNIT_QUARANTINED`` frame is its durable record) and the
  run continues — callers surface the hole explicitly instead of
  dying;
* ``KeyboardInterrupt`` (or any other escaping exception) tears down
  the shared pool before propagating, so the next in-process call gets
  a clean pool instead of a wedged one.

The function never raises for unit failures; it raises only for
dispatcher-level problems (bad arguments) or exceptions escaping the
caller's ``on_result`` callback.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import spans as obs
from repro.resilience.chaos import active_plan
from repro.resilience.policy import RetryPolicy

__all__ = [
    "AttemptFailure",
    "DispatchCancelled",
    "DispatchOutcome",
    "QuarantineRecord",
    "supervised_map",
]

#: Longest the dispatch loop blocks on the pool (or on a due backoff)
#: before it re-checks deadlines and the cancel token.
POLL_INTERVAL_S = 0.05


class DispatchCancelled(RuntimeError):
    """The dispatch was cancelled cooperatively mid-run.

    Raised from inside :func:`supervised_map` when the caller's cancel
    token is set: every in-flight unit's worker is killed (and
    replaced), nothing further is dispatched, and — unlike every other
    escaping exception — the shared pool is left *warm*, because a
    cancellation is an orderly stop, not a wedged dispatcher.  Callers
    that journal see the run left unsealed and resumable.
    """


@dataclass(frozen=True)
class AttemptFailure:
    """One failed attempt (possibly later recovered by a retry)."""

    unit_id: str
    attempt: int
    kind: str  # "error" | "crash" | "timeout"
    message: str


@dataclass(frozen=True)
class QuarantineRecord:
    """One poisoned unit: identity, failure history, provenance.

    Attributes:
        unit_id: dispatcher-level unit identity (fleet chunk id,
            reproduce-all unit id, or sweep node-run id).
        context: which subsystem dispatched it (``"fleet"``,
            ``"reproduce"``, ``"sweep"``, ...).
        kind: the *last* failure's classification (``error`` /
            ``crash`` / ``timeout``).
        attempts: how many times the unit was tried before poisoning.
        error: the last failure's message.
    """

    unit_id: str
    context: str
    kind: str
    attempts: int
    error: str = ""


@dataclass
class DispatchOutcome:
    """What a supervised dispatch produced, holes included.

    Attributes:
        results: completed payloads by unit id.
        quarantined: poison units, in quarantine order.
        failures: every failed attempt, including ones a retry later
            recovered — the chaos harness asserts against this.
        retried: attempts that were re-dispatched.
    """

    results: Dict[str, Any] = field(default_factory=dict)
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    failures: List[AttemptFailure] = field(default_factory=list)
    retried: int = 0

    @property
    def holes(self) -> List[str]:
        """Quarantined unit ids, sorted (the run's explicit gaps)."""
        return sorted(record.unit_id for record in self.quarantined)

    @property
    def partial(self) -> bool:
        return bool(self.quarantined)


def supervised_map(
    fn: Callable[[Any], Any],
    units: Sequence[Tuple[str, Any]],
    *,
    workers: int,
    pool_factory: Callable[[int], Any],
    pool_shutdown: Callable[[], None],
    policy: Optional[RetryPolicy] = None,
    quarantine: Optional[List[QuarantineRecord]] = None,
    on_result: Optional[Callable[[str, Any], None]] = None,
    on_quarantine: Optional[Callable[[QuarantineRecord], None]] = None,
    on_dispatch: Optional[Callable[[str, int], None]] = None,
    context: str = "units",
    cancel: Optional[threading.Event] = None,
) -> DispatchOutcome:
    """Run every unit through the supervised pool; degrade, don't die.

    Args:
        fn: picklable worker entry, called as ``fn(payload)``.
        units: ``(unit_id, payload)`` pairs in dispatch order (callers
            pre-sort longest-first; completion order is theirs to
            canonicalize).
        workers: pool size to request from ``pool_factory``.
        pool_factory: the warm-pool accessor (normally
            :func:`repro.resilience.pool.shared_pool`), resolved per
            call so tests can substitute it.
        pool_shutdown: tears down (and resets) the shared pool; called
            before re-raising any escaping exception.
        policy: retry policy (default :class:`RetryPolicy`()).
        quarantine: a list each poison unit's record is appended to
            (optional; the caller's report of this run).
        on_result: streamed ``(unit_id, result)`` callback, completion
            order.  Called *after* the workers the results freed have
            been refilled, so the caller's bookkeeping overlaps the
            next units; a result the pool returned is delivered even
            if that refill raises.
        on_quarantine: called the moment a unit is poisoned, so
            streaming callers can close out the hole immediately.
        on_dispatch: called as ``on_dispatch(unit_id, attempt)``
            immediately before each pool submission (retries included)
            — the run journal's dispatch-intent hook (DESIGN.md §12).
        context: quarantine-record provenance tag.
        cancel: cooperative stop switch.  Checked once per
            dispatch-loop iteration; when set, every in-flight unit's
            worker is killed and :class:`DispatchCancelled` is raised
            with the shared pool left warm.

    The fault-injection plan, if any, is the environment's
    (``$REPRO_CHAOS_PLAN``, :func:`repro.resilience.chaos.active_plan`),
    read once per call.

    Raises:
        DispatchCancelled: the cancel token was set mid-dispatch (or
            ``on_dispatch`` raised it); in-flight units are killed.
        ValueError: duplicate unit ids, or a malformed chaos plan.
    """
    policy = policy if policy is not None else RetryPolicy()
    plan = active_plan()
    plan_dict = plan.to_dict() if plan is not None else None
    payloads: Dict[str, Any] = {}
    for unit_id, payload in units:
        if unit_id in payloads:
            raise ValueError(f"duplicate unit id {unit_id!r}")
        payloads[unit_id] = payload
    outcome = DispatchOutcome()
    if not payloads:
        return outcome

    pending: deque = deque((unit_id, 0) for unit_id, _ in units)
    delayed: List[Tuple[float, int, str, int]] = []
    inflight: Dict[str, Tuple[int, float]] = {}
    sequence = 0

    # Per-unit telemetry spans (floating/async: in-flight units overlap
    # on this dispatcher thread).  Opened at first dispatch, closed on
    # completion or quarantine; span records never influence dispatch.
    tracer = obs.current()
    unit_spans: Dict[str, Any] = {}

    def close_unit_span(unit_id: str, **final_args: Any) -> None:
        span_ = unit_spans.pop(unit_id, None)
        if span_ is not None and tracer is not None:
            span_.args.update(final_args)
            tracer.end(span_)

    def fail(unit_id: str, attempt: int, kind: str, message: str) -> None:
        nonlocal sequence
        outcome.failures.append(
            AttemptFailure(unit_id, attempt, kind, message)
        )
        if attempt + 1 >= policy.max_attempts:
            record = QuarantineRecord(
                unit_id=unit_id,
                context=context,
                kind=kind,
                attempts=attempt + 1,
                error=message,
            )
            outcome.quarantined.append(record)
            obs.instant(
                "pool.quarantine", cat="pool",
                unit=unit_id, fault=kind, attempts=attempt + 1,
            )
            close_unit_span(unit_id, outcome="quarantined", fault=kind)
            if quarantine is not None:
                quarantine.append(record)
            if on_quarantine is not None:
                on_quarantine(record)
            return
        outcome.retried += 1
        obs.instant(
            "pool.retry", cat="pool",
            unit=unit_id, attempt=attempt + 1, fault=kind,
        )
        ready_at = time.monotonic() + policy.backoff_delay(unit_id, attempt)
        sequence += 1
        heapq.heappush(delayed, (ready_at, sequence, unit_id, attempt + 1))

    pool = pool_factory(workers)

    def refill() -> None:
        """Hand every idle worker its next unit (backoffs that came due
        included)."""
        now = time.monotonic()
        while delayed and delayed[0][0] <= now:
            _ready, _seq, unit_id, attempt = heapq.heappop(delayed)
            pending.append((unit_id, attempt))
        while pending and pool.idle_count() > 0:
            unit_id, attempt = pending.popleft()
            if on_dispatch is not None:
                on_dispatch(unit_id, attempt)
            if tracer is not None and unit_id not in unit_spans:
                unit_spans[unit_id] = tracer.begin(
                    unit_id, cat="unit",
                    args={"context": context}, attach=False,
                )
            obs.instant(
                "pool.dispatch", cat="pool",
                unit=unit_id, attempt=attempt,
            )
            pool.submit(
                fn, unit_id, attempt, payloads[unit_id], plan_dict,
                trace=tracer is not None,
            )
            deadline = (
                now + policy.unit_timeout_s
                if policy.unit_timeout_s is not None
                else math.inf
            )
            inflight[unit_id] = (attempt, deadline)

    try:
        while pending or delayed or inflight:
            if cancel is not None and cancel.is_set():
                raise DispatchCancelled(
                    f"dispatch of {context} cancelled "
                    f"({len(inflight)} in-flight unit(s) killed)"
                )
            refill()
            if not inflight:
                # Only backoff delays remain; sleep until the nearest.
                if delayed:
                    time.sleep(
                        max(
                            0.0,
                            min(
                                delayed[0][0] - time.monotonic(),
                                POLL_INTERVAL_S,
                            ),
                        )
                    )
                continue
            completed: List[Tuple[str, Any]] = []
            for kind, unit_id, attempt, _worker, payload in pool.poll(
                timeout=POLL_INTERVAL_S
            ):
                state = inflight.get(unit_id)
                if state is None or state[0] != attempt:
                    continue  # stale event from a killed worker
                del inflight[unit_id]
                if kind == "done":
                    outcome.results[unit_id] = payload
                    close_unit_span(
                        unit_id, outcome="done", attempts=attempt + 1
                    )
                    completed.append((unit_id, payload))
                else:
                    fail(unit_id, attempt, "error", payload)
            if completed:
                # Refill before commit: the workers this poll freed get
                # their next units first, so the caller's per-result
                # bookkeeping (cache.put, the journal's encode + fsync)
                # overlaps the workers' next units instead of idling
                # them.  A result the pool already returned reaches
                # on_result even if the refill raises (a cancel from the
                # dispatch hook): cancellation must not turn a finished
                # unit into a re-execution.
                try:
                    refill()
                finally:
                    if on_result is not None:
                        for unit_id, payload in completed:
                            on_result(unit_id, payload)
            for unit_id, attempt in pool.reap_crashed():
                state = inflight.get(unit_id)
                if state is None or state[0] != attempt:
                    continue
                del inflight[unit_id]
                obs.instant(
                    "pool.crash", cat="pool",
                    unit=unit_id, attempt=attempt,
                )
                fail(unit_id, attempt, "crash", "worker process died")
            now = time.monotonic()
            for unit_id, (attempt, deadline) in list(inflight.items()):
                if now > deadline:
                    pool.kill_task(unit_id)
                    del inflight[unit_id]
                    obs.instant(
                        "pool.kill", cat="pool",
                        unit=unit_id, attempt=attempt,
                        deadline_s=policy.unit_timeout_s,
                    )
                    fail(
                        unit_id,
                        attempt,
                        "timeout",
                        f"exceeded {policy.unit_timeout_s}s deadline",
                    )
    except DispatchCancelled:
        # Cancellation is the one orderly exit, whoever raised it (the
        # token check above, or the caller's dispatch hook mid-refill):
        # kill only our own in-flight units — each killed worker is
        # replaced, so the pool stays whole and warm for the next job
        # and no stale result can reach it.  Journaling callers leave
        # the run unsealed — i.e. resumable.
        for unit_id in inflight:
            pool.kill_task(unit_id)
        raise
    except BaseException:
        # A Ctrl-C lands in the workers too (same process group for
        # plain Pool workers; ours ignore SIGINT, but the dispatch
        # state is gone either way).  Reset the shared pool so the
        # *next* in-process call starts clean instead of wedged.
        pool_shutdown()
        raise
    return outcome
