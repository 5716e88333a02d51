"""The one unit executor (DESIGN.md §11.1 states the full contract).

:func:`run_units` is the only loop in ``src/repro`` that runs work
units.  A pipeline — fleet, reproduce-all, sweep — hands it a
:class:`Plan` (ordered ids + payloads + costs, and how to derive a
cache key), a pure module-level unit function, and an order-independent
reducer (the ``on_result`` / ``on_hole`` callbacks, which yield the
digest the run seals with), and owns nothing else about execution.

The journal is reached only through ``is_done / replayed /
replayed_quarantined / record_dispatched / record_done /
record_done_many / record_quarantined / seal`` and the cache only
through ``get / put`` (and, when the cache has it, ``last_hit``: the
stored form of a hit, which the journal records as is), so timing
proxies and ``repro serve``'s event tap substitute freely;
``None`` for either becomes a null object here, once.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache import codec
from repro.obs import spans as obs
from repro.resilience.policy import RetryPolicy
from repro.resilience.pool import shared_pool, shutdown_shared_pool
from repro.resilience.supervisor import (
    DispatchCancelled,
    QuarantineRecord,
    supervised_map,
)

__all__ = ["Plan", "UnitsOutcome", "WorkUnit", "run_units"]


@dataclass(frozen=True)
class WorkUnit:
    """One unit of a plan: the id the journal, quarantine records and
    spans share; the unit function's only argument; and a dispatch cost
    (which orders dispatch and cannot affect a result bit)."""

    unit_id: str
    payload: Any
    cost: float = 0.0


@dataclass(frozen=True)
class Plan:
    """A pipeline's ordered work list.

    ``context`` tags spans and quarantine records (``"fleet"``,
    ``"reproduce"``, ``"sweep"``).  ``cache_key`` maps a unit payload to
    its content address; it is called only for units that reach the
    cache probe, and ``None`` means no cache tier (fleet chunks).
    """

    context: str
    units: Tuple[WorkUnit, ...]
    cache_key: Optional[Callable[[Any], str]] = None

    @property
    def unit_ids(self) -> List[str]:
        return [unit.unit_id for unit in self.units]


@dataclass
class UnitsOutcome:
    """How every unit of one :func:`run_units` call was satisfied:
    ``executed + cached + replayed + len(holes)`` is the plan's unit
    count, and the counters are the ones ``[journal: ...]`` prints.
    ``holes`` (sorted) are quarantined unit ids — poisoned in this call
    or replayed as quarantined."""

    executed: int = 0
    cached: int = 0
    replayed: int = 0
    holes: List[str] = field(default_factory=list)
    _journal: Any = field(default=None, repr=False)

    def seal(self, digest: Callable[[], str]) -> None:
        """Seal the run's journal with the reducer's digest — computed
        only when there is a journal to seal."""
        if self._journal is not None:
            self._journal.seal(digest())


_CACHE_MISS = object()


class _NullCache:
    """No cache: every probe misses, every store is dropped."""

    def get(self, key: str, default: Any = None) -> Any:
        return default

    def put(self, key: str, payload: Any) -> None:
        pass


class _NullJournal:
    """No journal: nothing replays, nothing is recorded."""

    replayed: Dict[str, Any] = {}
    replayed_quarantined: Tuple[str, ...] = ()

    def is_done(self, unit_id: str) -> bool:
        return False

    def record_dispatched(self, unit_id: str, attempt: int) -> None:
        pass

    def record_done(self, unit_id, payload, wall_s, executed=True) -> None:
        pass

    def record_done_many(self, items) -> None:
        pass

    def record_quarantined(self, unit_id: str, fault_kind: str) -> None:
        pass


def _timed_call(call: Tuple[Callable[[Any], Any], Any]) -> Tuple[Any, float]:
    """Run one unit and measure its wall in the process that runs it (a
    pool worker, or this process inline), so a journaled wall never
    includes queueing, pickling, or the orchestrator's bookkeeping."""
    unit_fn, payload = call
    started = time.perf_counter()
    result = unit_fn(payload)
    return result, time.perf_counter() - started


def _ignore(*_args: Any) -> None:
    pass


def run_units(
    plan: Plan,
    unit_fn: Callable[[Any], Any],
    *,
    workers: int = 1,
    cache: Any = None,
    journal: Any = None,
    policy: Optional[RetryPolicy] = None,
    quarantine: Optional[List[QuarantineRecord]] = None,
    cancel: Optional[threading.Event] = None,
    on_result: Callable[[WorkUnit, Any, Optional[float]], None] = _ignore,
    on_hole: Callable[[WorkUnit], None] = _ignore,
) -> UnitsOutcome:
    """Satisfy every unit of ``plan``: replay, else cache, else execute.

    Args:
        plan: the ordered work list.
        unit_fn: picklable module-level ``fn(payload) -> result``, pure
            in its payload (a retry or a replay can never change a bit).
        workers: pool size for pending units; ``1`` (or a single pending
            unit — a pool cannot overlap anything then) runs them inline
            in this process, pool-free.
        cache: result cache, or ``None``.
        journal: run journal, or ``None``.
        policy / quarantine: supervised-dispatch knobs (DESIGN.md
            §11); they only apply to pooled dispatch, as does a
            ``$REPRO_CHAOS_PLAN`` fault plan.  ``quarantine`` is a list
            each poisoned unit's record is appended to.
        cancel: cooperative stop switch, checked before each inline
            unit and between polls of pooled dispatch.
        on_result: ``(unit, payload, wall_s)`` for every satisfied unit
            — replayed units first, then the cache hits (after their
            one batch commit), then executed units in completion order;
            ``wall_s`` is the measured wall of a unit executed in this
            call, ``None`` for a replayed or cached one.
        on_hole: ``(unit)`` for every quarantined unit.

    Raises:
        DispatchCancelled: cooperative cancellation; the journal is left
            unsealed (sealing is the caller's last step), i.e. resumable.
    """
    outcome = UnitsOutcome(_journal=journal)
    key_of = plan.cache_key
    tiered = cache is not None and key_of is not None
    keeps_bytes = tiered or journal is not None
    if not tiered:
        cache, key_of = _NullCache(), (lambda _payload: "")
    if journal is None:
        journal = _NullJournal()

    # Replay before the cache probe: a journaled unit is never re-derived
    # from a cache that may have been pruned or corrupted since.
    pending: Dict[str, WorkUnit] = {}
    keys: Dict[str, str] = {}
    hits: List[Tuple[WorkUnit, Any, Any]] = []
    # One span for the whole probe: each unit's outcome is stored by the
    # journal's `executed` flag and the cache's counters (DESIGN.md §14).
    probe = (obs.span("cache.probe", cat="cache") if tiered
             else contextlib.nullcontext())
    with probe as sp:
        for unit in plan.units:
            unit_id = unit.unit_id
            if journal.is_done(unit_id):
                outcome.replayed += 1
                on_result(unit, journal.replayed[unit_id], None)
            elif unit_id in journal.replayed_quarantined:
                outcome.holes.append(unit_id)
                on_hole(unit)
            else:
                key = key_of(unit.payload)
                payload = cache.get(key, _CACHE_MISS)
                if payload is _CACHE_MISS:
                    pending[unit_id], keys[unit_id] = unit, key
                    continue
                # The journal stores the bytes the hit was read from, so
                # a hit is never encoded again.
                stored = getattr(cache, "last_hit", None)
                hits.append((
                    unit,
                    payload,
                    stored[1] if stored and stored[0] == key else payload,
                ))
        if sp is not None:
            sp.args.update(hits=len(hits), misses=len(pending))
    if hits:
        # One commit for every hit of the pass (an all-hit warm pass is
        # one fsync, not one per unit); the reducer hears of a hit only
        # after its record is durable.
        journal.record_done_many(
            [(unit.unit_id, stored, 0.0, False) for unit, _, stored in hits]
        )
        outcome.cached = len(hits)
        for unit, payload, _stored in hits:
            on_result(unit, payload, None)

    def dispatched(unit_id: str, attempt: int) -> None:
        journal.record_dispatched(unit_id, attempt)

    def done(unit_id: str, timed: Tuple[Any, float]) -> None:
        result, wall = timed
        encoded = codec.encode(result) if keeps_bytes else b""  # once
        # cache.put before record_done: a kill between the two leaves a
        # cached-but-unjournaled unit, which a resume loads from the
        # cache; the reverse could journal a unit whose put was lost.
        cache.put(keys[unit_id], encoded)
        journal.record_done(unit_id, encoded, wall, executed=True)
        outcome.executed += 1
        on_result(pending[unit_id], result, wall)

    def poisoned(record: QuarantineRecord) -> None:
        journal.record_quarantined(record.unit_id, record.kind)
        outcome.holes.append(record.unit_id)
        on_hole(pending[record.unit_id])

    # Longest-first keeps the expensive units from landing last and
    # trailing the makespan; the sort is stable, so ties keep plan order.
    queue = sorted(pending.values(), key=lambda unit: -unit.cost)
    if workers == 1 or len(queue) == 1:
        for unit in queue:
            if cancel is not None and cancel.is_set():
                raise DispatchCancelled(
                    f"{plan.context} run cancelled before {unit.unit_id}"
                )
            dispatched(unit.unit_id, 0)
            with obs.span(unit.unit_id, cat="unit", context=plan.context):
                timed = _timed_call((unit_fn, unit.payload))
            done(unit.unit_id, timed)
    elif queue:
        supervised_map(
            _timed_call,
            [(unit.unit_id, (unit_fn, unit.payload)) for unit in queue],
            workers=min(workers, len(queue)),
            pool_factory=shared_pool,
            pool_shutdown=shutdown_shared_pool,
            policy=policy,
            quarantine=quarantine,
            cancel=cancel,
            on_dispatch=dispatched,
            on_result=done,
            on_quarantine=poisoned,
            context=plan.context,
        )
    outcome.holes.sort()
    return outcome
