"""Structured runtime event log.

Every decision the SOL runtime takes — epochs, validation failures,
interceptions, timeouts, safeguard transitions, mitigations, cleanups —
is recorded as a :class:`RuntimeEvent`.  The experiment harness and the
test suite assert on this log instead of poking runtime internals,
mirroring how production SREs would consume an agent's telemetry.

Log modes (DESIGN.md §6)
------------------------
Constructing a :class:`RuntimeEvent` per occurrence is pure overhead for
consumers that only ever read aggregates — which is every fleet run: a
:class:`~repro.fleet.node.NodeResult` needs counters and the action
histogram, never individual events.  :class:`EventLog` therefore has two
modes:

* ``"full"`` (default) — append every event; all query helpers work.
  Tests that inspect individual events use this.
* ``"counts"`` — keep only per-kind counters plus the detail-derived
  aggregates the runtime reports (default-prediction count, action
  provenance histogram), and a small ring buffer of the most recent
  events for post-mortem debugging.  Per event, ``record`` allocates
  the kwargs dict and one ring tuple (which evicts the oldest), so
  memory is bounded by :data:`RING_SIZE`; per-event queries
  (:meth:`of_kind`, iteration) are unavailable.  Fleet nodes and the
  experiment scenario builders run in this mode.

Both modes keep the counters the same way — one dict keyed by
:class:`EventKind`, whose hash is the C-level identity hash rather than
``Enum``'s Python-level ``hash(self._name_)`` — and produce identical
counter values, so results and digests are unaffected by the mode; the
determinism tests pin this.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional, Union

from repro.sim.kernel import Kernel

__all__ = [
    "EventKind",
    "RuntimeEvent",
    "EventLog",
    "canonical_scalar",
    "encode_event",
    "decode_event",
]


class EventKind(enum.Enum):
    """Everything the runtime can report."""

    EPOCH_START = "epoch_start"
    DATA_COLLECTED = "data_collected"
    VALIDATION_FAILED = "validation_failed"
    MODEL_UPDATED = "model_updated"
    MODEL_ASSESSED = "model_assessed"
    PREDICTION_SENT = "prediction_sent"
    PREDICTION_INTERCEPTED = "prediction_intercepted"
    EPOCH_SHORT_CIRCUIT = "epoch_short_circuit"
    SCHEDULING_DELAY = "scheduling_delay"
    MODEL_CRASH = "model_crash"
    ACTUATION = "actuation"
    ACTUATION_TIMEOUT = "actuation_timeout"
    PREDICTION_EXPIRED = "prediction_expired"
    ACTUATOR_ASSESSED = "actuator_assessed"
    SAFEGUARD_TRIGGERED = "safeguard_triggered"
    SAFEGUARD_CLEARED = "safeguard_cleared"
    MITIGATION = "mitigation"
    ACTUATOR_CRASH = "actuator_crash"
    AGENT_KILLED = "agent_killed"
    AGENT_RESTARTED = "agent_restarted"
    CLEANUP = "cleanup"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==`` — and, unlike ``Enum.__hash__``, it runs
    # no Python frame: the per-kind counter dict is touched by every
    # ``EventLog.record`` (five times per SmartHarvest epoch).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class RuntimeEvent:
    """One timestamped runtime occurrence with free-form details."""

    time_us: int
    kind: EventKind
    agent: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - human-facing format
        extras = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time_us:>12}us] {self.agent} {self.kind.value} {extras}"


#: Ring-buffer depth kept in ``"counts"`` mode for debugging.
RING_SIZE = 64

# The two kinds ``EventLog.record`` derives aggregates from, bound once
# so the per-event dispatch is two identity tests on module globals.
_ACTUATION = EventKind.ACTUATION
_PREDICTION_SENT = EventKind.PREDICTION_SENT


# -- canonical per-event encoding (conformance; DESIGN.md §10) --------------

def canonical_scalar(value: Any) -> str:
    """Type-canonical string form of one result scalar.

    The single canonicalization every content digest in the repo uses:
    bools, ``None``, and strings by ``str``; everything numeric through
    ``repr(float(...))`` (exact — two floats canonicalize equally iff
    they are the same float); anything else by ``str``.  The experiment
    digests (:func:`repro.experiments.common.experiment_digest`) and the
    conformance terminal-state snapshots share this function, which is
    what keeps known-answer vectors digest-compatible with the pinned
    golden artifacts.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return str(value)
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return str(value)


def _canonical_detail(value: Any) -> Any:
    """JSON-ready canonical form of one event-detail value.

    Scalars keep their JSON type (int vs float vs bool vs str stays
    distinguishable, so the encoding is injective on distinct details);
    numpy scalars collapse to the Python scalar they wrap; enums to
    their ``value``; tuples to lists; numpy arrays to nested lists;
    dataclasses (e.g. a ``MemoryPlan`` prediction value) to their field
    dict; anything else non-JSON to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, enum.Enum):
        return _canonical_detail(value.value)
    if isinstance(value, dict):
        return {str(k): _canonical_detail(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_detail(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical_detail(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy array (full contents, never truncated)
        try:
            return _canonical_detail(tolist())
        except (TypeError, ValueError):
            pass
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        try:
            return _canonical_detail(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def encode_event(
    time_us: int,
    kind: Union[EventKind, str],
    agent: str,
    details: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Stable canonical byte encoding of one trace event.

    Compact JSON with sorted keys — independent of detail-dict insertion
    order, injective on distinct events (JSON preserves scalar types,
    floats serialize via ``repr``), and identical across processes and
    Python versions in use here.  ``kind`` accepts an :class:`EventKind`
    (runtime events) or a plain string (scripted conformance scenarios
    emit ad-hoc kinds like ``"queue.got"``).
    """
    payload = {
        "t": int(time_us),
        "k": kind.value if isinstance(kind, EventKind) else str(kind),
        "a": str(agent),
        "d": _canonical_detail(details or {}),
    }
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def decode_event(payload: bytes) -> Dict[str, Any]:
    """Decode :func:`encode_event` output for human-facing reports."""
    raw = json.loads(payload.decode("utf-8"))
    return {
        "time_us": raw["t"],
        "kind": raw["k"],
        "agent": raw["a"],
        "details": raw["d"],
    }


class EventLog:
    """Runtime telemetry sink with query helpers for tests and experiments.

    Args:
        kernel: owning kernel (timestamps).
        agent: agent name stamped on events.
        mode: ``"full"`` (append-only event list, all queries) or
            ``"counts"`` (aggregates + a :data:`RING_SIZE`-event ring
            buffer; see module docstring).
    """

    def __init__(self, kernel: Kernel, agent: str, mode: str = "full") -> None:
        if mode not in ("full", "counts"):
            raise ValueError(f"unknown log mode {mode!r}")
        self.kernel = kernel
        self.agent = agent
        self.mode = mode
        self._events: List[RuntimeEvent] = []
        # counts mode keeps raw (time_us, kind, details) tuples and only
        # materializes RuntimeEvents lazily in recent()/last(), so the
        # hot path builds no event object.
        self._ring: Optional[Deque[tuple]] = None
        self._counts: Dict[EventKind, int] = {}
        self._default_sent = 0
        self._actions = {"model": 0, "default": 0, "none": 0}
        self._first_fallback_us: Optional[int] = None
        self._fallback_watch_from: Optional[int] = None
        self._first_watched_fallback_us: Optional[int] = None
        self._tracer: Optional[Any] = None
        if mode == "counts":
            self._ring = deque(maxlen=RING_SIZE)

    def attach_tracer(self, sink: Any) -> None:
        """Forward every recorded event to ``sink`` (conformance traces).

        ``sink`` needs an ``on_event(time_us, payload: bytes)`` method
        (:mod:`repro.sim.trace`); payloads are the canonical
        :func:`encode_event` bytes.  Works in both log modes — tracing
        is orthogonal to retention.  One tracer at a time; ``None``
        detaches.
        """
        self._tracer = sink

    def record(self, kind: EventKind, **details: Any) -> Optional[RuntimeEvent]:
        """Record an occurrence stamped with the current simulation time.

        Returns the :class:`RuntimeEvent` in ``"full"`` mode, ``None`` in
        ``"counts"`` mode (where only a raw ring tuple is kept).  The
        clock is read once, so every consumer of one event — aggregates,
        tracer, ring or event list — sees the same timestamp.
        """
        now = self.kernel.now
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if kind is _ACTUATION:
            if details.get("has_prediction") and not details.get("is_default"):
                self._actions["model"] += 1
            else:
                bucket = (
                    "default" if details.get("has_prediction") else "none"
                )
                self._actions[bucket] += 1
                if self._first_fallback_us is None:
                    self._first_fallback_us = now
                if (
                    self._fallback_watch_from is not None
                    and self._first_watched_fallback_us is None
                    and now >= self._fallback_watch_from
                ):
                    self._first_watched_fallback_us = now
        elif kind is _PREDICTION_SENT and details.get("is_default"):
            self._default_sent += 1
        if self._tracer is not None:
            self._tracer.on_event(
                now, encode_event(now, kind, self.agent, details)
            )
        if self._ring is not None:
            self._ring.append((now, kind, details))
            return None
        event = RuntimeEvent(
            time_us=now, kind=kind, agent=self.agent, details=details,
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        if self.mode == "counts":
            return sum(self._counts.values())
        return len(self._events)

    def __iter__(self) -> Iterator[RuntimeEvent]:
        self._require_full("iterate over events")
        return iter(self._events)

    def of_kind(self, kind: EventKind) -> List[RuntimeEvent]:
        """All events of one kind, in time order (``"full"`` mode only)."""
        self._require_full("query events by kind")
        return [event for event in self._events if event.kind is kind]

    def count(self, kind: EventKind) -> int:
        """Number of events of one kind (works in both modes)."""
        return self._counts.get(kind, 0)

    def last(self, kind: EventKind) -> Optional[RuntimeEvent]:
        """Most recent event of one kind, or ``None``.

        In ``"counts"`` mode this searches only the ring buffer of
        recent events (best effort, for debugging).
        """
        if self._ring is not None:
            for time_us, ring_kind, details in reversed(self._ring):
                if ring_kind is kind:
                    return RuntimeEvent(
                        time_us=time_us, kind=kind, agent=self.agent,
                        details=details,
                    )
            return None
        for event in reversed(self._events):
            if event.kind is kind:
                return event
        return None

    def recent(self) -> List[RuntimeEvent]:
        """The retained tail of the log (everything in ``"full"`` mode)."""
        if self._ring is not None:
            return [
                RuntimeEvent(
                    time_us=time_us, kind=kind, agent=self.agent,
                    details=details,
                )
                for time_us, kind, details in self._ring
            ]
        return list(self._events)

    def summary(self) -> Dict[str, int]:
        """Event counts by kind (stable keys for experiment reports)."""
        return {kind.value: n for kind, n in self._counts.items()}

    # -- detail-derived aggregates (available in both modes) ---------------

    def default_predictions_sent(self) -> int:
        """``PREDICTION_SENT`` events whose prediction was a default."""
        return self._default_sent

    def first_fallback_us(self) -> Optional[int]:
        """Time of the first non-model actuation (default or none).

        The first simulated instant the Actuator acted without a live
        model prediction.  ``None`` if every action so far used one.
        """
        return self._first_fallback_us

    def watch_fallback_from(self, start_us: int) -> None:
        """Arm the fallback watch at ``start_us`` (a fault onset).

        Warmup fallbacks routinely happen *before* a fault window (an
        agent with no telemetry yet acts on defaults), so the safety
        campaigns' time-to-fallback anchor must be the first fallback
        **at or after** the onset — not the first ever.  The watch is
        O(1) per actuation in both log modes; re-arming resets it.
        """
        self._fallback_watch_from = start_us
        self._first_watched_fallback_us = None

    def first_watched_fallback_us(self) -> Optional[int]:
        """First fallback actuation at/after the armed watch point.

        ``None`` while unarmed or until such an actuation happens.
        """
        return self._first_watched_fallback_us

    def action_histogram(self) -> Dict[str, int]:
        """``ACTUATION`` events bucketed by prediction provenance.

        Keys: ``"model"`` (a live model prediction), ``"default"`` (a
        default/fallback prediction), ``"none"`` (acted without any
        prediction — timeout or expiry path).
        """
        return dict(self._actions)

    def _require_full(self, what: str) -> None:
        if self.mode != "full":
            raise RuntimeError(
                f"cannot {what}: this EventLog runs in {self.mode!r} mode "
                "and keeps only aggregates (construct the runtime with "
                "log_mode='full' for per-event queries)"
            )
