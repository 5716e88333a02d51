"""Structured runtime event log.

Every decision the SOL runtime takes — epochs, validation failures,
interceptions, timeouts, safeguard transitions, mitigations, cleanups —
is recorded through :meth:`EventLog.record`.

Counters plus one sink (DESIGN.md §6)
-------------------------------------
The log keeps no per-event history and derives nothing from an event's
details.  ``record`` does one thing per occurrence: bump the per-kind
counter (one dict keyed by :class:`EventKind`, whose hash is the C-level
identity hash rather than ``Enum``'s Python-level ``hash(self._name_)``)
and, only when a sink is attached, read the clock and forward the
canonical :func:`encode_event` bytes to it.  The safety facts an
experiment reports live with whoever decides them: prediction
provenance and the first fallback on
:class:`~repro.core.runtime.SolRuntime`, safeguard windows on
:class:`~repro.core.safeguards.SafeguardState`.  Whoever needs
individual events — the conformance digesters, a test — attaches a
sink (:mod:`repro.sim.trace`) and decodes its payloads with
:func:`decode_event`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import Any, Dict, Optional, Union

from repro.sim.kernel import Kernel

__all__ = [
    "EventKind",
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
    """Per-kind counters and one optional event sink.

    Args:
        kernel: owning kernel (timestamps).
        agent: agent name stamped on forwarded events.
    """

    def __init__(self, kernel: Kernel, agent: str) -> None:
        self.kernel = kernel
        self.agent = agent
        self._counts: Dict[EventKind, int] = {}
        self._tracer: Optional[Any] = None

    def attach_tracer(self, sink: Any) -> None:
        """Forward every recorded event to ``sink``.

        ``sink`` needs an ``on_event(time_us, payload: bytes)`` method
        (:mod:`repro.sim.trace`); payloads are the canonical
        :func:`encode_event` bytes.  This is the only per-event path out
        of the log.  One sink at a time; ``None`` detaches.
        """
        self._tracer = sink

    def record(self, kind: EventKind, **details: Any) -> None:
        """Count one occurrence; with a sink attached, forward it stamped
        with the current simulation time (the only clock read)."""
        counts = self._counts
        counts[kind] = counts.get(kind, 0) + 1
        if self._tracer is not None:
            now = self.kernel.now
            self._tracer.on_event(
                now, encode_event(now, kind, self.agent, details)
            )

    def count(self, kind: EventKind) -> int:
        """Number of events of one kind."""
        return self._counts.get(kind, 0)
