"""The serve wire protocol: JSON-lines over a local stream socket.

One message per line, UTF-8 JSON objects, newline-terminated — trivially
inspectable with ``nc -U`` and composable with any language's stdlib.
Requests carry a ``verb``; replies carry ``ok`` (bool) plus
verb-specific fields; streamed job events carry ``event`` + a per-job
``seq``.  A line longer than :data:`MAX_LINE` is a protocol error on
both sides: the server must never buffer an unbounded request line, and
a client must never be asked to parse one.

Verbs (DESIGN.md §13):

``ping``
    liveness + server identity.
``submit``
    admit one job: ``kind`` (fleet | reproduce | sweep), ``config``
    (the journal's canonical config payload for that kind), optional
    ``workers`` / ``deadline_s``.  Replies ``ok`` with ``job_id`` and
    ``run_id``, or an explicit backpressure rejection when the
    admission queue is full.
``status``
    one job (``job_id``) or every known job.
``metrics``
    queue, pool, cache, journal, and per-status job counters.
``cancel``
    cooperative cancel of a queued or running job; the journal stays
    resumable.
``watch``
    subscribe to a job's event stream from ``since`` (exclusive seq);
    the server streams events until the job reaches a terminal status.
``drain``
    stop admitting, finish or checkpoint in-flight work, release
    leases, exit.

A field of the wrong JSON type (a non-string ``job_id``, a non-integer
``workers`` or ``since``, a non-numeric ``deadline_s``) gets an
:func:`error` reply, like any other invalid request.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, Optional

__all__ = [
    "MAX_LINE",
    "PROTOCOL_VERSION",
    "VERBS",
    "ProtocolError",
    "backpressure",
    "decode",
    "default_socket_path",
    "encode",
    "error",
    "event",
    "is_int",
    "is_number",
    "ok",
]

#: Hard bound on one encoded message line (newline included) — the
#: explicit never-unbounded-memory contract of the admission surface.
MAX_LINE = 1 << 20

PROTOCOL_VERSION = 1


def default_socket_path(cache_root: str) -> str:
    """Where a server for this cache root listens by default."""
    return os.path.join(os.path.abspath(cache_root), "serve.sock")


VERBS = (
    "ping",
    "submit",
    "status",
    "metrics",
    "cancel",
    "watch",
    "drain",
)


class ProtocolError(ValueError):
    """A malformed, oversized, or non-object message."""


def encode(message: Dict[str, Any]) -> bytes:
    """One message as a newline-terminated JSON line.

    Raises:
        ProtocolError: the encoded line would exceed :data:`MAX_LINE`
            or the message is not JSON-serializable.
    """
    try:
        line = json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message: {exc}") from exc
    if len(line) > MAX_LINE:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_LINE}-byte "
            "line limit"
        )
    return line


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one received line back into a message object.

    Raises:
        ProtocolError: oversized, non-JSON, too deeply nested, or
            non-object line.
    """
    if len(line) > MAX_LINE:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the {MAX_LINE}-byte limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable line: {exc}") from exc
    except RecursionError:
        # A few hundred KB of '[' is well under MAX_LINE but nests past
        # the interpreter's recursion limit inside json.loads.
        raise ProtocolError("undecodable line: nested too deeply") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def is_int(value: Any) -> bool:
    """Whether a decoded JSON value is an integer (``true`` is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """Whether a decoded JSON value is a number ``float()`` can hold."""
    return isinstance(value, float) or (
        is_int(value) and abs(value) <= sys.float_info.max
    )


def ok(**fields: Any) -> Dict[str, Any]:
    """A success reply."""
    return {"ok": True, **fields}


def error(message: str, **fields: Any) -> Dict[str, Any]:
    """A failure reply (connection stays usable)."""
    return {"ok": False, "error": message, **fields}


def backpressure(retry_after_s: float, depth: int, limit: int) -> Dict[str, Any]:
    """The explicit admission rejection: queue full, come back later.

    Distinct from a generic error so clients can branch on
    ``backpressure`` rather than parsing prose; ``retry_after_s`` is
    the server's load-based hint.
    """
    return {
        "ok": False,
        "error": f"admission queue full ({depth}/{limit})",
        "backpressure": True,
        "retry_after_s": float(retry_after_s),
        "queue_depth": int(depth),
        "queue_limit": int(limit),
    }


def event(
    job_id: str, seq: int, kind: str, fields: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One streamed job event (``seq`` is per-job, monotonically 1..N)."""
    return {
        "event": kind,
        "job_id": job_id,
        "seq": int(seq),
        **(fields or {}),
    }
