"""``repro serve``: a crash-tolerant local control plane (DESIGN.md §13).

An asyncio job server over a local stream socket: bounded admission
with explicit backpressure, one-at-a-time scheduling onto the warm
shared worker pool, journal-backed execution (every job is a PR 8 run,
so ``kill -9`` + restart adopts interrupted work with zero re-executed
units), cooperative cancellation and deadlines, live drain on
SIGTERM/SIGINT, and streamed per-job progress events read from one
bounded backlog per job.

The server itself (:mod:`repro.serve.server`, and with it ``asyncio``)
is imported only by ``serve start`` and by whoever imports it by name:
clients, the CLI and the launch ladder never load it.
"""

from repro.serve.client import ServeClient, ServeUnavailable, wait_for_server
from repro.serve.jobs import (
    JOB_KINDS,
    Job,
    JournalTap,
    execute_job,
)
from repro.serve.protocol import MAX_LINE, PROTOCOL_VERSION, ProtocolError

__all__ = [
    "JOB_KINDS",
    "Job",
    "JournalTap",
    "MAX_LINE",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeUnavailable",
    "execute_job",
    "wait_for_server",
]
