"""``repro serve``: the crash-tolerant asyncio control plane.

One server owns one cache root.  Clients connect over a local stream
socket (:mod:`repro.serve.protocol`) and submit fleet / reproduce /
sweep jobs; the server validates at admission time, queues onto one
*bounded* deque of queued jobs (adopted runs first; a full queue gets an
explicit backpressure reply with a retry-after hint, never unbounded
buffering), and executes jobs one at a time on the process-wide warm
:func:`~repro.resilience.pool.shared_pool` (``supervised_map`` is
deliberately not reentrant, so the scheduler serializes — the pool
itself still fans each job out across workers).

Each job's bounded event backlog is the only event store: a ``watch``
sends the entries newer than its ``since``.  Nothing polls: the
scheduler, every ``watch`` and a drain wait on one server-wide wake-up
(:meth:`ServeServer._wake`), which every event, admission and drain
fires, and deadlines are ``loop.call_later`` timers.

Crash tolerance is inherited, not bolted on: every job runs under a
run journal opened in resume mode, so a ``kill -9`` of the server
mid-job leaves a sealed-or-resumable journal and a lease lock the
kernel has already dropped, claimable by a successor at once.  On
startup the server scans for interrupted runs and re-adopts
them as internal jobs — re-executing zero journaled units.  The
``repro chaos serve --kill-server N`` harness proves the whole loop.

Shutdown surfaces, in decreasing gentleness:

* ``drain`` verb — stop admitting, let in-flight work finish, release
  leases, exit 0;
* ``SIGTERM`` — stop admitting, give in-flight jobs ``drain_grace_s``
  to finish, then cancel them (journals left resumable), exit 143;
* ``SIGINT`` — cancel in-flight work immediately, exit 130;
* ``SIGKILL`` — nothing to do; the journal + lease protocol makes the
  successor's adoption safe anyway.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import signal
import socket as socket_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Deque, Dict, List, Optional

from repro.journal.registry import interrupted_runs
from repro.journal.run import check_resumable
from repro.resilience.pool import shutdown_shared_pool
from repro.resilience.supervisor import DispatchCancelled
from repro.serve import protocol
from repro.serve.jobs import (
    Job,
    execute_job,
    job_from_run_info,
    job_from_submission,
)
from repro.serve.metrics import ServeMetrics

__all__ = ["ServeServer"]

#: Events retained per job: the one event store ``watch`` reads.  A
#: watcher that falls this far behind loses the rotated-out events
#: (counted in ``metrics.events.dropped``), never server memory.
EVENT_BACKLOG = 512

#: Terminal jobs the server remembers (newest-finished kept): beyond it
#: a finished job's view, backlog and sequence counter are dropped and
#: its id answers ``unknown job`` — the run stays in the journal
#: registry.  Bounds server memory and the bare ``status`` reply
#: (~384 bytes per view against ``protocol.MAX_LINE``).
RETAINED_JOBS = 256


@dataclass
class ServeServer:
    """The control plane for one cache root.

    Args:
        cache_root: cache directory jobs execute against (journals
            under ``<cache_root>/runs/``).
        socket_path: listening socket (default
            ``<cache_root>/serve.sock``).
        queue_limit: bounded admission queue size (adopted jobs do not
            count); submissions beyond it get an explicit backpressure
            rejection.
        drain_grace_s: how long SIGTERM lets in-flight work finish
            before cancelling it.
    """

    cache_root: str
    socket_path: Optional[str] = None
    queue_limit: int = 8
    drain_grace_s: float = 5.0

    exit_code: int = 0
    jobs: Dict[str, Job] = field(default_factory=dict)
    metrics: ServeMetrics = field(default_factory=ServeMetrics)

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.cache_root = os.path.abspath(self.cache_root)
        if self.socket_path is None:
            self.socket_path = protocol.default_socket_path(self.cache_root)
        self._accepting = True
        self._draining = False
        self._job_seq = 0
        self._queued: Deque[Job] = deque()  # adopted jobs first
        self._events: Dict[str, Deque[Dict[str, Any]]] = {}
        self._event_seq: Dict[str, int] = {}
        self._watchers: Dict[str, int] = {}
        self._finished: Deque[str] = deque()  # job ids, finish order
        self._current: Optional[Job] = None
        self._changed = asyncio.Event()
        self._shutdown = asyncio.Event()
        self._stack_loaded = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------------
    # lifecycle

    async def run(self) -> int:
        """Serve until drained or signalled; returns the exit code."""
        self._loop = asyncio.get_running_loop()
        self._install_signal_handlers()
        self._remove_stale_socket()
        os.makedirs(os.path.dirname(self.socket_path) or ".", exist_ok=True)
        server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=protocol.MAX_LINE + 1,
        )
        self._log(
            f"[serve: listening on {self.socket_path} "
            f"(cache {self.cache_root}, queue limit {self.queue_limit})]"
        )
        self._adopt_interrupted()
        self._load_stack()
        scheduler = asyncio.create_task(self._scheduler())
        try:
            await self._shutdown.wait()
        finally:
            self._accepting = False
            server.close()
            await server.wait_closed()
            await self._finish_scheduler(scheduler)
            self._cleanup_socket()
            shutdown_shared_pool()
            self._log(f"[serve: exit {self.exit_code}]")
        return self.exit_code

    def _log(self, line: str) -> None:
        print(line, flush=True)

    def _wake(self) -> None:
        """Wake everything waiting on :attr:`_changed` (the scheduler,
        watchers, a drain) and arm a fresh event for the next wait."""
        self._changed.set()
        self._changed = asyncio.Event()

    def _install_signal_handlers(self) -> None:
        # add_signal_handler is main-thread-only; in-thread test servers
        # simply run without signal integration.
        assert self._loop is not None
        for signum, handler in (
            (signal.SIGTERM, self._on_sigterm),
            (signal.SIGINT, self._on_sigint),
        ):
            try:
                self._loop.add_signal_handler(signum, handler)
            except (ValueError, NotImplementedError, RuntimeError):
                return

    def _remove_stale_socket(self) -> None:
        """Unlink a dead predecessor's socket; refuse a live one.

        A bare ``connect()`` is not proof of life: a SIGKILLed
        predecessor's *pool workers* inherited the listening fd at
        fork, so the kernel keeps accepting connections that no one
        will ever service until the orphans notice the ppid change and
        exit.  Only an answered ``ping`` counts as a live server.
        """
        if not os.path.exists(self.socket_path):
            return
        probe = socket_module.socket(socket_module.AF_UNIX)
        probe.settimeout(0.5)
        try:
            probe.connect(self.socket_path)
            probe.sendall(protocol.encode({"verb": "ping"}))
            reply = probe.recv(protocol.MAX_LINE)
            if reply and protocol.decode(reply).get("ok"):
                raise SystemExit(
                    f"repro: error: a server is already listening on "
                    f"{self.socket_path}"
                )
        except (OSError, protocol.ProtocolError):
            pass  # stale — predecessor died
        finally:
            probe.close()
        os.unlink(self.socket_path)

    def _cleanup_socket(self) -> None:
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------
    # shutdown paths

    def _on_sigterm(self) -> None:
        """Graceful drain: grace period, then cancel, exit 143."""
        if self._draining:
            return
        self._log(
            f"[serve: SIGTERM — draining "
            f"(grace {self.drain_grace_s:.1f}s)]"
        )
        self._begin_drain(exit_code=143, grace_s=self.drain_grace_s)

    def _on_sigint(self) -> None:
        """Fast drain: cancel in-flight work now, exit 130."""
        if self._draining:
            return
        self._log("[serve: SIGINT — cancelling in-flight work]")
        self._begin_drain(exit_code=130, grace_s=0.0)

    def _begin_drain(self, exit_code: int, grace_s: float) -> None:
        self._draining = True
        self._accepting = False
        self.exit_code = exit_code
        self._wake()  # an idle scheduler stops now
        asyncio.ensure_future(self._drain(grace_s))

    async def _drain(self, grace_s: float) -> None:
        """Stop admitting, settle in-flight work, then shut down."""
        self._drop_queued()
        current = self._current
        if current is not None:
            assert self._loop is not None
            grace = self._loop.call_later(
                grace_s, current.request_cancel, "drain"
            )
            while not current.terminal:  # its last event wakes us
                await self._changed.wait()
            grace.cancel()
        # The scheduler stops after the job it was running; the
        # _finish_scheduler await covers the job thread's journal close
        # (lease release) before we exit.
        self._shutdown.set()

    def _drop_queued(self) -> None:
        """Mark every queued-not-started job drained (journals never
        opened, so there is nothing to release)."""
        while self._queued:
            self._finish(self._queued.popleft(), "drained",
                         {"reason": "drain"})

    async def _finish_scheduler(self, scheduler: asyncio.Task) -> None:
        with contextlib.suppress(asyncio.CancelledError):
            await scheduler

    # ------------------------------------------------------------------
    # adoption

    def _adopt_interrupted(self) -> None:
        """Queue every interrupted run in this cache root as a job."""
        try:
            orphans = interrupted_runs(self.cache_root)
        except Exception as exc:  # registry scan must never kill startup
            self._log(f"[serve: adoption scan failed: {exc}]")
            return
        for info in orphans:
            if any(
                job.run_id == info.run_id and not job.terminal
                for job in self.jobs.values()
            ):
                continue
            try:
                check_resumable(info.run_id, info.manifest)
            except ValueError as exc:
                # Another build's journal: left on disk for `runs prune`.
                self._log(f"[serve: not adopting — {exc}]")
                continue
            job = job_from_run_info(self._next_job_id(), info)
            self.jobs[job.job_id] = job
            self._queued.append(job)
            self.metrics.adopted += 1
            self._log(
                f"[serve: adopted interrupted run {info.run_id} "
                f"({info.kind}, {info.done_units}/{info.total_units} "
                f"journaled) as job {job.job_id}]"
            )

    # ------------------------------------------------------------------
    # scheduler

    def _next_job_id(self) -> str:
        self._job_seq += 1
        return f"job-{self._job_seq:04d}"

    def _load_stack(self) -> None:
        """Import the execution stack after the bind, on a daemon thread:
        pings are answered meanwhile, no pool forks mid-import, and
        shutdown joins neither the import nor its thread."""
        loop = asyncio.get_running_loop()

        def load() -> None:
            error: Optional[Exception] = None
            try:
                import_module("repro.journal.pipelines")
            except Exception as exc:  # each job then fails with this error
                error = exc
            with contextlib.suppress(RuntimeError):  # the loop has closed
                loop.call_soon_threadsafe(self._stack_ready, error)

        threading.Thread(
            target=load, name="repro-serve-import", daemon=True
        ).start()

    def _stack_ready(self, error: Optional[Exception]) -> None:
        if error is not None:
            self._log(f"[serve: execution stack failed to import: {error}]")
        self._stack_loaded = True
        self._wake()

    async def _scheduler(self) -> None:
        """Run admitted jobs one at a time, once the execution stack is
        loaded (supervised_map is not reentrant; the pool parallelism
        lives inside each job)."""
        while not self._draining:
            if not (self._stack_loaded and self._queued):
                await self._changed.wait()
                continue
            job = self._queued.popleft()
            self._current = job
            try:
                await self._run_job(job)
            finally:
                self._current = None

    async def _run_job(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()
        self._emit(job, "running", {"kind": job.kind, "run_id": job.run_id})
        assert self._loop is not None
        loop = self._loop
        deadline = loop.call_later(
            math.inf if job.deadline_s is None else job.deadline_s,
            self._expire, job,
        )

        def emit_from_thread(kind: str, **fields: Any) -> None:
            loop.call_soon_threadsafe(self._emit, job, kind, fields)

        try:
            result = await asyncio.to_thread(
                execute_job, job, self.cache_root, emit_from_thread
            )
        except DispatchCancelled as exc:
            reason = job.cancel_reason or "cancel"
            status = {
                "deadline": "expired",
                "drain": "cancelled",
            }.get(reason, "cancelled")
            self._finish(
                job, status, {"reason": reason, "detail": str(exc)}
            )
            self._log(
                f"[serve: job {job.job_id} {status} ({reason}) — "
                f"run {job.run_id} left resumable]"
            )
        except BaseException as exc:
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed", {"error": job.error})
            self._log(f"[serve: job {job.job_id} failed: {job.error}]")
        else:
            job.digest = result.get("digest")
            job.counters = dict(result.get("journal") or {})
            self.metrics.absorb_result(result)
            self._finish(
                job, "done",
                {"digest": job.digest, "counters": job.counters},
            )
            self._log(
                f"[serve: job {job.job_id} done — run {job.run_id} "
                f"sealed {job.digest}]"
            )
        finally:
            deadline.cancel()

    def _expire(self, job: Job) -> None:
        if not job.terminal:
            self._log(
                f"[serve: job {job.job_id} exceeded "
                f"{job.deadline_s:.1f}s deadline — cancelling]"
            )
            job.request_cancel("deadline")

    def _finish(self, job: Job, status: str, fields: Dict[str, Any]) -> None:
        """Move ``job`` to a terminal ``status``, emit its last event,
        and forget the oldest-finished jobs beyond :data:`RETAINED_JOBS`
        — never one a ``watch`` is still following."""
        job.status = status
        job.finished_at = time.time()
        self._emit(job, status, fields)
        self._finished.append(job.job_id)
        watched: List[str] = []
        while (self._finished
               and len(self._finished) + len(watched) > RETAINED_JOBS):
            old = self._finished.popleft()
            if old in self._watchers:
                watched.append(old)
                continue
            del self.jobs[old]
            self._events.pop(old, None)
            self._event_seq.pop(old, None)
        self._finished.extendleft(reversed(watched))

    # ------------------------------------------------------------------
    # events

    def _emit(self, job: Job, kind: str, fields: Dict[str, Any]) -> None:
        seq = self._event_seq.get(job.job_id, 0) + 1
        self._event_seq[job.job_id] = seq
        message = protocol.event(job.job_id, seq, kind, fields)
        backlog = self._events.setdefault(
            job.job_id, deque(maxlen=EVENT_BACKLOG)
        )
        backlog.append(message)
        self.metrics.events_emitted += 1
        self._wake()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError
                ):  # oversized line
                    await self._reply(
                        writer,
                        protocol.error(
                            f"request line exceeds "
                            f"{protocol.MAX_LINE} bytes"
                        ),
                    )
                    return
                if not line:
                    return
                if line.strip() == b"":
                    continue
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await self._reply(writer, protocol.error(str(exc)))
                    continue
                done = await self._dispatch(message, writer)
                if done:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _reply(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _dispatch(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Handle one request; True ends the connection (watch/drain)."""
        verb = message.get("verb")
        if verb == "ping":
            await self._reply(writer, protocol.ok(
                server="repro-serve",
                protocol=protocol.PROTOCOL_VERSION,
                pid=os.getpid(),
                cache_root=self.cache_root,
                accepting=self._accepting,
            ))
            return False
        if verb == "submit":
            # Admission validates against the pipelines; waiting here,
            # not on the import lock, keeps the loop answering.  A drain
            # ends the wait: the submission is then refused.
            while not self._stack_loaded and self._accepting:
                await self._changed.wait()
            await self._reply(writer, self._handle_submit(message))
            return False
        if verb == "status":
            await self._reply(writer, self._handle_status(message))
            return False
        if verb == "metrics":
            snap = self.metrics.snapshot(
                self.jobs.values(),
                queue_depth=len(self._queued),
                queue_limit=self.queue_limit,
                accepting=self._accepting,
                draining=self._draining,
            )
            if message.get("format") == "prometheus":
                from repro.obs.export import render_prometheus

                await self._reply(writer, protocol.ok(
                    format="prometheus",
                    text=render_prometheus(snap),
                ))
            else:
                await self._reply(writer, protocol.ok(metrics=snap))
            return False
        if verb == "cancel":
            await self._reply(writer, self._handle_cancel(message))
            return False
        if verb == "watch":
            await self._handle_watch(message, writer)
            return True
        if verb == "drain":
            await self._reply(writer, protocol.ok(draining=True))
            self._log("[serve: drain requested — shutting down]")
            self._begin_drain(exit_code=0, grace_s=float("inf"))
            return True
        return await self._reply_unknown(writer, verb)

    async def _reply_unknown(
        self, writer: asyncio.StreamWriter, verb: Any
    ) -> bool:
        await self._reply(writer, protocol.error(
            f"unknown verb {verb!r} (expected one of "
            f"{', '.join(protocol.VERBS)})"
        ))
        return False

    def _handle_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if not self._accepting:
            return protocol.error("server is draining", draining=True)
        try:
            job = job_from_submission(self._next_job_id(), message)
        except ValueError as exc:
            self.metrics.invalid += 1
            return protocol.error(f"invalid submission: {exc}")
        for existing in self.jobs.values():
            if existing.run_id == job.run_id and not existing.terminal:
                self.metrics.deduplicated += 1
                return protocol.ok(
                    job_id=existing.job_id,
                    run_id=existing.run_id,
                    status=existing.status,
                    deduplicated=True,
                )
        depth = len(self._queued)
        adopted = sum(queued.adopted for queued in self._queued)
        if depth - adopted >= self.queue_limit:
            self.metrics.rejected += 1
            return protocol.backpressure(
                retry_after_s=max(1.0, 0.5 * depth),
                depth=depth,
                limit=self.queue_limit,
            )
        self._queued.append(job)
        self.jobs[job.job_id] = job
        self.metrics.submitted += 1
        self._emit(job, "queued", {
            "kind": job.kind,
            "run_id": job.run_id,
            "position": depth,
        })
        return protocol.ok(
            job_id=job.job_id,
            run_id=job.run_id,
            status=job.status,
            queue_depth=depth + 1,
        )

    def _job(self, job_id: Any) -> Optional[Job]:
        """The job a request names; ``None`` for any non-string id."""
        return self.jobs.get(job_id) if isinstance(job_id, str) else None

    def _handle_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id")
        if job_id is not None:
            job = self._job(job_id)
            if job is None:
                return protocol.error(f"unknown job {job_id!r}")
            return protocol.ok(job=job.view())
        return protocol.ok(
            jobs=[
                job.view()
                for job in sorted(
                    self.jobs.values(), key=lambda j: j.job_id
                )
            ]
        )

    def _handle_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id")
        job = self._job(job_id)
        if job is None:
            return protocol.error(f"unknown job {job_id!r}")
        if job.terminal:
            return protocol.error(
                f"job {job_id} already {job.status}", status=job.status
            )
        job.request_cancel("client")
        if job.status == "queued":  # frees its queue slot at once
            self._queued.remove(job)
            self._finish(job, "cancelled", {"reason": "client"})
            return protocol.ok(job_id=job_id, status="cancelled")
        return protocol.ok(job_id=job_id, status="cancelling")

    async def _handle_watch(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        job_id = message.get("job_id")
        job = self._job(job_id)
        if job is None:
            await self._reply(writer, protocol.error(
                f"unknown job {job_id!r}"
            ))
            return
        since = message.get("since")
        if since is None:
            since = 0
        if not protocol.is_int(since):
            await self._reply(writer, protocol.error(
                f"'since' must be an integer seq, got {since!r}"
            ))
            return
        await self._reply(writer, protocol.ok(
            job_id=job_id, watching=True, since=since
        ))
        # Send what the backlog holds past `since`, then sleep until the
        # next event; a gap between two sends is events the backlog
        # rotated out while this watcher was behind.
        self._watchers[job_id] = self._watchers.get(job_id, 0) + 1
        sent: Optional[int] = None
        try:
            while True:
                fresh = [
                    past for past in self._events.get(job_id, ())
                    if past["seq"] > since
                ]
                if not fresh:
                    if job.terminal:
                        return
                    await self._changed.wait()
                    continue
                for message_out in fresh:
                    if sent is not None:
                        self.metrics.events_dropped += (
                            message_out["seq"] - sent - 1
                        )
                    await self._reply(writer, message_out)
                    since = sent = message_out["seq"]
        finally:
            self._watchers[job_id] -= 1
            if not self._watchers[job_id]:
                del self._watchers[job_id]
