"""The supervised worker pool: per-worker channels, liveness, targeted kill.

``multiprocessing.Pool`` cannot express supervision: a worker that dies
takes its task's future with it (the caller waits forever), and a hung
worker cannot be killed without tearing down the whole pool.  This pool
trades ``Pool``'s batched dispatch for per-worker control:

* every worker owns a **private task channel** and holds **at most one
  task** at a time, so the supervisor always knows exactly which unit a
  worker is running;
* every worker reports events over its **own pipe** with length-prefixed
  frames the parent parses itself.  This is load-bearing, not a style
  choice: a shared ``multiprocessing.Queue`` serializes writers through
  one shared semaphore, and a worker that dies between writing its
  event and releasing that lock (observed with chaos ``crash`` faults —
  ``os._exit`` can beat the feeder thread's release) deadlocks every
  *other* worker's next report.  With per-worker pipes a dying worker
  can only ever corrupt its own channel, and a partial frame is
  discarded with the worker instead of wedging the pool;
* worker **liveness is observable** (``reap_crashed``): a dead busy
  worker is reported with the task it took down — after salvaging any
  fully-written event still in its pipe — and a fresh worker is spawned
  in its place; detection needs no deadline at all;
* a hung worker can be **killed individually** (``kill_task``): only
  its own unit is lost; every other in-flight unit keeps running.

Workers ignore ``SIGINT`` — a Ctrl-C in the parent's process group must
interrupt the *dispatcher* (which then resets the shared pool), not
leave half the workers dead behind a live parent.

The pool is engine only; retry/backoff/quarantine policy lives in
:mod:`repro.resilience.supervisor`.  The process-wide warm instance
(:func:`shared_pool`) lives at the bottom of this module; the unit
executor (:mod:`repro.resilience.executor`) is its one dispatcher
(DESIGN.md §11).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import select
import signal
import struct
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import spans as obs

__all__ = [
    "PoolCounters",
    "SupervisedPool",
    "WorkerEvent",
    "shared_pool",
    "shared_pool_counters",
    "shutdown_shared_pool",
]

#: One worker outcome: ``(kind, task_id, attempt, worker_id, payload)``
#: where ``kind`` is ``"done"`` (payload is the result) or ``"error"``
#: (payload is the rendered exception).  Its frame, one per attempt,
#: also carries the attempt's span records (``None`` untraced), which
#: :meth:`SupervisedPool._drain` hands to the ambient tracer.
WorkerEvent = Tuple[str, str, int, int, Any]

_FRAME_HEADER = struct.Struct(">I")


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits sys.path); fall back to spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _outcome_frame(event: WorkerEvent, spans: Any) -> bytes:
    """``event`` pickled with its attempt's ``spans``, or without them
    if they will not pickle: telemetry never costs an outcome."""
    try:
        return pickle.dumps((*event, spans), pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 — any pickling fault
        return pickle.dumps((*event, None), pickle.HIGHEST_PROTOCOL)


def _write_frame(fd: int, payload: bytes) -> None:
    """Length-prefixed frame write (blocking, loops over short writes)."""
    data = _FRAME_HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _worker_main(
    worker_id: int,
    task_reader: Any,
    event_writer: Any,
    path: List[str],
) -> None:
    """Worker loop: one task at a time, every outcome reported.

    Exceptions (including simulated chaos faults) are reported as
    ``error`` events rather than crashing the worker; only a genuine
    process death (or a chaos ``crash``) leaves the loop silently —
    which is exactly what the supervisor's liveness check is for.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Undo the parent's SIGTERM handler (the CLI's graceful-unwind hook,
    # inherited across fork): a worker answering SIGTERM with the
    # parent's exception would die with a spurious traceback instead of
    # just terminating.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for entry in reversed(path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from repro.resilience import chaos as chaos_module

    chaos_module._IN_WORKER = True
    event_fd = event_writer.fileno()
    # Forked workers inherit their *own* task-pipe write end (it is open
    # in the parent at fork time), so a SIGKILLed parent never produces
    # EOF on task_reader.  Watching for reparenting while idle is the
    # only death signal that survives that: an orphaned worker exits
    # within a poll interval instead of living forever (the kill-parent
    # chaos harness depends on this — DESIGN.md §12).
    parent_pid = os.getppid()
    while True:
        try:
            while not task_reader.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: the orchestrator died
            task = task_reader.recv()
        except (EOFError, OSError):
            return
        except Exception as error:  # noqa: BLE001 — any unpickle fault
            # The task frame was read whole but will not rebuild here (a
            # function the fork never saw, a payload that cannot load).
            # Its id went down with it; the parent knows which task this
            # worker holds and fills it in (``_drain``).
            _write_frame(event_fd, pickle.dumps((
                "error", None, 0, worker_id,
                f"undecodable task: {type(error).__name__}: {error}", None,
            ), protocol=pickle.HIGHEST_PROTOCOL))
            continue
        if task is None:
            return
        task_id, attempt, fn, payload, plan, trace = task
        tracer: Optional[obs.Tracer] = None
        attempt_span = None
        if trace:
            # A worker-local buffered tracer: spans recorded inside the
            # unit (kernel runs, nested timers) parent under this
            # attempt span and ship back over the event pipe.
            tracer = obs.activate(obs.Tracer())
            attempt_span = tracer.begin(
                "attempt", cat="pool",
                args={"unit": task_id, "attempt": attempt},
            )
        spans = None
        try:
            try:
                chaos_module.apply_worker_fault(plan, task_id, attempt)
                result = fn(payload)
            finally:
                if tracer is not None:
                    tracer.end(attempt_span)
                    obs.deactivate()
                    spans = tracer.drain()
            frame = _outcome_frame(
                ("done", task_id, attempt, worker_id, result), spans
            )
        except BaseException as error:  # noqa: BLE001 — report, don't die
            # A fault, or a result that will not pickle.  The ended
            # span's record shares its args dict.
            if attempt_span is not None:
                attempt_span.args["error"] = type(error).__name__
            frame = _outcome_frame((
                "error", task_id, attempt, worker_id,
                f"{type(error).__name__}: {error}",
            ), spans)
        _write_frame(event_fd, frame)


@dataclass
class PoolCounters:
    """Cumulative pool activity over the pool's lifetime.

    Plain fields (DESIGN.md §14), written only by the thread that
    drives the pool and read by the ``repro serve`` ``metrics`` verb —
    no dispatch decision reads them.
    ``submitted`` counts task hand-offs, ``completed``/``errored`` count
    parsed worker outcomes, ``crashes`` counts busy workers that died
    mid-task, ``kills`` counts targeted :meth:`SupervisedPool.kill_task`
    terminations, and ``respawns`` counts replacement workers (crash
    reaps and kills both respawn; the initial spawn does not count).
    """

    submitted: int = 0
    completed: int = 0
    errored: int = 0
    crashes: int = 0
    kills: int = 0
    respawns: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class _Worker:
    """One supervised process and its private channels."""

    worker_id: int
    process: Any
    task_writer: Any  # parent -> worker Connection
    event_reader: Any  # worker -> parent Connection (read raw)
    buffer: bytearray = field(default_factory=bytearray)
    task: Optional[Tuple[str, int]] = None  # (task_id, attempt) or idle


@dataclass
class SupervisedPool:
    """A fixed-size pool of individually supervised worker processes.

    Args:
        processes: pool size (respawns keep it constant).
        path: ``sys.path`` to replay in workers (default: this
            process's, so the ``src/``-bootstrap works unpickled).
    """

    processes: int
    path: Optional[List[str]] = None
    counters: PoolCounters = field(default_factory=PoolCounters)
    _ctx: Any = field(init=False, repr=False)
    _workers: Dict[int, _Worker] = field(
        init=False, repr=False, default_factory=dict
    )
    _salvaged: List[WorkerEvent] = field(
        init=False, repr=False, default_factory=list
    )
    _next_id: int = field(init=False, repr=False, default=0)
    _terminated: bool = field(init=False, repr=False, default=False)

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        if self.path is None:
            self.path = list(sys.path)
        self._ctx = _pool_context()
        for _ in range(self.processes):
            self._spawn()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self) -> int:
        worker_id = self._next_id
        self._next_id += 1
        task_reader, task_writer = self._ctx.Pipe(duplex=False)
        event_reader, event_writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_reader, event_writer, list(self.path)),
            name=f"repro-supervised-{worker_id}",
            daemon=True,
        )
        process.start()
        # Parent keeps only its own ends; the child holds the others.
        task_reader.close()
        event_writer.close()
        os.set_blocking(event_reader.fileno(), False)
        self._workers[worker_id] = _Worker(
            worker_id=worker_id,
            process=process,
            task_writer=task_writer,
            event_reader=event_reader,
        )
        return worker_id

    def _discard(self, worker_id: int, kill: bool) -> None:
        worker = self._workers.pop(worker_id, None)
        if worker is None:
            return
        if kill and worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover — stuck in a
            worker.process.kill()      # non-interruptible syscall
            worker.process.join(timeout=1.0)
        worker.task_writer.close()
        worker.event_reader.close()

    def terminate(self) -> None:
        """Kill every worker and release the channels (idempotent)."""
        if self._terminated:
            return
        self._terminated = True
        for worker_id in list(self._workers):
            self._discard(worker_id, kill=True)
        self._salvaged.clear()

    # -- dispatch ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.processes

    def idle_count(self) -> int:
        return sum(1 for w in self._workers.values() if w.task is None)

    def submit(
        self,
        fn: Callable[[Any], Any],
        task_id: str,
        attempt: int,
        payload: Any,
        plan: Optional[Dict[str, Any]] = None,
        trace: bool = False,
    ) -> int:
        """Hand one task to an idle worker; returns the worker id.

        ``plan`` is an optional chaos-plan dict shipped inside the task
        (not via environment inheritance) so warm workers forked before
        the plan existed still honor it.  ``trace`` asks the worker to
        record attempt spans and ship them back in its outcome frame.
        """
        for worker_id, worker in self._workers.items():
            if worker.task is None:
                worker.task = (task_id, attempt)
                self.counters.submitted += 1
                try:
                    worker.task_writer.send(
                        (task_id, attempt, fn, payload, plan, trace)
                    )
                except (BrokenPipeError, OSError):
                    # The worker died between polls; reap_crashed will
                    # report the task lost and replace the process.
                    pass
                return worker_id
        raise RuntimeError("no idle worker (caller must track idle_count)")

    # -- event plumbing ------------------------------------------------------

    def _drain(self, worker: _Worker) -> List[WorkerEvent]:
        """Read whatever the worker's pipe holds; parse complete frames.

        A partial frame stays in the worker's buffer (completed by a
        later read, or discarded with the worker if it died mid-write —
        the failure mode that motivates per-worker channels).
        """
        fd = worker.event_reader.fileno()
        while True:
            try:
                chunk = os.read(fd, 1 << 16)
            except BlockingIOError:
                break
            except OSError:
                break
            if not chunk:
                break  # EOF: worker gone; reap_crashed replaces it
            worker.buffer.extend(chunk)
        events: List[WorkerEvent] = []
        buffer = worker.buffer
        while len(buffer) >= _FRAME_HEADER.size:
            (length,) = _FRAME_HEADER.unpack_from(buffer)
            end = _FRAME_HEADER.size + length
            if len(buffer) < end:
                break
            frame = bytes(buffer[_FRAME_HEADER.size:end])
            del buffer[:end]
            try:
                loaded = pickle.loads(frame)
                event, spans = loaded[:-1], loaded[-1]
            except Exception as error:  # noqa: BLE001 — any unpickle fault
                # A frame that pickled in the worker but will not rebuild
                # here: fail the attempt this worker holds (retry, then
                # quarantine) and keep the worker.
                event, spans = (
                    "error", None, 0, worker.worker_id,
                    f"undecodable worker frame: "
                    f"{type(error).__name__}: {error}",
                ), None
            if spans:  # absorbed even if stale: the attempt still ran
                obs.absorb(spans)
            if event[1] is None:
                # An outcome that cannot name its task (an undecodable
                # frame either way) belongs to the one this worker holds.
                if worker.task is None:
                    continue
                event = (event[0], *worker.task, *event[3:])
            events.append(event)
            if event[0] == "done":
                self.counters.completed += 1
            else:
                self.counters.errored += 1
            if worker.task == event[1:3]:
                worker.task = None
        return events

    def poll(self, timeout: float) -> List[WorkerEvent]:
        """Worker outcomes: blocks up to ``timeout`` for the first, then
        drains whatever else is ready.  Events salvaged from dead
        workers are returned first (the dispatcher decides staleness by
        attempt token).
        """
        events: List[WorkerEvent] = list(self._salvaged)
        self._salvaged.clear()
        readers = {
            worker.event_reader.fileno(): worker
            for worker in self._workers.values()
        }
        if readers:
            try:
                ready, _, _ = select.select(
                    list(readers), [], [], 0 if events else timeout
                )
            except OSError:  # pragma: no cover — fd raced a reap
                ready = []
            for fd in ready:
                events.extend(self._drain(readers[fd]))
        return events

    # -- supervision ---------------------------------------------------------

    def reap_crashed(self) -> List[Tuple[str, int]]:
        """Dead *busy* workers' tasks; each dead worker is replaced.

        Before declaring a task lost, any fully-written event still in
        the dead worker's pipe is salvaged (a worker that finished its
        task and then died owed nothing) and surfaced by the next
        :meth:`poll`.  A dead idle worker is replaced silently.
        """
        lost: List[Tuple[str, int]] = []
        for worker_id, worker in list(self._workers.items()):
            if worker.process.is_alive():
                continue
            salvaged = self._drain(worker)
            self._salvaged.extend(salvaged)
            if worker.task is not None:
                lost.append(worker.task)
                self.counters.crashes += 1
            self._discard(worker_id, kill=False)
            self._spawn()
            self.counters.respawns += 1
        return lost

    def kill_task(self, task_id: str) -> bool:
        """Terminate the worker running ``task_id`` and replace it.

        The one targeted unit is lost (the dispatcher re-queues or
        quarantines it); every other worker keeps running.  Returns
        False when no live worker holds that task.
        """
        for worker_id, worker in list(self._workers.items()):
            if worker.task is not None and worker.task[0] == task_id:
                self._discard(worker_id, kill=True)
                self._spawn()
                self.counters.kills += 1
                self.counters.respawns += 1
                return True
        return False


# -- warm worker pool --------------------------------------------------------

_shared_pool: Optional[SupervisedPool] = None
_shared_pool_size = 0


def shared_pool(workers: int) -> SupervisedPool:
    """The process-wide warm worker pool, sized for ``workers``.

    Created on first use and reused by every subsequent fleet run,
    ``reproduce_all`` pass, sweep, and bench invocation in this process
    — the spawn + re-import cost is paid once, not per call.  A request
    for more workers than the current pool holds replaces it with a
    larger one; a request for fewer reuses the existing pool (idle
    workers are near-free, and shard/unit results never depend on pool
    size — DESIGN.md §5/§7 — so only wall-clock could differ).

    The pool is a :class:`~repro.resilience.pool.SupervisedPool`
    (DESIGN.md §11): per-worker queues, observable liveness, targeted
    kill + respawn — the substrate :func:`supervised_map` needs to
    retry and quarantine instead of hanging on a dead worker.
    """
    global _shared_pool, _shared_pool_size
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if _shared_pool is not None and _shared_pool_size < workers:
        shutdown_shared_pool()
    if _shared_pool is None:
        _shared_pool = SupervisedPool(
            processes=workers, path=list(sys.path)
        )
        _shared_pool_size = workers
    return _shared_pool


def shared_pool_counters() -> Dict[str, int]:
    """Observability snapshot of the warm pool (all zeros when cold).

    ``size`` is the live pool's worker count (0 with no pool); the rest
    are the pool's cumulative :class:`~repro.resilience.pool.
    PoolCounters`.  Counters reset with the pool — a grow-replacement
    or shutdown starts them over, which is the honest reading (they
    describe *this* pool's lifetime).
    """
    if _shared_pool is None:
        return {"size": 0, **PoolCounters().snapshot()}
    return {"size": _shared_pool.size, **_shared_pool.counters.snapshot()}


def shutdown_shared_pool() -> None:
    """Terminate the warm pool (no-op when none exists)."""
    global _shared_pool, _shared_pool_size
    if _shared_pool is not None:
        _shared_pool.terminate()
        _shared_pool = None
        _shared_pool_size = 0


atexit.register(shutdown_shared_pool)
