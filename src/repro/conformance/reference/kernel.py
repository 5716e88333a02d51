"""Frozen copy of the seed (pre-optimization) kernel and queue.

This module is the ``kernel:seed`` *golden model*: the conformance
runner replays the scripted kernel scenarios against it and against
:mod:`repro.sim.kernel` and bisects any divergence, and ``repro bench``
runs the same microbenchmarks against both and reports the ratio.
Keeping the seed hot path in-tree makes the claimed speedups
reproducible on any machine forever, instead of only relative to a
historical commit.

Never import this from production code (CI greps for it); only the
conformance and bench packages may.  It intentionally preserves the
seed's inefficiencies: closure-per-resume scheduling, uncancellable
``call_later`` timers, a fresh ``Event`` per queue ``get``, and O(n)
waiter removal.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.sim.errors import (
    KernelStopped,
    ProcessKilled,
    SchedulingError,
    SimulationError,
)

__all__ = ["Event", "Process", "Kernel", "QUEUE_TIMEOUT", "SimQueue"]



class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` transitions it to
    *succeeded* and resumes every waiting process.  Further ``succeed``
    calls are ignored (first writer wins), which makes events safe to use
    for get-with-timeout races in :class:`~repro.sim.queue.SimQueue`.
    """

    __slots__ = (
        "kernel", "name", "_value", "_succeeded", "_waiters", "_callbacks"
    )

    def __init__(self, kernel: "Kernel", name: str = "event") -> None:
        self.kernel = kernel
        self.name = name
        self._value: Any = None
        self._succeeded = False
        self._waiters: List["Process"] = []
        self._callbacks: List[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> bool:
        """Fire the event, waking all waiters at the current sim time.

        Returns:
            ``True`` if this call fired the event, ``False`` if the event
            had already fired (the call is then a no-op).
        """
        if self._succeeded:
            return False
        self._succeeded = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.kernel._schedule_resume(process, self._value)
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self._value)
        return True

    def _add_waiter(self, process: "Process") -> None:
        if self._succeeded:
            self.kernel._schedule_resume(process, self._value)
        else:
            self._waiters.append(process)

    def _discard_waiter(self, process: "Process") -> None:
        try:
            self._waiters.remove(process)
        except ValueError:
            pass


class Process:
    """A generator-based simulated process.

    Created via :meth:`Kernel.spawn`.  A process terminates when its
    generator returns, raises, or is :meth:`kill`-ed.  Its
    :attr:`completion` event fires with the generator's return value,
    letting other processes ``yield process`` to join it.
    """

    __slots__ = (
        "kernel",
        "name",
        "generator",
        "completion",
        "_alive",
        "_waiting_on",
        "_error",
    )

    def __init__(
        self,
        kernel: "Kernel",
        generator: Generator[Any, Any, Any],
        name: str,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.generator = generator
        self.completion = Event(kernel, name=f"{name}.completion")
        self._alive = True
        self._waiting_on: Optional[Event] = None
        self._error: Optional[BaseException] = None

    def kill(self) -> None:
        """Forcibly terminate the process.

        :class:`ProcessKilled` is thrown into the generator so ``finally``
        blocks run.  Killing a dead process is a no-op.  This is the
        primitive under the SOL SRE *CleanUp* path.
        """
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on._discard_waiter(self)
            self._waiting_on = None
        try:
            self.generator.throw(ProcessKilled(f"process {self.name!r} killed"))
        except (ProcessKilled, StopIteration):
            pass
        finally:
            self._finish(value=None)

    # -- kernel-internal ---------------------------------------------------

    def _step(self, send_value: Any) -> None:
        """Advance the generator by one yield, interpreting its request."""
        if not self._alive:
            return
        self._waiting_on = None
        try:
            request = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except ProcessKilled:
            self._finish(value=None)
            return
        self._handle_request(request)

    def _handle_request(self, request: Any) -> None:
        if isinstance(request, int):
            if request < 0:
                self._crash(SchedulingError(f"negative sleep: {request}"))
                return
            self.kernel._schedule_resume(self, None, delay=request)
        elif isinstance(request, Event):
            self._waiting_on = request
            request._add_waiter(self)
        elif isinstance(request, Process):
            self._waiting_on = request.completion
            request.completion._add_waiter(self)
        else:
            self._crash(
                SimulationError(
                    f"process {self.name!r} yielded unsupported value "
                    f"{request!r}; expected int, Event, or Process"
                )
            )

    def _crash(self, error: BaseException) -> None:
        try:
            self.generator.throw(error)
        except BaseException as exc:  # noqa: BLE001 - report any failure
            self._error = exc
            self._finish(value=None)
            if not isinstance(exc, (ProcessKilled, StopIteration)):
                raise

    def _finish(self, value: Any) -> None:
        if not self._alive:
            return
        self._alive = False
        self.generator.close()
        self.completion.succeed(value)


class Kernel:
    """Event loop: a priority queue of (time, sequence, action) triples.

    Ties at the same timestamp are broken by insertion order, so the
    simulation is fully deterministic.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._stopped = False
        self._processes: List[Process] = []

    @property
    def now(self) -> int:
        """Current simulation time in integer microseconds."""
        return self._now

    # -- public API --------------------------------------------------------

    def event(self, name: str = "event") -> Event:
        """Create a fresh pending :class:`Event` bound to this kernel."""
        return Event(self, name=name)

    def spawn(
        self, generator: Generator[Any, Any, Any], name: str = "process"
    ) -> Process:
        """Register a generator as a process; it starts at the current time."""
        self._check_running()
        process = Process(self, generator, name)
        self._processes.append(process)
        self._schedule_resume(process, None)
        return process

    def call_at(self, time_us: int, action: Callable[[], None]) -> None:
        """Schedule a plain callback at an absolute simulation time."""
        self._check_running()
        if time_us < self._now:
            raise SchedulingError(
                f"cannot schedule at {time_us} (now is {self._now})"
            )
        heapq.heappush(self._heap, (time_us, next(self._sequence), action))

    def call_later(self, delay_us: int, action: Callable[[], None]) -> None:
        """Schedule a plain callback ``delay_us`` microseconds from now."""
        if delay_us < 0:
            raise SchedulingError(f"negative delay: {delay_us}")
        self.call_at(self._now + delay_us, action)

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the heap drains or time would pass ``until``.

        Args:
            until: absolute stop time in microseconds.  When provided, the
                clock is advanced to exactly ``until`` on return even if
                the last event fired earlier, so back-to-back ``run`` calls
                compose predictably.

        Returns:
            The simulation time at return.
        """
        self._check_running()
        while self._heap:
            time_us, _seq, action = self._heap[0]
            if until is not None and time_us > until:
                break
            heapq.heappop(self._heap)
            self._now = time_us
            action()
        if until is not None and until > self._now:
            self._now = until
        return self._now

    # -- internals -----------------------------------------------------------

    def _schedule_resume(
        self, process: Process, value: Any, delay: int = 0
    ) -> None:
        if self._stopped:
            return

        def resume() -> None:
            process._step(value)

        heapq.heappush(
            self._heap, (self._now + delay, next(self._sequence), resume)
        )

    def _check_running(self) -> None:
        if self._stopped:
            raise KernelStopped("kernel has been stopped")




class _Timeout:
    """Sentinel returned by :meth:`SimQueue.get` when the wait expires."""


#: Singleton sentinel distinguishing "timed out" from a ``None`` message.
QUEUE_TIMEOUT = _Timeout()


class SimQueue:
    """FIFO queue for inter-process messaging inside the simulator.

    Unlike a real queue there is no locking — the kernel is single
    threaded — but the *temporal* semantics match: a consumer blocked in
    :meth:`get` wakes at the exact simulated instant an item arrives or
    its timeout elapses, whichever is first.

    Args:
        kernel: owning simulation kernel.
        capacity: maximum queued items; ``put`` on a full queue drops the
            *oldest* item.  The SOL prediction queue uses capacity 1 so the
            Actuator always sees the freshest prediction (stale ones are
            superseded, mirroring the paper's freshness-first design).
    """

    def __init__(self, kernel: "Kernel", capacity: Optional[int] = None,
                 name: str = "queue") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._dropped = 0

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting consumer if any."""
        while self._getters:
            waiter = self._getters.popleft()
            if waiter.succeed(item):
                return
        self._items.append(item)
        if self.capacity is not None and len(self._items) > self.capacity:
            self._items.popleft()
            self._dropped += 1

    def get(self, timeout_us: Optional[int] = None
            ) -> Generator[Any, Any, Any]:
        """Process-side blocking get.

        Usage inside a process generator::

            item = yield from queue.get(timeout_us=5 * SEC)
            if item is QUEUE_TIMEOUT:
                ...take the safe default action...

        Args:
            timeout_us: maximum simulated wait; ``None`` waits forever.

        Returns:
            The dequeued item, or :data:`QUEUE_TIMEOUT` on expiry.
        """
        if self._items:
            return self._items.popleft()
        waiter = self.kernel.event(name=f"{self.name}.get")
        self._getters.append(waiter)
        if timeout_us is not None:
            self.kernel.call_later(
                timeout_us, lambda: waiter.succeed(QUEUE_TIMEOUT)
            )
        value = yield waiter
        return value
