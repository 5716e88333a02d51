"""Kernel microbenchmarks, runnable against any kernel implementation.

Each benchmark takes an *implementation* namespace exposing ``Kernel``,
``SimQueue``, and ``QUEUE_TIMEOUT`` — either side of
:data:`repro.conformance.reference.KERNEL_IMPLS` (the live, optimized
kernel or the frozen seed kernel) — so ``repro bench`` can report
speedups measured on the same machine in the same process.

The scenarios isolate the hot paths this PR attacks:

* ``sleep_hot_loop`` — pure event dispatch: concurrent processes doing
  integer sleeps.  Exercises heap entries, the inlined resume path, and
  scheduling allocation behavior.
* ``queue_timeout_churn`` — the SOL Actuator pattern: producer/consumer
  pairs where every bounded ``get`` is won by the item, not the
  timeout.  On the seed kernel each such get leaks a dead timer into
  the heap (the motivating pathology); cadence mirrors SmartHarvest
  (~1 ms predictions, 100 ms actuation bound) across 8 agents.
* ``kill_waiter_churn`` — the SRE CleanUp path: killing processes that
  wait on a shared event, which was O(waiters) per kill in the seed
  (list ``remove``) and is O(1) (swap-remove) now.

Timing uses best-of-``repeats`` wall clock per scenario
(:func:`run_microbench`, shared by every suite) — the standard
microbenchmark guard against scheduler noise and cold caches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

__all__ = ["MICROBENCHMARKS", "Bench", "BenchResult", "run_microbench"]


@dataclass
class BenchResult:
    """One scenario × one implementation measurement."""

    name: str
    events: int
    wall_s: float

    @property
    def ns_per_event(self) -> float:
        return self.wall_s / self.events * 1e9

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s


def _bench_sleep_hot_loop(impl: Any, scale: float) -> BenchResult:
    n_procs = 10
    iters = max(1, int(20_000 * scale))
    kernel = impl.Kernel()

    def proc():
        for _ in range(iters):
            yield 1

    for i in range(n_procs):
        kernel.spawn(proc(), name=f"p{i}")
    started = time.perf_counter()
    kernel.run()
    return BenchResult(
        "sleep_hot_loop", n_procs * iters, time.perf_counter() - started
    )


def _bench_queue_timeout_churn(impl: Any, scale: float) -> BenchResult:
    n_pairs = 8
    put_interval_us = 1000     # ~SmartHarvest prediction cadence
    timeout_us = 100_000       # SmartHarvest max actuation delay
    iters = max(1, int(4_000 * scale))
    timeout_sentinel = impl.QUEUE_TIMEOUT
    kernel = impl.Kernel()

    def producer(queue):
        for i in range(iters):
            queue.put(i)
            yield put_interval_us

    def consumer(queue):
        got = 0
        while got < iters:
            item = yield from queue.get(timeout_us=timeout_us)
            if item is not timeout_sentinel:
                got += 1

    for n in range(n_pairs):
        queue = impl.SimQueue(kernel, capacity=1)
        kernel.spawn(producer(queue), name=f"prod{n}")
        kernel.spawn(consumer(queue), name=f"cons{n}")
    started = time.perf_counter()
    kernel.run()
    return BenchResult(
        "queue_timeout_churn", n_pairs * iters, time.perf_counter() - started
    )


def _bench_kill_waiter_churn(impl: Any, scale: float) -> BenchResult:
    # Thousands of concurrently-waiting processes is a dense node, not a
    # stress fantasy: every SimQueue consumer, join, and safeguard wait
    # parks a process on an event.  The count deliberately ignores
    # ``scale``: the seed's per-kill cost is O(waiters), so shrinking the
    # population in --quick runs would change the measured *ratio* and
    # make quick CI reports incomparable to the committed full baseline.
    # The whole scenario is a few tens of milliseconds regardless.
    n_waiters = 3_000
    kernel = impl.Kernel()
    event = kernel.event("shared")

    def waiter():
        yield event

    processes = [
        kernel.spawn(waiter(), name=f"w{i}") for i in range(n_waiters)
    ]
    kernel.run(until=1)  # everyone is registered on the event now
    # Kill in a strided permutation: registration-order teardown is the
    # one order the seed's list.remove() handled in O(1) (always a hit
    # at index 0); any other order pays an O(waiters) scan per kill.
    stride = 7
    while math.gcd(stride, n_waiters) != 1:
        stride += 2
    order = [(i * stride) % n_waiters for i in range(n_waiters)]
    started = time.perf_counter()
    for index in order:
        processes[index].kill()
    return BenchResult(
        "kill_waiter_churn", n_waiters, time.perf_counter() - started
    )


#: One scenario: ``bench(impl, scale) -> BenchResult``.
Bench = Callable[[Any, float], BenchResult]

#: Scenario registry: name -> scenario.
MICROBENCHMARKS: Dict[str, Bench] = {
    "sleep_hot_loop": _bench_sleep_hot_loop,
    "queue_timeout_churn": _bench_queue_timeout_churn,
    "kill_waiter_churn": _bench_kill_waiter_churn,
}


def run_microbench(
    bench: Bench, impl: Any, scale: float = 1.0, repeats: int = 3
) -> BenchResult:
    """Best-of-``repeats`` run of one scenario against one implementation."""
    return min(
        (bench(impl, scale) for _ in range(repeats)),
        key=lambda result: result.wall_s,
    )
