"""The supervised pool: dispatch, liveness, targeted kill, isolation.

These tests run real worker processes; every scenario is kept tiny so
the module stays in test-suite budget.  The crash scenarios are the
load-bearing ones: a worker dying at an arbitrary moment must never
wedge the pool (per-worker event pipes — a dead worker can only tear
its own channel, see ``repro.resilience.pool``).
"""

import os
import time

import pytest

from repro.obs import spans as obs
from repro.resilience import SupervisedPool


def _square(payload):
    return payload * payload


def _boom(payload):
    raise RuntimeError(f"boom {payload}")


def _exit_hard(payload):
    os._exit(9)


def _nap(payload):
    time.sleep(payload)
    return payload


def _odd_span(payload):
    obs.instant("odd", cat="test", fn=lambda: None)  # will not pickle
    return payload


def _unpicklable_result(payload):
    return lambda: payload


def _poll_until(pool, want, deadline_s=10.0):
    events = []
    deadline = time.monotonic() + deadline_s
    while len(events) < want and time.monotonic() < deadline:
        events.extend(pool.poll(timeout=0.05))
    return events


@pytest.fixture
def pool():
    pool = SupervisedPool(processes=2)
    yield pool
    pool.terminate()


def test_submit_and_poll_round_trip(pool):
    pool.submit(_square, "a", 0, 7, None)
    pool.submit(_square, "b", 0, 8, None)
    assert pool.idle_count() == 0
    events = _poll_until(pool, want=2)
    results = {uid: payload for kind, uid, _a, _w, payload in events}
    assert results == {"a": 49, "b": 64}
    assert all(kind == "done" for kind, *_ in events)
    assert pool.idle_count() == 2


def test_unit_exception_is_an_error_event_not_a_death(pool):
    pool.submit(_boom, "bad", 1, "x", None)
    (event,) = _poll_until(pool, want=1)
    kind, unit_id, attempt, _worker, message = event
    assert (kind, unit_id, attempt) == ("error", "bad", 1)
    assert "RuntimeError: boom x" in message
    assert pool.size == 2  # nobody died
    assert pool.reap_crashed() == []


def test_a_traced_attempt_ships_its_spans_in_its_outcome_frame(pool):
    """One frame per attempt: the outcome carries the attempt's spans,
    which reach the ambient tracer; spans that will not pickle are
    dropped, never the outcome, and a result that will not pickle is
    the attempt's error."""
    tracer = obs.activate(obs.Tracer())
    try:
        pool.submit(_square, "a", 0, 4, None, trace=True)
        (event,) = _poll_until(pool, want=1)
        assert (event[0], event[1], event[4]) == ("done", "a", 16)
        (attempt,) = tracer.drain()
        assert (attempt["name"], attempt["args"]) == (
            "attempt", {"unit": "a", "attempt": 0}
        )
        assert attempt["pid"] != os.getpid()
        pool.submit(_odd_span, "b", 0, 5, None, trace=True)
        (event,) = _poll_until(pool, want=1)
        assert (event[0], event[1], event[4]) == ("done", "b", 5)
        assert tracer.drain() == []
        # A result that will not pickle fails its attempt, spans kept.
        pool.submit(_unpicklable_result, "c", 0, 6, None, trace=True)
        (event,) = _poll_until(pool, want=1)
        assert (event[0], event[1]) == ("error", "c")
        assert "pickle" in event[4]
        (attempt,) = tracer.drain()
        assert attempt["args"]["error"] == event[4].split(":")[0]
    finally:
        obs.deactivate()


def test_crashed_worker_is_reaped_with_its_task(pool):
    pool.submit(_exit_hard, "doomed", 0, None, None)
    deadline = time.monotonic() + 10.0
    lost = []
    while not lost and time.monotonic() < deadline:
        pool.poll(timeout=0.05)
        lost = pool.reap_crashed()
    assert lost == [("doomed", 0)]
    # The pool healed: same size, and it still runs work.
    assert len(pool._workers) == 2
    pool.submit(_square, "after", 0, 3, None)
    (event,) = _poll_until(pool, want=1)
    assert event[0] == "done" and event[4] == 9


def test_crash_does_not_wedge_the_surviving_worker(pool):
    """The regression behind the per-worker pipe design: one worker
    dying must never block another worker's event delivery."""
    pool.submit(_exit_hard, "doomed", 0, None, None)
    pool.submit(_nap, "survivor", 0, 0.2, None)
    got = {}
    deadline = time.monotonic() + 10.0
    while "survivor" not in got and time.monotonic() < deadline:
        for kind, uid, _a, _w, payload in pool.poll(timeout=0.05):
            got[uid] = (kind, payload)
        pool.reap_crashed()
    assert got["survivor"] == ("done", 0.2)


def test_kill_task_only_hits_its_own_unit(pool):
    pool.submit(_nap, "stuck", 0, 60.0, None)
    pool.submit(_nap, "fine", 0, 0.2, None)
    assert pool.kill_task("stuck") is True
    events = _poll_until(pool, want=1)
    assert [(e[0], e[1]) for e in events] == [("done", "fine")]
    assert pool.kill_task("stuck") is False  # already gone
    assert len(pool._workers) == 2


def test_dead_idle_worker_is_replaced_silently(pool):
    pool.submit(_square, "a", 0, 2, None)
    _poll_until(pool, want=1)
    victim = next(iter(pool._workers.values()))
    victim.process.terminate()
    victim.process.join(timeout=5.0)
    assert pool.reap_crashed() == []  # idle death loses no task
    assert len(pool._workers) == 2


def test_completed_event_is_salvaged_from_a_dead_worker(pool):
    """A worker that finished its unit and died before the parent
    polled owes nothing: its event is salvaged, not re-run."""
    pool.submit(_square, "a", 0, 5, None)
    # Wait for the event bytes to land without consuming them, then
    # kill the worker that produced them.
    worker = next(
        w for w in pool._workers.values() if w.task == ("a", 0)
    )
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if worker.event_reader.poll(0.05):
            break
    worker.process.terminate()
    worker.process.join(timeout=5.0)
    assert pool.reap_crashed() == []  # salvaged, not lost
    events = _poll_until(pool, want=1)
    assert [(e[0], e[1], e[4]) for e in events] == [("done", "a", 25)]


def test_terminate_is_idempotent_and_kills_workers():
    pool = SupervisedPool(processes=2)
    processes = [w.process for w in pool._workers.values()]
    pool.terminate()
    pool.terminate()
    assert all(not p.is_alive() for p in processes)
    assert pool._workers == {}


def test_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        SupervisedPool(processes=0)
