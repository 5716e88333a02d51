"""The supervised dispatcher: retry, quarantine, deadlines, teardown."""

import pytest

from repro.resilience import (
    ChaosPlan,
    RetryPolicy,
    SupervisedPool,
    supervised_map,
)


def _double(payload):
    return payload * 2


def _boom(payload):
    raise RuntimeError("always fails")


@pytest.fixture
def pool_env():
    """A private pool factory/shutdown pair mimicking the shared pool."""
    state = {}

    def factory(workers):
        if "pool" not in state:
            state["pool"] = SupervisedPool(processes=workers)
        return state["pool"]

    def shutdown():
        pool = state.pop("pool", None)
        if pool is not None:
            pool.terminate()
        state["shutdowns"] = state.get("shutdowns", 0) + 1

    yield factory, shutdown, state
    pool = state.pop("pool", None)
    if pool is not None:
        pool.terminate()


# Fast policy for tests: real backoff semantics, negligible wall time.
FAST = RetryPolicy(max_retries=2, backoff_base_s=0.01, backoff_cap_s=0.05)


def test_plain_dispatch_completes_everything(pool_env):
    factory, shutdown, _ = pool_env
    units = [(f"u{i}", i) for i in range(6)]
    seen = []
    outcome = supervised_map(
        _double, units, workers=2,
        pool_factory=factory, pool_shutdown=shutdown,
        policy=FAST, on_result=lambda uid, res: seen.append(uid),
    )
    assert outcome.results == {f"u{i}": 2 * i for i in range(6)}
    assert sorted(seen) == sorted(u for u, _ in units)
    assert not outcome.partial and outcome.retried == 0


def test_no_units_never_touches_the_pool():
    def poisoned(workers):
        raise AssertionError("empty dispatch requested a pool")

    outcome = supervised_map(
        _double, [], workers=2,
        pool_factory=poisoned, pool_shutdown=lambda: None,
    )
    assert outcome.results == {} and not outcome.partial


def test_duplicate_unit_ids_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        supervised_map(
            _double, [("u", 1), ("u", 2)], workers=1,
            pool_factory=lambda w: None, pool_shutdown=lambda: None,
        )


def test_always_failing_unit_is_quarantined_with_history(pool_env):
    factory, shutdown, _ = pool_env
    log = []
    poisoned = []
    outcome = supervised_map(
        _boom, [("bad", None)], workers=1,
        pool_factory=factory, pool_shutdown=shutdown,
        policy=FAST, quarantine=log,
        on_quarantine=lambda record: poisoned.append(record.unit_id),
        context="test",
    )
    assert outcome.results == {}
    assert outcome.holes == ["bad"] and outcome.partial
    assert outcome.retried == FAST.max_retries
    assert len(outcome.failures) == FAST.max_attempts
    assert all(f.kind == "error" for f in outcome.failures)
    (record,) = log
    assert record.unit_id == "bad" and record.context == "test"
    assert record.attempts == FAST.max_attempts
    assert "always fails" in record.error
    assert poisoned == ["bad"]


def test_crash_fault_is_retried_and_recovered(pool_env):
    factory, shutdown, _ = pool_env
    plan = ChaosPlan(kind="crash", probability=1.0)  # attempt 0 only
    outcome = supervised_map(
        _double, [(f"u{i}", i) for i in range(4)], workers=2,
        pool_factory=factory, pool_shutdown=shutdown,
        policy=FAST, chaos=plan,
    )
    assert outcome.results == {f"u{i}": 2 * i for i in range(4)}
    assert not outcome.partial
    assert outcome.retried == 4
    assert all(f.kind == "crash" for f in outcome.failures)


def test_poison_unit_quarantines_while_the_rest_complete(pool_env):
    factory, shutdown, _ = pool_env
    plan = ChaosPlan(kind="crash", poison_units=("u2",))
    outcome = supervised_map(
        _double, [(f"u{i}", i) for i in range(5)], workers=2,
        pool_factory=factory, pool_shutdown=shutdown,
        policy=FAST, chaos=plan,
    )
    assert outcome.holes == ["u2"]
    assert sorted(outcome.results) == ["u0", "u1", "u3", "u4"]
    (record,) = outcome.quarantined
    assert record.kind == "crash"


def test_hung_unit_is_killed_at_the_deadline(pool_env):
    factory, shutdown, _ = pool_env
    plan = ChaosPlan(kind="hang", poison_units=("stuck",), hang_s=60.0)
    policy = RetryPolicy(
        max_retries=1, unit_timeout_s=0.3,
        backoff_base_s=0.01, backoff_cap_s=0.05,
    )
    outcome = supervised_map(
        _double, [("stuck", 1), ("fine", 2)], workers=2,
        pool_factory=factory, pool_shutdown=shutdown,
        policy=policy, chaos=plan,
    )
    assert outcome.results == {"fine": 4}
    assert outcome.holes == ["stuck"]
    (record,) = outcome.quarantined
    assert record.kind == "timeout"
    assert "deadline" in record.error


def test_escaping_exception_tears_the_pool_down(pool_env):
    factory, shutdown, state = pool_env

    def interrupt(uid, result):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        supervised_map(
            _double, [("u", 1)], workers=1,
            pool_factory=factory, pool_shutdown=shutdown,
            policy=FAST, on_result=interrupt,
        )
    assert state.get("shutdowns") == 1
    assert "pool" not in state  # the wedged pool was discarded


def _slow(payload):
    import time

    time.sleep(30)
    return payload


def test_preset_cancel_token_stops_dispatch_and_keeps_pool_warm(pool_env):
    import threading

    from repro.resilience import DispatchCancelled

    factory, shutdown, state = pool_env
    cancel = threading.Event()
    cancel.set()
    with pytest.raises(DispatchCancelled):
        supervised_map(
            _double, [("u0", 1), ("u1", 2)], workers=2,
            pool_factory=factory, pool_shutdown=shutdown,
            policy=FAST, cancel=cancel,
        )
    # Cancellation is not a fault: the pool must NOT be torn down (the
    # serve scheduler keeps it warm for the next job).
    assert state.get("shutdowns", 0) == 0
    assert "pool" in state


def test_cancel_mid_dispatch_kills_inflight_units(pool_env):
    import threading

    from repro.resilience import DispatchCancelled

    factory, shutdown, state = pool_env
    cancel = threading.Event()

    def cancel_on_first_dispatch(unit_id, attempt):
        cancel.set()

    with pytest.raises(DispatchCancelled, match="in-flight"):
        supervised_map(
            _slow, [("u0", 1), ("u1", 2)], workers=2,
            pool_factory=factory, pool_shutdown=shutdown,
            policy=FAST, cancel=cancel,
            on_dispatch=cancel_on_first_dispatch,
        )
    assert state.get("shutdowns", 0) == 0  # warm pool preserved
    # the pool is still usable for the next dispatch
    outcome = supervised_map(
        _double, [("u2", 3)], workers=2,
        pool_factory=factory, pool_shutdown=shutdown, policy=FAST,
    )
    assert outcome.results == {"u2": 6}


# -- refill before commit ----------------------------------------------------


class FakePool:
    """A synchronous stand-in for :class:`SupervisedPool`: ``submit``
    runs the unit on the spot and ``poll`` returns the first
    ``per_poll`` finished units, so the order of the dispatcher's own
    steps is exact."""

    def __init__(self, size, per_poll=None):
        self.size = size
        self.per_poll = per_poll if per_poll is not None else size
        self.busy = {}
        self.finished = []
        self.submitted = []
        self.killed = []

    def idle_count(self):
        return self.size - len(self.busy)

    def submit(self, fn, unit_id, attempt, payload, plan_dict, trace=False):
        assert self.idle_count() > 0
        self.submitted.append(unit_id)
        self.busy[unit_id] = attempt
        self.finished.append(("done", unit_id, attempt, 0, fn(payload)))

    def poll(self, timeout):
        events = self.finished[:self.per_poll]
        del self.finished[:self.per_poll]
        for _kind, unit_id, _attempt, _worker, _payload in events:
            del self.busy[unit_id]
        return events

    def reap_crashed(self):
        return []

    def kill_task(self, unit_id):
        self.killed.append(unit_id)
        return self.busy.pop(unit_id, None) is not None


def test_freed_workers_are_refilled_before_results_are_delivered():
    """The caller's per-result bookkeeping (cache.put, the journal's
    fsync) must overlap the workers' next units, not precede them."""
    pool = FakePool(2)
    seen = []
    outcome = supervised_map(
        _double, [(f"u{i}", i) for i in range(5)], workers=2,
        pool_factory=lambda workers: pool, pool_shutdown=lambda: None,
        policy=FAST,
        on_result=lambda uid, res: seen.append(
            (uid, pool.idle_count(), len(pool.submitted))
        ),
    )
    assert outcome.results == {f"u{i}": 2 * i for i in range(5)}
    # u0/u1 came back in one poll: u2/u3 were submitted (no idle worker
    # left) before either result was handed over, in arrival order; the
    # last unit leaves one worker with nothing to do.
    assert seen == [
        ("u0", 0, 4), ("u1", 0, 4),
        ("u2", 1, 5), ("u3", 1, 5),
        ("u4", 2, 5),
    ]


def test_cancel_from_the_dispatch_hook_still_delivers_polled_results():
    """A finished unit must not become a re-execution because the
    refill that followed it was cancelled — and the unit still in
    flight is killed, whoever raised the cancellation."""
    from repro.resilience import DispatchCancelled

    pool = FakePool(3, per_poll=2)
    delivered = []
    shutdowns = []

    def dispatch_hook(unit_id, attempt):
        if unit_id == "u3":
            raise DispatchCancelled("job cancelled before dispatching u3")

    with pytest.raises(DispatchCancelled, match="before dispatching u3"):
        supervised_map(
            _double, [(f"u{i}", i) for i in range(5)], workers=3,
            pool_factory=lambda workers: pool,
            pool_shutdown=lambda: shutdowns.append(True),
            policy=FAST, on_dispatch=dispatch_hook,
            on_result=lambda uid, res: delivered.append((uid, res)),
        )
    assert delivered == [("u0", 0), ("u1", 2)]
    assert pool.submitted == ["u0", "u1", "u2"]
    assert pool.killed == ["u2"]
    assert not shutdowns  # a cancellation keeps the pool warm
