"""Tests for the runtime event log."""

from repro.core.events import EventKind, EventLog
from repro.sim import Kernel
from repro.sim.units import SEC

from tests.core.helpers import record_events


def test_record_stamps_current_time():
    kernel = Kernel()
    log = EventLog(kernel, agent="a")
    events = record_events(log)
    kernel.run(until=2 * SEC)
    log.record(EventKind.ACTUATION, has_prediction=True)
    assert events(EventKind.ACTUATION) == [{
        "time_us": 2 * SEC,
        "kind": "actuation",
        "agent": "a",
        "details": {"has_prediction": True},
    }]


def test_queries():
    kernel = Kernel()
    log = EventLog(kernel, agent="a")
    events = record_events(log)
    log.record(EventKind.ACTUATION, n=1)
    log.record(EventKind.MITIGATION)
    log.record(EventKind.ACTUATION, n=2)
    assert log.count(EventKind.ACTUATION) == 2
    assert log.count(EventKind.CLEANUP) == 0
    assert [e["details"]["n"] for e in events(EventKind.ACTUATION)] == [1, 2]
    assert events(EventKind.CLEANUP) == []
    assert len(log) == 3


def test_summary_counts_by_kind():
    log = EventLog(Kernel(), agent="a")
    log.record(EventKind.ACTUATION)
    log.record(EventKind.ACTUATION)
    log.record(EventKind.CLEANUP)
    assert log.summary() == {"actuation": 2, "cleanup": 1}


def _advance(kernel, until):
    kernel.run(until=until)


def test_first_fallback_tracks_default_and_none_actions():
    """With the anchor at t = 0 (the default, or re-anchored there) the
    first fallback is the first ever, default or none."""
    kernel = Kernel()
    log = EventLog(kernel, agent="a")
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=False)
    assert log.first_fallback_us() is None
    _advance(kernel, SEC)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=True)
    assert log.first_fallback_us() == SEC
    assert log.action_histogram() == {"model": 1, "default": 1, "none": 0}
    log.watch_fallback_from(0)
    assert log.first_fallback_us() is None
    _advance(kernel, 2 * SEC)
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert log.first_fallback_us() == 2 * SEC


def test_fallback_watch_ignores_warmup_fallbacks():
    """Time-to-fallback anchors at the watch point, not the first ever.

    Regression test: a node whose agent fell back during warmup (before
    the fault onset) must still report its first *post-onset* fallback.
    """
    kernel = Kernel()
    log = EventLog(kernel, agent="a")
    log.watch_fallback_from(5 * SEC)
    # Warmup fallback at t=0: before the anchor, ignored.
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert log.first_fallback_us() is None
    assert log.action_histogram()["none"] == 1
    _advance(kernel, 6 * SEC)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=True)
    assert log.first_fallback_us() == 6 * SEC
    # Later fallbacks don't move the stamp.
    _advance(kernel, 7 * SEC)
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert log.first_fallback_us() == 6 * SEC


def test_safeguard_first_trigger_since_skips_warmup_windows():
    from repro.core.safeguards import SafeguardState

    kernel = Kernel()
    guard = SafeguardState(kernel, "g")
    assert guard.first_triggered_at_us_since(0) is None
    guard.trigger()  # warmup trip at t=0
    guard.clear()
    assert guard.first_triggered_at_us_since(0) == 0  # the first ever
    assert guard.first_triggered_at_us_since(1) is None
    kernel.run(until=4 * SEC)
    guard.trigger()  # post-onset trip, still open
    assert guard.first_triggered_at_us_since(0) == 0
    assert guard.first_triggered_at_us_since(1) == 4 * SEC
    assert guard.first_triggered_at_us_since(5 * SEC) is None
    guard.clear()
    assert guard.first_triggered_at_us_since(1) == 4 * SEC
