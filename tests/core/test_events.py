"""Tests for the runtime event log, and for the safety facts the runtime
keeps beside it: action provenance, default predictions and the first
fallback, each checked against what the Actuator saw and what the event
stream says."""

import itertools

from repro.core import Schedule, run_agent
from repro.core.events import EventKind, EventLog
from repro.sim import Kernel
from repro.sim.units import MS, SEC

from tests.core.helpers import RecordingActuator, ScriptedModel, record_events


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
    assert log.count(EventKind.MITIGATION) == 1
    assert log.count(EventKind.CLEANUP) == 0
    assert [e["details"]["n"] for e in events(EventKind.ACTUATION)] == [1, 2]
    assert events(EventKind.CLEANUP) == []


def _agent(fallback_from_us=0):
    """An agent whose epochs cycle through a model prediction, a default
    one, and no prediction at all (the Actuator then times out)."""
    kernel = Kernel()
    predictions = itertools.cycle([7.0, None, None])
    defaults = itertools.cycle([0.0, None])
    model = ScriptedModel(
        kernel,
        predictor=lambda: next(predictions),
        default=lambda: next(defaults),
    )
    actuator = RecordingActuator(kernel)
    schedule = Schedule(
        data_collect_interval_us=100 * MS,
        min_data_per_epoch=10,
        max_epoch_time_us=SEC,
        max_actuation_delay_us=1500 * MS,
        assess_actuator_interval_us=SEC,
    )
    runtime = run_agent(kernel, model, actuator, schedule)
    runtime.fallback_from_us = fallback_from_us
    events = record_events(runtime.log)
    kernel.run(until=30 * SEC)
    return runtime, actuator, events


def _bucket(value, is_default):
    if value is None:
        return "none"
    return "default" if is_default else "model"


def _first_fallback(actuator, since):
    """The Actuator's first default/none action at or after ``since``."""
    return next(
        t for t, value, is_default in actuator.actions
        if _bucket(value, is_default) != "model" and t >= since
    )


def test_first_fallback_tracks_default_and_none_actions():
    """The runtime's provenance histogram, default count and first
    fallback match what the Actuator saw and what the event stream
    says."""
    runtime, actuator, events = _agent()
    seen = {"model": 0, "default": 0, "none": 0}
    for _t, value, is_default in actuator.actions:
        seen[_bucket(value, is_default)] += 1
    assert runtime.actions == seen
    assert min(seen.values()) > 0
    sent = events(EventKind.PREDICTION_SENT)
    defaults = sum(e["details"]["is_default"] for e in sent)
    assert runtime.default_predictions == defaults > 0
    assert runtime.stats()["default_predictions"] == defaults
    assert runtime.first_fallback_us == _first_fallback(actuator, 0)


def test_fallback_watch_ignores_warmup_fallbacks():
    """Time-to-fallback counts from ``fallback_from_us`` (a fault onset),
    not from the first fallback ever; later fallbacks do not move it."""
    runtime, _, _ = _agent()
    anchor = runtime.first_fallback_us + 1
    runtime, actuator, _ = _agent(fallback_from_us=anchor)
    assert runtime.first_fallback_us == _first_fallback(actuator, anchor)
    assert runtime.first_fallback_us > anchor


def test_safeguard_first_trigger_since_skips_warmup_windows():
    from repro.core.safeguards import SafeguardState

    kernel = Kernel()
    guard = SafeguardState(EventLog(kernel, agent="a"), "g")
    assert guard.first_triggered_at_us_since(0) is None
    guard.update(False)  # warmup trip at t=0
    guard.update(True)
    assert guard.first_triggered_at_us_since(0) == 0  # the first ever
    assert guard.first_triggered_at_us_since(1) is None
    kernel.run(until=4 * SEC)
    guard.update(False)  # post-onset trip, still open
    assert guard.first_triggered_at_us_since(0) == 0
    assert guard.first_triggered_at_us_since(1) == 4 * SEC
    assert guard.first_triggered_at_us_since(5 * SEC) is None
    guard.update(True)
    assert guard.first_triggered_at_us_since(1) == 4 * SEC
