"""EventLog: per-kind counters and one sink, no event history."""

import itertools

from repro.core import Schedule, run_agent
from repro.core.events import EventKind, EventLog
from repro.core.safeguards import SafeguardState
from repro.sim import Kernel
from repro.sim.units import MS, SEC

from tests.core.helpers import RecordingActuator, ScriptedModel, record_events


def test_action_histogram_values():
    """The runtime's action histogram and default count agree with the
    ACTUATION and PREDICTION_SENT events its log streams."""
    kernel = Kernel()
    predictions = itertools.cycle([7.0, None, None])
    defaults = itertools.cycle([0.0, None])
    model = ScriptedModel(
        kernel,
        predictor=lambda: next(predictions),
        default=lambda: next(defaults),
    )
    schedule = Schedule(
        data_collect_interval_us=100 * MS,
        min_data_per_epoch=10,
        max_epoch_time_us=SEC,
        max_actuation_delay_us=1500 * MS,
        assess_actuator_interval_us=SEC,
    )
    runtime = run_agent(kernel, model, RecordingActuator(kernel), schedule)
    events = record_events(runtime.log)
    kernel.run(until=30 * SEC)
    streamed = {"model": 0, "default": 0, "none": 0}
    for event in events(EventKind.ACTUATION):
        details = event["details"]
        if not details["has_prediction"]:
            streamed["none"] += 1
        else:
            streamed["default" if details["is_default"] else "model"] += 1
    assert runtime.actions == streamed
    assert min(streamed.values()) > 0
    assert sum(streamed.values()) == runtime.log.count(EventKind.ACTUATION)
    sent = events(EventKind.PREDICTION_SENT)
    assert runtime.default_predictions == sum(
        e["details"]["is_default"] for e in sent
    ) > 0


def test_every_kind_is_counted_including_never_recorded():
    """count covers every EventKind — recorded once, recorded often, or
    never (→ 0)."""
    log = EventLog(Kernel(), agent="a")
    never = {EventKind.AGENT_KILLED, EventKind.MODEL_CRASH}
    recorded = [k for k in EventKind if k not in never]
    for repeat, kind in enumerate(recorded):
        for _ in range(1 + repeat % 3):
            log.record(kind, has_prediction=True, is_default=False)
    for repeat, kind in enumerate(recorded):
        assert log.count(kind) == 1 + repeat % 3
    for kind in never:
        assert log.count(kind) == 0


def test_event_kind_hash_is_identity_not_enum_name_hash():
    """The counter dict must not run ``Enum.__hash__`` (a Python frame
    per event); identity hashing stays consistent with ``==``."""
    assert EventKind.__hash__ is object.__hash__
    assert len({kind: 0 for kind in EventKind}) == len(EventKind)
    assert {EventKind.ACTUATION: 1}[EventKind("actuation")] == 1


class _TickingKernel:
    """A clock that counts its reads."""

    reads = 0

    @property
    def now(self):
        self.reads += 1
        return self.reads


def test_record_stamps_one_clock_read_per_event():
    """Without a sink ``record`` only counts; with one it reads the clock
    once and forwards that stamp."""

    class Sink:
        def __init__(self):
            self.times = []

        def on_event(self, time_us, payload):
            self.times.append(time_us)

    kernel, sink = _TickingKernel(), Sink()
    log = EventLog(kernel, agent="a")
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert kernel.reads == 0
    log.attach_tracer(sink)
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert kernel.reads == 1
    assert sink.times == [1]
    assert log.count(EventKind.ACTUATION) == 2


def test_a_repeated_verdict_records_nothing_and_an_open_window_counts():
    kernel = Kernel()
    log = EventLog(kernel, agent="a")
    events = record_events(log)
    guard = SafeguardState(log, "model")
    guard.update(True)  # healthy while clear: no transition
    assert events(EventKind.SAFEGUARD_CLEARED) == []
    kernel.run(until=SEC)
    guard.update(False)
    kernel.run(until=2 * SEC)
    guard.update(False)  # still unhealthy: the window stays open
    assert guard.active and guard.trigger_count == 1
    assert guard.windows == [(SEC, None)]
    kernel.run(until=3 * SEC)
    assert guard.active_duration_us() == 2 * SEC
    guard.update(True)
    kernel.run(until=5 * SEC)
    guard.update(True)
    assert guard.windows == [(SEC, 3 * SEC)]
    assert guard.active_duration_us() == 2 * SEC
    assert [e["time_us"] for e in events(EventKind.SAFEGUARD_TRIGGERED)] == [
        SEC
    ]
    cleared = events(EventKind.SAFEGUARD_CLEARED)
    assert [(e["time_us"], e["details"]) for e in cleared] == [
        (3 * SEC, {"safeguard": "model"})
    ]
    assert log.count(EventKind.SAFEGUARD_TRIGGERED) == 1
    assert log.count(EventKind.SAFEGUARD_CLEARED) == 1
