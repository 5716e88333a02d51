"""EventLog aggregates: counters and detail histograms, no event history."""

from repro.core.events import EventKind, EventLog
from repro.sim import Kernel


def _drive(log: EventLog) -> None:
    log.record(EventKind.EPOCH_START, epoch=1)
    log.record(EventKind.PREDICTION_SENT, is_default=False, expires_at_us=5)
    log.record(EventKind.PREDICTION_SENT, is_default=True, expires_at_us=9)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=False)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=True)
    log.record(EventKind.ACTUATION, has_prediction=False, is_default=None)
    log.record(EventKind.ACTUATION_TIMEOUT)


def test_action_histogram_values():
    log = EventLog(Kernel(), agent="a")
    _drive(log)
    assert log.action_histogram() == {"model": 1, "default": 1, "none": 1}
    assert log.default_predictions_sent() == 1


def test_every_kind_is_counted_including_never_recorded():
    """count/summary/len cover every EventKind — recorded once, recorded
    often, or never (→ 0, absent from summary)."""
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
    assert list(log.summary()) == [kind.value for kind in recorded]
    assert len(log) == sum(log.summary().values())


def test_event_kind_hash_is_identity_not_enum_name_hash():
    """The counter dict must not run ``Enum.__hash__`` (a Python frame
    per event); identity hashing stays consistent with ``==``."""
    assert EventKind.__hash__ is object.__hash__
    assert len({kind: 0 for kind in EventKind}) == len(EventKind)
    assert {EventKind.ACTUATION: 1}[EventKind("actuation")] == 1


def test_record_stamps_one_clock_read_per_event():
    """The sink and the fallback watch see the same timestamp."""

    class TickingKernel:
        reads = 0

        @property
        def now(self):
            self.reads += 1
            return self.reads

    class Sink:
        def __init__(self):
            self.times = []

        def on_event(self, time_us, payload):
            self.times.append(time_us)

    kernel, sink = TickingKernel(), Sink()
    log = EventLog(kernel, agent="a")
    log.attach_tracer(sink)
    log.watch_fallback_from(1)
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert kernel.reads == 1
    assert sink.times == [1]
    assert log.first_fallback_us() == 1

