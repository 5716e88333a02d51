"""EventLog counts mode: identical aggregates, no per-event retention."""

import pytest

from repro.core.events import EventKind, EventLog, RING_SIZE
from repro.sim import Kernel


def _drive(log: EventLog) -> None:
    log.record(EventKind.EPOCH_START, epoch=1)
    log.record(EventKind.PREDICTION_SENT, is_default=False, expires_at_us=5)
    log.record(EventKind.PREDICTION_SENT, is_default=True, expires_at_us=9)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=False)
    log.record(EventKind.ACTUATION, has_prediction=True, is_default=True)
    log.record(EventKind.ACTUATION, has_prediction=False, is_default=None)
    log.record(EventKind.ACTUATION_TIMEOUT)


def test_counts_mode_matches_full_mode_aggregates():
    kernel = Kernel()
    full = EventLog(kernel, agent="a", mode="full")
    counts = EventLog(kernel, agent="a", mode="counts")
    _drive(full)
    _drive(counts)
    for kind in EventKind:
        assert counts.count(kind) == full.count(kind)
    assert counts.summary() == full.summary()
    assert counts.action_histogram() == full.action_histogram()
    assert (
        counts.default_predictions_sent() == full.default_predictions_sent()
    )
    assert len(counts) == len(full) == 7


def test_full_mode_action_histogram_values():
    log = EventLog(Kernel(), agent="a")
    _drive(log)
    assert log.action_histogram() == {"model": 1, "default": 1, "none": 1}
    assert log.default_predictions_sent() == 1


def test_counts_mode_rejects_per_event_queries():
    log = EventLog(Kernel(), agent="a", mode="counts")
    _drive(log)
    with pytest.raises(RuntimeError):
        log.of_kind(EventKind.ACTUATION)
    with pytest.raises(RuntimeError):
        list(log)


def test_counts_mode_ring_buffer_keeps_recent_tail():
    log = EventLog(Kernel(), agent="a", mode="counts")
    for i in range(RING_SIZE + 10):
        log.record(EventKind.DATA_COLLECTED, n=i)
    recent = log.recent()
    assert len(recent) == RING_SIZE
    assert recent[-1].details["n"] == RING_SIZE + 9
    # Ring entries materialize lazily, so compare by value, not identity.
    assert log.last(EventKind.DATA_COLLECTED) == recent[-1]
    assert log.count(EventKind.DATA_COLLECTED) == RING_SIZE + 10


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        EventLog(Kernel(), agent="a", mode="sometimes")


def test_every_kind_agrees_between_modes_including_never_recorded():
    """count/summary/len are mode-independent for every EventKind —
    recorded once, recorded often, or never (→ 0, absent from summary)."""
    kernel = Kernel()
    full = EventLog(kernel, agent="a", mode="full")
    counts = EventLog(kernel, agent="a", mode="counts")
    never = {EventKind.AGENT_KILLED, EventKind.MODEL_CRASH}
    for log in (full, counts):
        for repeat, kind in enumerate(k for k in EventKind if k not in never):
            for _ in range(1 + repeat % 3):
                log.record(kind, has_prediction=True, is_default=False)
    for kind in EventKind:
        assert counts.count(kind) == full.count(kind)
        assert (full.count(kind) == 0) == (kind in never)
    assert counts.summary() == full.summary()
    assert list(counts.summary()) == list(full.summary())  # same key order
    assert not {kind.value for kind in never} & set(full.summary())
    assert len(counts) == len(full) == sum(full.summary().values())


def test_event_kind_hash_is_identity_not_enum_name_hash():
    """The counter dict must not run ``Enum.__hash__`` (a Python frame
    per event); identity hashing stays consistent with ``==``."""
    assert EventKind.__hash__ is object.__hash__
    assert len({kind: 0 for kind in EventKind}) == len(EventKind)
    assert {EventKind.ACTUATION: 1}[EventKind("actuation")] == 1


def test_record_stamps_one_clock_read_per_event():
    """Tracer, ring and fallback watch all see the same timestamp."""

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
    log = EventLog(kernel, agent="a", mode="counts")
    log.attach_tracer(sink)
    log.watch_fallback_from(0)
    log.record(EventKind.ACTUATION, has_prediction=False)
    assert kernel.reads == 1
    assert sink.times == [1]
    assert log.first_fallback_us() == log.first_watched_fallback_us() == 1
    assert log.recent()[0].time_us == 1


def test_runtime_and_agent_defaults_stay_full():
    """Only the scenario builders and FleetNode opt into counts mode."""
    import inspect

    from repro.agents.harvest import SmartHarvestAgent
    from repro.agents.memory import SmartMemoryAgent
    from repro.agents.overclock import SmartOverclockAgent
    from repro.core.runtime import SolRuntime

    for cls in (
        SolRuntime, SmartHarvestAgent, SmartMemoryAgent, SmartOverclockAgent
    ):
        default = inspect.signature(cls).parameters["log_mode"].default
        assert default == "full", cls.__name__
    assert EventLog(Kernel(), agent="a").mode == "full"
