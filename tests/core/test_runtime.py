"""Runtime behavior tests: epochs, queueing, decoupling, failure isolation.

Each §3.2 failure condition has at least one dedicated test here; the
safeguard-specific behaviors are in ``test_safeguard_behavior.py``.
"""

import pytest

from repro.core import EventKind, SafeguardPolicy, Schedule, SolRuntime, run_agent
from repro.node.faults import DelayInjector
from repro.sim import Kernel
from repro.sim.units import MS, SEC

from tests.core.helpers import RecordingActuator, ScriptedModel, record_events


def make_schedule(**kwargs):
    defaults = dict(
        data_collect_interval_us=100 * MS,
        min_data_per_epoch=10,
        max_data_per_epoch=100,
        max_epoch_time_us=1 * SEC,
        assess_model_interval_epochs=1,
        max_actuation_delay_us=5 * SEC,
        assess_actuator_interval_us=1 * SEC,
    )
    defaults.update(kwargs)
    return Schedule(**defaults)


def start_agent(kernel, model, actuator, schedule=None, **kwargs):
    return run_agent(
        kernel, model, actuator, schedule or make_schedule(), **kwargs
    )


def test_learning_epoch_cadence_and_prediction_flow():
    kernel = Kernel()
    model = ScriptedModel(kernel, predictor=lambda: 7.0)
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=10 * SEC)
    # 10 datapoints at 100 ms each -> one completed epoch per second
    # (the 11th epoch has just started at t=10 s).
    assert model.updates == 10
    assert runtime.epochs == 11
    # every epoch's prediction was acted on
    values = [value for _t, value, _d in actuator.actions]
    assert values.count(7.0) == 10
    assert runtime.stats()["default_predictions"] == 0


def test_commit_only_validated_data():
    kernel = Kernel()
    model = ScriptedModel(
        kernel,
        data_source=lambda: float(len(model.collected)),
        validator=lambda value: value % 2 == 0,  # odd datapoints invalid
    )
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=2 * SEC)
    committed_values = [value for _t, value in model.committed]
    assert all(value % 2 == 0 for value in committed_values)
    assert runtime.log.count(EventKind.VALIDATION_FAILED) > 0


def test_epoch_short_circuits_to_default_when_data_all_invalid():
    kernel = Kernel()
    model = ScriptedModel(
        kernel, validator=lambda _v: False, default=lambda: -1.0
    )
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=5 * SEC)
    assert model.updates == 0  # never enough valid data to train
    assert runtime.log.count(EventKind.EPOCH_SHORT_CIRCUIT) >= 3
    # actuator still received (default) predictions
    assert actuator.actions
    assert all(is_default for _t, _v, is_default in actuator.actions)


def test_validation_disabled_commits_bad_data():
    kernel = Kernel()
    model = ScriptedModel(kernel, validator=lambda _v: False)
    actuator = RecordingActuator(kernel)
    runtime = start_agent(
        kernel, model, actuator,
        policy=SafeguardPolicy(validate_data=False),
    )
    kernel.run(until=2 * SEC)
    assert len(model.committed) > 0
    assert runtime.log.count(EventKind.VALIDATION_FAILED) == 0


def test_model_predict_none_short_circuits_to_default():
    kernel = Kernel()
    model = ScriptedModel(kernel, predictor=lambda: None, default=lambda: 9.0)
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    events = record_events(runtime.log)
    kernel.run(until=3 * SEC)
    assert all(value == 9.0 for _t, value, _d in actuator.actions)
    short_circuits = events(EventKind.EPOCH_SHORT_CIRCUIT)
    assert short_circuits
    assert short_circuits[-1]["details"]["reason"] == "no_model_prediction"


def test_no_predictions_at_all_leads_to_timeout_actions():
    kernel = Kernel()
    model = ScriptedModel(
        kernel, validator=lambda _v: False, default=lambda: None
    )
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=16 * SEC)
    # take_action(None) every max_actuation_delay (5 s) -> 3 times in 16 s
    none_actions = [t for t, value, _d in actuator.actions if value is None]
    assert len(none_actions) == 3
    assert runtime.stats()["actuation_timeouts"] == 3


def test_actuator_acts_immediately_when_prediction_arrives():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel)
    start_agent(kernel, model, actuator)
    kernel.run(until=1100 * MS)
    # first epoch ends at 1 s; action should land at 1 s, not at 5 s timeout
    assert actuator.actions
    assert actuator.actions[0][0] == 1 * SEC


def test_queue_capacity_one_supersedes_stale_predictions():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel)
    # Delay the actuator so several epochs elapse before it consumes.
    delays = DelayInjector()
    delays.add_window(at_us=0, duration_us=4 * SEC)
    runtime = start_agent(
        kernel, model, actuator, actuator_delays=delays,
    )
    kernel.run(until=4500 * MS)
    # epochs at 1,2,3,4 s; actuator woke at 4 s and must see the freshest.
    assert runtime.queue.dropped >= 2
    assert len(actuator.actions) >= 1


def test_expired_prediction_becomes_none_action():
    kernel = Kernel()
    model = ScriptedModel(kernel, ttl_us=500 * MS)  # expires quickly
    actuator = RecordingActuator(kernel)
    delays = DelayInjector()
    delays.add_window(at_us=0, duration_us=2 * SEC)  # actuator stalls to 2 s
    runtime = start_agent(kernel, model, actuator, actuator_delays=delays)
    kernel.run(until=2100 * MS)
    # prediction produced at 1 s expired at 1.5 s; actuator woke at 2 s
    assert runtime.log.count(EventKind.PREDICTION_EXPIRED) == 1
    assert actuator.actions[0][1] is None


def test_expiry_disabled_acts_on_stale_prediction():
    kernel = Kernel()
    model = ScriptedModel(kernel, ttl_us=500 * MS, predictor=lambda: 3.0)
    actuator = RecordingActuator(kernel)
    delays = DelayInjector()
    delays.add_window(at_us=0, duration_us=2 * SEC)
    runtime = start_agent(
        kernel, model, actuator,
        policy=SafeguardPolicy(enforce_expiry=False),
        actuator_delays=delays,
    )
    kernel.run(until=2100 * MS)
    assert runtime.log.count(EventKind.PREDICTION_EXPIRED) == 0
    assert actuator.actions[0][1] == 3.0


def test_blocking_actuator_never_times_out():
    kernel = Kernel()
    model = ScriptedModel(
        kernel, validator=lambda _v: False, default=lambda: None
    )
    actuator = RecordingActuator(kernel)
    runtime = start_agent(
        kernel, model, actuator,
        policy=SafeguardPolicy(non_blocking_actuator=False),
    )
    kernel.run(until=60 * SEC)
    assert actuator.actions == []  # blocked forever: no prediction, no action
    assert runtime.stats()["actuation_timeouts"] == 0


def test_model_throttling_stalls_predictions_but_not_safe_actions():
    """The decoupling argument: a starved Model cannot starve the Actuator."""
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel)
    delays = DelayInjector()
    delays.add_window(at_us=1500 * MS, duration_us=30 * SEC)
    runtime = start_agent(kernel, model, actuator, model_delays=delays)
    kernel.run(until=35 * SEC)
    assert runtime.log.count(EventKind.SCHEDULING_DELAY) == 1
    # During the 30 s stall the actuator kept acting via timeouts.
    stall_actions = [
        t for t, value, _d in actuator.actions
        if 2 * SEC < t < 31 * SEC and value is None
    ]
    assert len(stall_actions) >= 5


def test_model_crash_is_isolated_and_recovers():
    kernel = Kernel()
    crashes = {"left": 3}

    def flaky_source():
        if crashes["left"] > 0:
            crashes["left"] -= 1
            raise IOError("telemetry driver fault")
        return 1.0

    model = ScriptedModel(kernel, data_source=flaky_source,
                          default=lambda: 0.5)
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=10 * SEC)
    assert runtime.stats()["model_crashes"] == 3
    # after the flakiness, normal predictions resume
    assert any(value == 42.0 for _t, value, _d in actuator.actions)
    assert runtime.running


def test_actuator_crash_does_not_kill_the_loop():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(
        kernel, action_error=RuntimeError("actuation bug")
    )
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=5 * SEC)
    assert runtime.log.count(EventKind.ACTUATOR_CRASH) >= 4
    assert runtime.running


def test_terminate_kills_loops_and_cleans_up():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel)
    runtime = start_agent(kernel, model, actuator)
    kernel.run(until=2500 * MS)
    runtime.terminate()
    assert actuator.cleanups == 1
    assert not runtime.running
    actions_at_kill = len(actuator.actions)
    kernel.run(until=20 * SEC)
    assert len(actuator.actions) == actions_at_kill  # nothing after death
    # idempotent: SREs may retry cleanup
    runtime.terminate()
    assert actuator.cleanups == 2


def test_double_start_rejected():
    kernel = Kernel()
    runtime = SolRuntime(
        kernel,
        ScriptedModel(kernel),
        RecordingActuator(kernel),
        make_schedule(),
    )
    runtime.start()
    with pytest.raises(RuntimeError):
        runtime.start()


def test_stats_keys_complete():
    kernel = Kernel()
    runtime = start_agent(
        kernel, ScriptedModel(kernel), RecordingActuator(kernel)
    )
    kernel.run(until=3 * SEC)
    stats = runtime.stats()
    for key in [
        "epochs", "predictions_sent", "default_predictions",
        "validation_failures", "interceptions", "short_circuits",
        "actuations", "actuation_timeouts", "expired_predictions",
        "mitigations", "model_crashes", "model_safeguard_triggers",
        "actuator_safeguard_triggers",
    ]:
        assert key in stats
