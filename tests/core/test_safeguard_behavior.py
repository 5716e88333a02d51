"""Safeguard semantics: interception, watchdog halt/mitigate, recovery."""

import pytest

from repro.core import EventKind, SafeguardPolicy, Schedule, run_agent
from repro.sim import Kernel
from repro.sim.units import MS, SEC

from tests.core.helpers import RecordingActuator, ScriptedModel, record_events


def make_schedule(**kwargs):
    defaults = dict(
        data_collect_interval_us=100 * MS,
        min_data_per_epoch=10,
        max_epoch_time_us=1 * SEC,
        assess_model_interval_epochs=1,
        max_actuation_delay_us=5 * SEC,
        assess_actuator_interval_us=1 * SEC,
    )
    defaults.update(kwargs)
    return Schedule(**defaults)


def test_failing_model_assessment_intercepts_predictions():
    kernel = Kernel()
    healthy = {"value": True}
    model = ScriptedModel(
        kernel,
        predictor=lambda: 100.0,
        default=lambda: 0.0,
        assessor=lambda: healthy["value"],
    )
    actuator = RecordingActuator(kernel)
    runtime = run_agent(kernel, model, actuator, make_schedule())
    kernel.run(until=3500 * MS)  # three healthy epochs
    healthy["value"] = False
    kernel.run(until=7500 * MS)  # four unhealthy epochs
    values = [value for _t, value, _d in actuator.actions]
    assert values[:3] == [100.0, 100.0, 100.0]
    assert set(values[3:]) == {0.0}
    assert runtime.log.count(EventKind.PREDICTION_INTERCEPTED) >= 3
    # model keeps learning during interception -> chance to recover
    assert model.updates >= 7


def test_model_recovery_clears_interception():
    kernel = Kernel()
    healthy = {"value": False}
    model = ScriptedModel(
        kernel, predictor=lambda: 5.0, default=lambda: 0.0,
        assessor=lambda: healthy["value"],
    )
    actuator = RecordingActuator(kernel)
    runtime = run_agent(kernel, model, actuator, make_schedule())
    events = record_events(runtime.log)
    kernel.run(until=3500 * MS)
    healthy["value"] = True
    kernel.run(until=6500 * MS)
    assert runtime.model_safeguard.trigger_count == 1
    assert not runtime.model_safeguard.active
    cleared = events(EventKind.SAFEGUARD_CLEARED)
    assert cleared and cleared[-1]["details"]["safeguard"] == "model"
    # after recovery the real model value flows again
    assert actuator.actions[-1][1] == 5.0


def test_assessment_runs_every_k_epochs():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel)
    run_agent(
        kernel, model, actuator,
        make_schedule(assess_model_interval_epochs=3),
    )
    kernel.run(until=9500 * MS)  # 9 epochs
    assert model.assessments == 3


def test_assess_model_disabled_never_assesses():
    kernel = Kernel()
    model = ScriptedModel(kernel, assessor=lambda: False)
    actuator = RecordingActuator(kernel)
    runtime = run_agent(
        kernel, model, actuator, make_schedule(),
        policy=SafeguardPolicy(assess_model=False),
    )
    kernel.run(until=5 * SEC)
    assert model.assessments == 0
    assert runtime.log.count(EventKind.PREDICTION_INTERCEPTED) == 0
    # the (bad) model predictions flow straight to the actuator
    assert actuator.actions[0][1] == 42.0


def test_watchdog_halts_actuator_and_mitigates_until_recovery():
    kernel = Kernel()
    unsafe_window = (3 * SEC, 6 * SEC)

    def performance():
        return not (unsafe_window[0] <= kernel.now < unsafe_window[1])

    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel, performance=performance)
    runtime = run_agent(kernel, model, actuator, make_schedule())
    kernel.run(until=10 * SEC)
    # mitigate called on every failing assessment (3,4,5 s)
    assert len(actuator.mitigations) == 3
    # no actions while halted
    halted_actions = [
        t for t, _v, _d in actuator.actions
        if unsafe_window[0] < t < unsafe_window[1]
    ]
    assert halted_actions == []
    # actions resume after clear
    assert any(t >= 6 * SEC for t, _v, _d in actuator.actions)
    assert runtime.actuator_safeguard.trigger_count == 1
    assert runtime.actuator_safeguard.windows == [(3 * SEC, 6 * SEC)]


def test_watchdog_disabled_never_mitigates():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel, performance=lambda: False)
    runtime = run_agent(
        kernel, model, actuator, make_schedule(),
        policy=SafeguardPolicy(assess_actuator=False),
    )
    kernel.run(until=5 * SEC)
    assert actuator.mitigations == []
    assert runtime.actuator_safeguard.trigger_count == 0
    assert actuator.actions  # actions keep flowing unguarded


def test_watchdog_crash_counts_as_unhealthy():
    kernel = Kernel()

    def broken_assess():
        raise RuntimeError("watchdog bug")

    model = ScriptedModel(kernel)
    actuator = RecordingActuator(kernel, performance=broken_assess)
    runtime = run_agent(kernel, model, actuator, make_schedule())
    kernel.run(until=3500 * MS)
    # a crashing assessment must fail safe: trigger + mitigate
    assert runtime.actuator_safeguard.active
    assert runtime.actuator_safeguard.windows == [(1 * SEC, None)]
    assert len(actuator.mitigations) >= 1


def test_safeguard_duration_accounting():
    kernel = Kernel()
    model = ScriptedModel(kernel)
    actuator = RecordingActuator(
        kernel, performance=lambda: kernel.now >= 4 * SEC
    )
    runtime = run_agent(kernel, model, actuator, make_schedule())
    kernel.run(until=10 * SEC)
    # triggered at 1 s (first assessment), cleared at 4 s
    assert runtime.actuator_safeguard.active_duration_us() == 3 * SEC


def test_policy_presets():
    assert SafeguardPolicy.all_enabled().validate_data
    none = SafeguardPolicy.none_enabled()
    assert not none.validate_data
    assert not none.assess_model
    assert not none.assess_actuator
    assert not none.enforce_expiry
