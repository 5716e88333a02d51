"""SmartHarvest agent tests: harvesting, safeguards, QoS protection."""

import numpy as np
import pytest

from repro.agents.harvest import HarvestConfig, SmartHarvestAgent
from repro.agents.harvest.model import UsageWindow
from repro.core import SafeguardPolicy
from repro.core.events import EventKind
from repro.node.faults import DelayInjector, ModelBreaker, stuck_usage_injector
from repro.node.hypervisor import Hypervisor
from repro.sim import Kernel, RngStreams
from repro.sim.units import MS, SEC
from repro.workloads.tailbench import IMAGE_DNN, MOSES, TailBenchWorkload

from tests.core.helpers import record_events


def setup(seed=0, profile=MOSES):
    kernel = Kernel()
    streams = RngStreams(seed)
    hv = Hypervisor(kernel, n_cores=8, history_horizon_us=SEC)
    wl = TailBenchWorkload(kernel, hv, streams.get("wl"), profile).start()
    return kernel, streams, hv, wl


def test_agent_harvests_idle_cores_without_hurting_p99():
    kernel, streams, hv, wl = setup()
    baseline_kernel, bstreams, bhv, bwl = setup()
    SmartHarvestAgent(kernel, hv, streams.get("agent")).start()
    kernel.run(until=120 * SEC)
    baseline_kernel.run(until=120 * SEC)
    harvested = hv.snapshot().elastic_cus / 1e6
    assert harvested > 100  # meaningful elastic capacity (core-seconds)
    p99 = wl.performance().value
    p99_baseline = bwl.performance().value
    assert p99 <= p99_baseline * 1.10  # the paper's acceptable envelope


def test_validation_rejects_out_of_range_and_capped_windows():
    kernel, streams, hv, _wl = setup()
    agent = SmartHarvestAgent(kernel, hv, streams.get("agent"))
    model = agent.model
    good = UsageWindow(
        samples=np.full(500, 2.0), allocated=8.0, deficit_cus=0.0
    )
    assert model.validate_data(good)
    out_of_range = UsageWindow(
        samples=np.full(500, -1.0), allocated=8.0, deficit_cus=0.0
    )
    assert not model.validate_data(out_of_range)
    capped = UsageWindow(
        samples=np.full(500, 5.0), allocated=5.0, deficit_cus=0.0
    )
    assert not model.validate_data(capped)
    empty = UsageWindow(
        samples=np.zeros(0), allocated=8.0, deficit_cus=0.0
    )
    assert not model.validate_data(empty)


def test_usage_window_is_immutable_and_carries_its_extremes():
    window = UsageWindow(
        samples=np.array([3.0, -0.25, 7.5]), allocated=8.0, deficit_cus=2.0
    )
    assert (window.lo, window.hi) == (-0.25, 7.5)
    assert (window.allocated, window.deficit_cus) == (8.0, 2.0)
    with pytest.raises(AttributeError):
        window.hi = 0.0
    empty = UsageWindow(samples=np.zeros(0), allocated=8.0, deficit_cus=0.0)
    assert np.isnan(empty.lo) and np.isnan(empty.hi)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_validation_fails_closed_on_one_non_finite_sample(poison):
    """`min < lo or max > hi` is False for a NaN window; the range
    check must read an unordered comparison as *out of range*."""
    kernel, streams, hv, _wl = setup()
    model = SmartHarvestAgent(kernel, hv, streams.get("agent")).model
    samples = np.full(500, 2.0)
    samples[137] = poison
    window = UsageWindow(samples=samples, allocated=8.0, deficit_cus=0.0)
    assert not model.validate_data(window)


def test_one_nan_window_is_counted_and_never_reaches_the_weights():
    """Regression: one NaN sample used to pass validation, turn every
    classifier weight NaN, and pin predict() at class 0 for good."""
    kernel, streams, hv, _wl = setup()
    agent = SmartHarvestAgent(kernel, hv, streams.get("agent"))
    windows = []

    def nan_once(samples):
        windows.append(kernel.now)
        if len(windows) == 100:
            samples = samples.copy()
            samples[0] = np.nan
        return samples

    agent.model.injectors.append(nan_once)
    events = record_events(agent.runtime.log)
    agent.start()
    kernel.run(until=10 * SEC)
    stats = agent.runtime.stats()
    assert len(windows) > 300
    rejected_at = [
        event["time_us"] for event in events(EventKind.VALIDATION_FAILED)
    ]
    assert windows[99] in rejected_at
    assert stats["validation_failures"] == len(rejected_at)
    assert np.isfinite(agent.model.classifier.weights).all()
    # The model is still learning, not parked on "needs 0 cores".
    assert agent.model.classifier.updates > 300
    assert stats["model_crashes"] == 0


def test_stuck_counter_discarded_by_validation():
    kernel, streams, hv, _wl = setup()
    agent = SmartHarvestAgent(kernel, hv, streams.get("agent"))
    agent.model.injectors.append(
        stuck_usage_injector(streams.get("fault"), probability=0.5)
    )
    agent.start()
    kernel.run(until=20 * SEC)
    stats = agent.runtime.stats()
    assert stats["validation_failures"] > 100


def test_broken_model_triggers_starvation_assessment():
    kernel, streams, hv, _wl = setup(profile=IMAGE_DNN)
    breaker = ModelBreaker(broken_value=0)  # "the primary needs nothing"
    agent = SmartHarvestAgent(
        kernel, hv, streams.get("agent"), breaker=breaker
    ).start()
    kernel.call_later(30 * SEC, breaker.arm)
    kernel.run(until=90 * SEC)
    stats = agent.runtime.stats()
    assert stats["model_safeguard_triggers"] >= 1
    assert stats["interceptions"] > 0


def test_guarded_broken_model_bounded_impact():
    def run(policy):
        kernel, streams, hv, wl = setup(profile=IMAGE_DNN, seed=3)
        breaker = ModelBreaker(broken_value=0)
        breaker.arm()
        SmartHarvestAgent(
            kernel, hv, streams.get("agent"), policy=policy, breaker=breaker
        ).start()
        kernel.run(until=120 * SEC)
        return wl.performance().value

    guarded = run(SafeguardPolicy.all_enabled())
    unguarded = run(SafeguardPolicy.none_enabled())
    assert unguarded > guarded * 1.2


def test_actuator_safeguard_returns_cores_under_sustained_wait():
    kernel, streams, hv, _wl = setup(profile=IMAGE_DNN)
    breaker = ModelBreaker(broken_value=0)
    breaker.arm()
    # model assessment off: only the end-to-end watchdog protects
    agent = SmartHarvestAgent(
        kernel, hv, streams.get("agent"),
        policy=SafeguardPolicy(assess_model=False),
        breaker=breaker,
    ).start()
    kernel.run(until=60 * SEC)
    stats = agent.runtime.stats()
    assert stats["actuator_safeguard_triggers"] >= 1
    assert stats["mitigations"] >= 1


def test_prediction_timeout_returns_all_cores():
    kernel, streams, hv, _wl = setup()
    delays = DelayInjector()
    delays.add_window(at_us=10 * SEC, duration_us=20 * SEC)
    agent = SmartHarvestAgent(
        kernel, hv, streams.get("agent"), model_delays=delays
    ).start()
    kernel.run(until=15 * SEC)  # inside the stall
    assert hv.harvested == 0
    assert agent.runtime.stats()["actuation_timeouts"] >= 1


def test_harvest_ramps_slowly_but_returns_instantly():
    kernel, streams, hv, _wl = setup()
    agent = SmartHarvestAgent(kernel, hv, streams.get("agent"))
    actuator = agent.actuator
    from repro.core.prediction import Prediction

    # predicted need 1 core -> target harvest 6, but ramp is 1/action
    actuator.take_action(Prediction.fresh(kernel, 1, ttl_us=SEC))
    assert hv.harvested == 1
    actuator.take_action(Prediction.fresh(kernel, 1, ttl_us=SEC))
    assert hv.harvested == 2
    # demand spike: predicted need 7 -> instant release
    actuator.take_action(Prediction.fresh(kernel, 7, ttl_us=SEC))
    assert hv.harvested == 0


def test_terminate_returns_all_cores():
    kernel, streams, hv, _wl = setup()
    agent = SmartHarvestAgent(kernel, hv, streams.get("agent")).start()
    kernel.run(until=30 * SEC)
    agent.terminate()
    assert hv.harvested == 0
    assert not agent.runtime.running


def test_config_validation():
    with pytest.raises(ValueError):
        HarvestConfig(sample_period_us=0)
    with pytest.raises(ValueError):
        HarvestConfig(epoch_us=25 * MS + 1)  # not a multiple of 50us
    with pytest.raises(ValueError):
        HarvestConfig(buffer_cores=-1)
    with pytest.raises(ValueError):
        HarvestConfig(starvation_threshold=0.0)
    assert HarvestConfig().samples_per_epoch == 500
