"""SmartOverclock agent tests: learning, safeguards, cleanup."""

import pytest

from repro.agents.overclock import OverclockConfig, SmartOverclockAgent
from repro.core import EventKind, SafeguardPolicy
from repro.node.cpu import CpuModel
from repro.node.faults import DelayInjector, ModelBreaker, bad_ips_injector
from repro.sim import Kernel, RngStreams
from repro.sim.units import SEC
from repro.workloads.diskspeed import DiskSpeedWorkload
from repro.workloads.objectstore import ObjectStoreWorkload
from repro.workloads.synthetic import SyntheticBatchWorkload


def make_node(seed=0):
    kernel = Kernel()
    streams = RngStreams(seed)
    cpu = CpuModel(
        kernel, n_cores=8, nominal_freq_ghz=1.5, min_freq_ghz=1.5,
        max_freq_ghz=2.3, max_ipc=4.0,
    )
    return kernel, streams, cpu


def test_learns_to_overclock_cpu_bound_workload():
    kernel, streams, cpu = make_node()
    ObjectStoreWorkload(kernel, cpu, streams.get("wl")).start()
    agent = SmartOverclockAgent(kernel, cpu, streams.get("agent")).start()
    kernel.run(until=300 * SEC)
    # Late in the run, the policy should be at an overclocked frequency
    # most of the time: check the greedy choice for the busy state.
    policy = agent.model.learner.greedy_policy()
    busy_states = [s for s in policy if s[0] >= 3]
    assert busy_states, "agent never saw a busy state"
    assert all(policy[s] > 0 for s in busy_states)


def test_keeps_disk_bound_workload_at_nominal():
    kernel, streams, cpu = make_node()
    DiskSpeedWorkload(kernel, cpu, streams.get("wl")).start()
    agent = SmartOverclockAgent(kernel, cpu, streams.get("agent")).start()
    kernel.run(until=300 * SEC)
    snap = cpu.snapshot()
    # power should be near the nominal baseline (within exploration cost)
    nominal_watts = cpu.power_model.watts(8, 1.5, 0.6)
    assert snap.energy_joules / 300 < nominal_watts * 1.15


def test_validation_discards_out_of_range_ips():
    kernel, streams, cpu = make_node()
    SyntheticBatchWorkload(kernel, cpu, period_us=30 * SEC).start()
    agent = SmartOverclockAgent(kernel, cpu, streams.get("agent"))
    agent.reader.add_injector(
        bad_ips_injector(streams.get("fault"), probability=0.3)
    )
    agent.start()
    kernel.run(until=60 * SEC)
    stats = agent.runtime.stats()
    assert stats["validation_failures"] > 50
    # committed data is all in range
    assert all(
        0 <= m.ips <= 8 * 4 * 2.3 * 1.05
        for m in agent.model._epoch_buffer
    )


def test_model_safeguard_intercepts_broken_model_on_diskspeed():
    kernel, streams, cpu = make_node()
    DiskSpeedWorkload(kernel, cpu, streams.get("wl")).start()
    breaker = ModelBreaker(broken_value=2.3)
    agent = SmartOverclockAgent(
        kernel, cpu, streams.get("agent"), breaker=breaker
    ).start()
    kernel.call_later(60 * SEC, breaker.arm)
    kernel.run(until=240 * SEC)
    stats = agent.runtime.stats()
    assert stats["model_safeguard_triggers"] >= 1
    assert stats["interceptions"] > 10
    # while intercepted, the executed frequency is mostly nominal
    assert cpu.frequency_ghz in (1.5, 1.9, 2.3)


def test_broken_model_unguarded_burns_power():
    def run(policy):
        kernel, streams, cpu = make_node()
        DiskSpeedWorkload(kernel, cpu, streams.get("wl")).start()
        breaker = ModelBreaker(broken_value=2.3)
        breaker.arm()
        SmartOverclockAgent(
            kernel, cpu, streams.get("agent"), policy=policy,
            breaker=breaker,
        ).start()
        kernel.run(until=120 * SEC)
        return cpu.snapshot().energy_joules

    unguarded = run(SafeguardPolicy.none_enabled())
    guarded = run(SafeguardPolicy.all_enabled())
    assert unguarded > guarded * 1.3


def test_actuator_times_out_to_nominal_during_model_stall():
    kernel, streams, cpu = make_node()
    SyntheticBatchWorkload(kernel, cpu, period_us=30 * SEC).start()
    delays = DelayInjector()
    delays.add_window(at_us=20 * SEC, duration_us=60 * SEC)
    agent = SmartOverclockAgent(
        kernel, cpu, streams.get("agent"), model_delays=delays
    ).start()
    kernel.run(until=60 * SEC)
    # deep into the stall, frequency must have been restored to nominal
    assert cpu.frequency_ghz == pytest.approx(1.5)
    assert agent.runtime.stats()["actuation_timeouts"] >= 3


def test_alpha_safeguard_disables_overclocking_when_idle():
    kernel, streams, cpu = make_node()
    # Workload: busy 60 s, then idle for a long time.
    wl = SyntheticBatchWorkload(
        kernel, cpu, period_us=1000 * SEC, n_batches=1,
        batch_giga_instructions=48.0 * 60,
    ).start()
    agent = SmartOverclockAgent(kernel, cpu, streams.get("agent")).start()
    kernel.run(until=400 * SEC)
    stats = agent.runtime.stats()
    assert stats["actuator_safeguard_triggers"] >= 1
    assert cpu.frequency_ghz == pytest.approx(1.5)
    assert agent.runtime.actuator_safeguard.active


def test_terminate_restores_nominal_frequency():
    kernel, streams, cpu = make_node()
    ObjectStoreWorkload(kernel, cpu, streams.get("wl")).start()
    agent = SmartOverclockAgent(kernel, cpu, streams.get("agent")).start()
    kernel.run(until=120 * SEC)
    agent.terminate()
    assert cpu.frequency_ghz == pytest.approx(1.5)
    assert not agent.runtime.running
    assert agent.runtime.log.count(EventKind.CLEANUP) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        OverclockConfig(frequencies_ghz=(1.5,))
    with pytest.raises(ValueError):
        OverclockConfig(frequencies_ghz=(1.5, 1.5))
    with pytest.raises(ValueError):
        OverclockConfig(epsilon=1.2)
