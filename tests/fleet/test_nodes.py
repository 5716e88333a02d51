"""FleetNode behavior: per-agent assembly, SLO windows, fault bursts."""

import math

import pytest

from repro.fleet.config import FaultPlan, FleetConfig, NodeSpec
from repro.fleet.node import GEN5, FleetNode, NodeResult
from repro.fleet.scenario import FleetScenario
from repro.sim.units import SEC


def _run_with_stats(fleet_node):
    """Run the node: its result and its runtime counters."""
    result = fleet_node.run()
    return result, fleet_node.node.agent.runtime.stats()


def _run_one(agent, seconds, fault=None):
    config = FleetConfig(
        n_nodes=1, agent=agent, seed=0, duration_s=seconds, fault=fault
    )
    return _run_with_stats(FleetScenario(config).build_node(0))


def test_overclock_node_produces_full_result():
    result, stats = _run_one("overclock", 30)
    assert isinstance(result, NodeResult)
    assert result.agent == "overclock"
    assert result.sim_seconds == 30
    assert result.slo_windows == 30_000_000 // 5_000_000
    assert 0.0 <= result.slo_violation_rate <= 1.0
    assert stats["actuations"] > 0
    assert set(result.safeguard_trips) == {"model", "actuator"}
    assert set(result.action_histogram) == {"model", "default", "none"}
    assert sum(result.action_histogram.values()) == stats["actuations"]
    assert not math.isnan(result.perf_value)


def test_harvest_node_runs():
    result, stats = _run_one("harvest", 10)
    assert result.agent == "harvest"
    assert result.workload in ("image-dnn", "moses")
    assert stats["actuations"] > 0
    assert result.perf_metric.startswith("p99")


def test_memory_node_runs():
    result, stats = _run_one("memory", 20)
    assert result.agent == "memory"
    assert stats["epochs"] > 0
    assert result.slo_windows > 0


def test_node_runs_are_reproducible():
    a, _ = _run_one("overclock", 20)
    b, _ = _run_one("overclock", 20)
    assert a == b


def test_rack_burst_reaches_the_validation_safeguard():
    fault = FaultPlan(racks=(0,), start_s=5, duration_s=20,
                      probability=0.9)
    _, clean = _run_one("overclock", 30)
    _, faulted = _run_one("overclock", 30, fault=fault)
    assert faulted["validation_failures"] > clean["validation_failures"]
    # The guarded agent absorbs the burst: bad readings are discarded
    # (validation failures), not learned from.
    assert faulted["validation_failures"] > 0


def test_burst_spares_other_racks():
    fault = FaultPlan(racks=(1,), start_s=5, duration_s=20)
    config = FleetConfig(
        n_nodes=2, agent="overclock", duration_s=30, rack_size=1,
        fault=fault,
    )
    scenario = FleetScenario(config)
    _, spared = _run_with_stats(scenario.build_node(0))
    _, hit = _run_with_stats(scenario.build_node(1))
    assert list(scenario.affected_nodes()) == [1]
    assert spared["validation_failures"] == 0
    assert hit["validation_failures"] > 0


#: The node of the ``agent-harvest-image-dnn-s11`` conformance vector.
HARVEST_S11 = NodeSpec(
    node_id=0, rack=0, sku=GEN5, agent="harvest", workload="image-dnn",
    seed=11,
)


@pytest.mark.parametrize("fault_window_us, firsts", [
    # A zero-probability burst moves only the anchor: warmup engagements
    # before t = 10 s do not count.
    ((10 * SEC, 20 * SEC), (15_125_000, 17_300_000, 15_200_000)),
    (None, (1_825_000, 2_050_000, 1_900_000)),
])
def test_first_engagements_count_from_the_fault_onset(
    fault_window_us, firsts
):
    """First fallback / model safeguard / actuator safeguard, pinned."""
    result = FleetNode(
        HARVEST_S11, duration_s=60, fault_window_us=fault_window_us,
        fault_probability=0.0,
    ).run()
    assert (
        result.first_fallback_us,
        result.first_model_safeguard_us,
        result.first_actuator_safeguard_us,
    ) == firsts
    assert result.action_histogram == {"model": 848, "default": 27, "none": 0}
