"""Fleet configuration: determinism and heterogeneity of node specs."""

import pytest

from repro.fleet.config import (
    AGENT_KINDS,
    FaultPlan,
    FleetConfig,
    NodeSpec,
    node_seed,
)
from repro.platform.taxonomy import NODE_SKUS


def test_node_specs_are_deterministic():
    a = FleetConfig(n_nodes=16, seed=7).node_specs()
    b = FleetConfig(n_nodes=16, seed=7).node_specs()
    assert a == b


def test_node_spec_independent_of_fleet_size():
    # Growing the fleet must not re-plan existing nodes: a node's spec
    # depends only on (seed, node_id).
    small = FleetConfig(n_nodes=4, seed=3)
    large = FleetConfig(n_nodes=64, seed=3)
    for node_id in range(4):
        assert small.node_spec(node_id) == large.node_spec(node_id)


def test_different_seeds_give_different_plans():
    a = FleetConfig(n_nodes=32, seed=0).node_specs()
    b = FleetConfig(n_nodes=32, seed=1).node_specs()
    assert a != b


def test_fleet_is_heterogeneous():
    specs = FleetConfig(n_nodes=64, seed=0).node_specs()
    skus = {spec.sku.name for spec in specs}
    assert len(skus) > 1
    assert skus <= {sku.name for sku in NODE_SKUS}


def test_mixed_fleet_draws_every_agent_kind():
    specs = FleetConfig(n_nodes=64, agent="mixed", seed=0).node_specs()
    assert {spec.agent for spec in specs} == set(AGENT_KINDS)


def test_single_kind_fleet_is_uniform():
    specs = FleetConfig(n_nodes=8, agent="harvest", seed=0).node_specs()
    assert all(spec.agent == "harvest" for spec in specs)
    assert all(spec.workload in ("image-dnn", "moses") for spec in specs)


def test_rack_assignment_and_fault_window():
    config = FleetConfig(
        n_nodes=10,
        rack_size=4,
        fault=FaultPlan(racks=(1,), start_s=10, duration_s=5),
    )
    assert [config.node_spec(i).rack for i in range(10)] == [
        0, 0, 0, 0, 1, 1, 1, 1, 2, 2
    ]
    assert config.n_racks == 3
    # The burst reaches rack 1 (nodes 4-7) only.
    assert [config.node_run(i).fault_window_us() for i in (3, 4, 7, 8)] == [
        None, (10_000_000, 15_000_000), (10_000_000, 15_000_000), None
    ]


def test_node_seeds_are_distinct():
    seeds = {node_seed(0, i) for i in range(256)}
    assert len(seeds) == 256


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        FleetConfig(n_nodes=0)
    with pytest.raises(ValueError):
        FleetConfig(n_nodes=1, agent="nonesuch")
    with pytest.raises(ValueError):
        FleetConfig(n_nodes=1, duration_s=0)
    with pytest.raises(ValueError):
        FaultPlan(probability=1.5)
    with pytest.raises(ValueError):
        FleetConfig(n_nodes=4).node_spec(4)


def test_impossible_fault_plans_rejected():
    # A burst aimed at a rack the fleet doesn't have, or starting after
    # the run ends, would silently produce a faultless "fault" run.
    with pytest.raises(ValueError, match="outside fleet"):
        FleetConfig(n_nodes=8, rack_size=8, fault=FaultPlan(racks=(5,)))
    with pytest.raises(ValueError, match="only run"):
        FleetConfig(
            n_nodes=2, duration_s=20, fault=FaultPlan(start_s=30)
        )


def test_spec_is_frozen():
    spec = FleetConfig(n_nodes=1).node_spec(0)
    assert isinstance(spec, NodeSpec)
    with pytest.raises(AttributeError):
        spec.agent = "memory"
