"""The node builder's construction contract.

Kernel spawn order and RNG stream names decide every simulated number,
so the order a node is assembled in is pinned here for each agent kind,
in the experiments' shapes (agent, static or no-agent baseline, the
memory static scanner) and the fleet's.  The lists were recorded from
the per-kind builders this one replaced; a change to them moves pinned
digests.
"""

import pytest

from repro.experiments.common import memory_node, overclock_node
from repro.experiments.overclock import CPU_WORKLOADS
from repro.fleet.config import _WORKLOADS_BY_AGENT, NodeSpec
from repro.fleet.node import (
    GEN5,
    MEMORY_TRACES,
    TAILBENCH_WORKLOADS,
    FleetNode,
    build_node,
)
from repro.sim.units import MS, SEC

_OVERCLOCK_AGENT = [
    "smart-overclock.model",
    "smart-overclock.actuator",
    "smart-overclock.watchdog",
]
_HARVEST_AGENT = [
    "smart-harvest.model",
    "smart-harvest.actuator",
    "smart-harvest.watchdog",
]
_MEMORY_AGENT = [
    "smart-memory.model",
    "smart-memory.actuator",
    "smart-memory.watchdog",
]


def _fleet(agent, workload):
    spec = NodeSpec(
        node_id=0, rack=0, sku=GEN5, agent=agent, workload=workload, seed=3
    )
    return FleetNode(spec, duration_s=20).node


SHAPES = {
    "overclock/Synthetic/agent": (
        lambda: overclock_node(CPU_WORKLOADS["Synthetic"], seed=3),
        ["synthetic"] + _OVERCLOCK_AGENT,
        ["agent"],
    ),
    "overclock/Synthetic/static": (
        lambda: overclock_node(
            CPU_WORKLOADS["Synthetic"], seed=3, static_freq_ghz=1.9
        ),
        ["synthetic"],
        [],
    ),
    "overclock/ObjectStore/agent": (
        lambda: overclock_node(CPU_WORKLOADS["ObjectStore"], seed=3),
        ["objectstore"] + _OVERCLOCK_AGENT,
        ["workload", "agent"],
    ),
    "overclock/ObjectStore/static": (
        lambda: overclock_node(
            CPU_WORKLOADS["ObjectStore"], seed=3, static_freq_ghz=1.9
        ),
        ["objectstore"],
        ["workload"],
    ),
    "harvest/image-dnn/agent": (
        lambda: build_node("harvest", TAILBENCH_WORKLOADS["image-dnn"], 3),
        ["image-dnn"] + _HARVEST_AGENT,
        ["workload", "agent"],
    ),
    "harvest/image-dnn/baseline": (
        lambda: build_node(
            "harvest", TAILBENCH_WORKLOADS["image-dnn"], 3, agent=False
        ),
        ["image-dnn"],
        ["workload"],
    ),
    "memory/SQL/agent": (
        lambda: memory_node(MEMORY_TRACES["SQL"], seed=3)[0],
        ["sql-trace"] + _MEMORY_AGENT + ["slo-watcher"],
        ["memory", "trace", "agent"],
    ),
    "memory/SQL/static": (
        lambda: memory_node(
            MEMORY_TRACES["SQL"], seed=3, static_scan_us=300 * MS
        )[0],
        ["sql-trace", "static-scan", "slo-watcher"],
        ["memory", "trace"],
    ),
    "fleet/overclock/Synthetic": (
        lambda: _fleet("overclock", "Synthetic"),
        ["synthetic", "fleet.slo"] + _OVERCLOCK_AGENT,
        ["agent"],
    ),
    "fleet/overclock/ObjectStore": (
        lambda: _fleet("overclock", "ObjectStore"),
        ["objectstore", "fleet.slo"] + _OVERCLOCK_AGENT,
        ["workload", "agent"],
    ),
    "fleet/harvest/moses": (
        lambda: _fleet("harvest", "moses"),
        ["moses", "fleet.slo"] + _HARVEST_AGENT,
        ["workload", "agent"],
    ),
    "fleet/memory/SpecJBB": (
        lambda: _fleet("memory", "SpecJBB"),
        ["specjbb-trace", "fleet.slo"] + _MEMORY_AGENT,
        ["memory", "trace", "agent"],
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_spawn_order_and_stream_names_are_pinned(shape):
    build, processes, streams = SHAPES[shape]
    node = build()
    assert [p.name for p in node.kernel.live_processes()] == processes
    assert list(node.streams._streams) == streams


def test_static_overclock_node_holds_its_frequency():
    node = overclock_node(
        CPU_WORKLOADS["Synthetic"], seed=0, static_freq_ghz=1.9
    )
    assert node.agent is None
    assert node.run(5).model.frequency_ghz == 1.9


def test_memory_node_takes_its_region_count():
    node, watcher = memory_node(MEMORY_TRACES["SQL"], seed=0, n_regions=64)
    assert node.model.n_regions == 64
    assert watcher.memory is node.model


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown agent kind"):
        build_node("teleport", CPU_WORKLOADS["Synthetic"], 0)


@pytest.mark.parametrize("agent", ["overclock", "harvest", "memory"])
def test_fleet_node_refuses_an_unknown_workload(agent):
    spec = NodeSpec(
        node_id=0, rack=0, sku=GEN5, agent=agent, workload="bogus", seed=0
    )
    with pytest.raises(ValueError, match="unknown .* workload 'bogus'"):
        FleetNode(spec, duration_s=5)


@pytest.mark.parametrize(
    "kind, registry",
    [
        ("overclock", CPU_WORKLOADS),
        ("harvest", TAILBENCH_WORKLOADS),
        ("memory", MEMORY_TRACES),
    ],
)
def test_fleet_plan_draws_the_registry_names_in_order(kind, registry):
    # The plan's rng.choice indexes this tuple, so its order is part of
    # every fleet digest.
    assert _WORKLOADS_BY_AGENT[kind] == tuple(registry)


def test_experiment_synthetic_period_is_fixed():
    node = overclock_node(CPU_WORKLOADS["Synthetic"], seed=0)
    assert node.workload.period_us == 100 * SEC


@pytest.mark.parametrize(
    "duration_s, period_s", [(2, 1), (20, 5), (120, 30), (1000, 100)]
)
def test_fleet_synthetic_period_scales_with_the_run(duration_s, period_s):
    spec = NodeSpec(
        node_id=0, rack=0, sku=GEN5, agent="overclock",
        workload="Synthetic", seed=0,
    )
    node = FleetNode(spec, duration_s=duration_s).node
    assert node.workload.period_us == period_s * SEC
