"""Fleet-scale SOL: many simulated nodes, each running its own agent.

The paper deploys agents "on each server node of a cloud platform";
this package scales the single-node reproduction to a heterogeneous
fleet.  Each node gets an independent kernel, RNG, hardware SKU (from
:data:`repro.platform.taxonomy.NODE_SKUS`), workload, and SOL agent —
sealed into a :class:`~repro.fleet.config.NodeSpec` that is a pure
function of ``(fleet seed, node_id)``, so fleets shard across worker
processes without changing any result (DESIGN.md §5).

Entry points:

* :func:`build_node` — assemble one node (kernel, streams, the SKU's
  node model, workload, agent); the paper's experiments and every
  fleet node are built by it;
* :class:`FleetConfig` / :class:`FaultPlan` — describe a fleet and an
  optional rack-correlated invalid-data burst;
* :class:`FleetScenario` — build and run nodes (any subset, any order),
  each from its :class:`NodeRun` (the node's inputs alone);
* :class:`FleetAggregate` — order-independent rollup with a content
  digest for serial/parallel equivalence checks;
* :class:`repro.experiments.driver.FleetDriver` — the multiprocessing
  front end (``repro fleet`` on the command line).
"""

from repro.fleet.aggregate import FleetAggregate
from repro.fleet.config import (
    AGENT_KINDS,
    FAULT_KINDS,
    FaultPlan,
    FleetConfig,
    NodeRun,
    NodeSpec,
)
from repro.fleet.node import FleetNode, Node, NodeResult, build_node
from repro.fleet.scenario import FleetScenario

__all__ = [
    "AGENT_KINDS",
    "FAULT_KINDS",
    "FaultPlan",
    "FleetAggregate",
    "FleetConfig",
    "FleetNode",
    "FleetScenario",
    "Node",
    "NodeResult",
    "NodeRun",
    "NodeSpec",
    "build_node",
]
